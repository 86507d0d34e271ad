"""Degradation ≡ deletion: skip-mode inference is corpus filtering.

The central correctness property of the resilient runtime: inferring
with ``max_quarantine=None`` over a corpus where some documents are
quarantined must produce *byte-identical* output to inferring over the
corpus with those documents removed.  Quarantine may only ever change
which documents contribute — never how the survivors are interpreted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InferenceConfig, infer
from repro.runtime.resilience import FaultPlan

SETTINGS = settings(max_examples=60, deadline=None)

_NAMES = ("a", "b", "c")

_words = st.lists(st.sampled_from(_NAMES), max_size=4)


@st.composite
def corpus_and_drops(draw):
    corpus = draw(st.lists(_words, min_size=1, max_size=8))
    # max_size leaves at least one survivor: quarantining everything is
    # (correctly) a CorpusError, tested elsewhere.
    drops = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(corpus) - 1),
            max_size=len(corpus) - 1,
        )
    )
    return corpus, drops


def _literal(word):
    children = "".join(f"<{name}/>" for name in word)
    return f"<r>{children}</r>"


def _baseline_config(**kwargs):
    # An explicit empty plan keeps the baseline from consulting
    # REPRO_FAULTS, so the property holds under the CI canned-plan run.
    return InferenceConfig(faults=FaultPlan(), **kwargs)


@SETTINGS
@given(corpus_and_drops())
def test_skip_mode_equals_deleting_quarantined_documents(case):
    corpus, drops = case
    documents = [_literal(word) for word in corpus]
    degraded = infer(
        documents,
        config=InferenceConfig(
            max_quarantine=None, faults=FaultPlan(corrupt_docs=sorted(drops))
        ),
    )
    survivors = [
        document
        for index, document in enumerate(documents)
        if index not in drops
    ]
    baseline = infer(survivors, config=_baseline_config())
    assert degraded.dtd.render() == baseline.dtd.render()
    quarantined = [doc.path for doc in degraded.degradation.quarantined]
    assert quarantined == [f"<document #{index}>" for index in sorted(drops)]


@SETTINGS
@given(corpus_and_drops())
def test_property_holds_on_the_streaming_path(case):
    corpus, drops = case
    documents = [_literal(word) for word in corpus]
    degraded = infer(
        documents,
        config=InferenceConfig(
            jobs=3,
            max_quarantine=None,
            faults=FaultPlan(corrupt_docs=sorted(drops)),
        ),
    )
    survivors = [
        document
        for index, document in enumerate(documents)
        if index not in drops
    ]
    baseline = infer(survivors, config=_baseline_config(jobs=3))
    assert degraded.dtd.render() == baseline.dtd.render()
    assert len(degraded.degradation.quarantined) == len(drops)

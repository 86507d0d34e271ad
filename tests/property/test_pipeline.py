"""Property-based end-to-end pipeline tests over *random DTDs*.

The strongest integration invariant the system offers: for any DTD,
documents generated from it validate against it, and a DTD inferred
from those documents validates them too — with the inferred content
models never larger than needed (iDTD output stays within the source
model whenever the source models are SOREs).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.regex.ast import Regex
from repro.regex.printer import to_dtd_syntax
from repro.xmlio.dtd import Dtd, Mixed, parse_dtd
from repro.xmlio.parser import parse_document
from repro.xmlio.validate import validate

from ..conftest import build_random_sore


@st.composite
def random_dtds(draw: st.DrawFn) -> Dtd:
    """A random non-recursive DTD: a root with SORE content over a few
    child elements, each child either text-only or EMPTY."""
    child_count = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    children = [f"c{i}" for i in range(child_count)]
    content: Regex = build_random_sore(rng, children)
    lines = [f"<!ELEMENT root ({to_dtd_syntax(content)})>"]
    for name in children:
        kind = rng.choice(["(#PCDATA)", "EMPTY"])
        lines.append(f"<!ELEMENT {name} {kind}>")
    return parse_dtd("\n".join(lines))


RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(random_dtds(), st.integers(min_value=0, max_value=2**31))
def test_generated_documents_validate_against_their_dtd(dtd, seed):
    generator = XmlGenerator(dtd, random.Random(seed))
    for document in generator.corpus(8):
        assert not validate(document, dtd)


@RELAXED
@given(random_dtds(), st.integers(min_value=0, max_value=2**31))
def test_serialisation_round_trip_preserves_validity(dtd, seed):
    generator = XmlGenerator(dtd, random.Random(seed))
    for document in generator.corpus(4):
        reparsed = parse_document(serialize(document))
        assert not validate(reparsed, dtd)


@RELAXED
@given(
    random_dtds(),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["idtd", "crx"]),
)
def test_inferred_dtd_validates_the_corpus(dtd, seed, method):
    generator = XmlGenerator(dtd, random.Random(seed))
    corpus = generator.corpus(25)
    learned = infer(corpus, InferenceConfig(method=method)).dtd
    for document in corpus:
        violations = validate(document, learned)
        assert not violations, violations


@RELAXED
@given(random_dtds(), st.integers(min_value=0, max_value=2**31))
def test_idtd_exact_on_representative_corpora(dtd, seed):
    """When the corpus is representative of a SORE source model, iDTD
    recovers *exactly* the source language (Theorem 1 end to end).
    Non-representative corpora may legitimately yield a repair-driven
    superset, so the exactness claim is conditional on coverage."""
    from repro.automata.soa import SOA
    from repro.learning.tinf import tinf
    from repro.regex.language import language_equivalent

    generator = XmlGenerator(dtd, random.Random(seed))
    corpus = generator.corpus(60)
    learned = infer(corpus, InferenceConfig(method="idtd")).dtd
    source_model = dtd.content_regex("root")
    learned_model = learned.content_regex("root")
    sequences = [document.root.child_names() for document in corpus]
    representative = tinf(sequences).language_equal(
        SOA.from_regex(source_model)
    )
    if learned_model is None:  # corpus had only empty roots
        assert source_model.nullable()
        return
    if representative:
        assert language_equivalent(learned_model, source_model)
    else:
        # at minimum, the corpus itself is always covered (Theorem 2)
        from repro.regex.language import matches

        assert all(matches(learned_model, word) for word in sequences)

"""The config product: every pipeline shape composes with every error budget.

Shapes {batch, ``jobs=2``, ``state_dir``, ``state_dir`` killed after its
first shard and then resumed, a session fed in two appends} cross
error budgets ``max_quarantine`` {0, 1, None} and every method.  One
corpus holds a single corrupt document inside the first shard, so a
tolerant run killed after that shard must replay the quarantine from
its manifest.

* runs under budget 1 or ``None`` render the bytes of a fresh batch run
  over the clean remainder and quarantine exactly what the batch run
  under the same budget does;
* strict runs (budget 0) on the clean remainder render those same
  bytes, and on the corrupt corpus raise
  :class:`~repro.errors.CorpusError`;
* budget 1 over a corpus with a second corrupt document, in the other
  shard of a two-shard run and in the other append of a session,
  raises :class:`~repro.errors.QuarantineExceeded` naming both;
* ``numeric=True`` renders the batch ``numeric=True`` bytes in every
  shape (kore, whose repeats take no numerical bounds, raises the batch
  run's :class:`~repro.errors.UsageError` in every shape);
* ``support_threshold=2`` renders the batch ``support_threshold=2``
  bytes in every shape, on a corpus where the threshold drops a name;
* with :data:`~repro.learning.evidence.WORD_CAP` patched to 1, so that
  every capped bag spills, both options still render the unpatched
  batch bytes in every shape: they keep the bags whole;
* a resume that turns ``numeric`` on over shards folded under the cap
  re-parses them and renders the batch ``numeric=True`` bytes;
* the same corpus given as XML text, in the shapes that accept it
  {batch, ``jobs=2``, session}, renders the path runs' bytes under
  every budget and quarantines the corrupt literal at its corpus
  position with the path run's cause.

The ambient ``REPRO_FAULTS`` plan stays in force for the shapes under
test (the CI resilience job runs them under a worker crash); only the
references opt out with an explicit empty plan.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.api import InferenceConfig, InferenceSession, infer
from repro.ckpt.manifest import load_manifest
from repro.core.inference import METHODS
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import CorpusError, QuarantineExceeded, UsageError
from repro.learning import evidence as evidence_module
from repro.obs.recorder import StatsRecorder
from repro.runtime.resilience import CRASH_EXIT_STATUS
from repro.xmlio.dtd import parse_dtd

DTD_SOURCE = (
    "<!ELEMENT r (item+, note?)><!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)><!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY><!ELEMENT note (#PCDATA)>"
)
COUNT = 12
CORRUPT = 2  # inside shard 0 of a two-shard run
SECOND = 9  # inside shard 1, and in a session's second append
BUDGETS = [1, None]  # the tolerant budgets; 0 is strict

SHAPES = ["batch", "jobs", "state_dir", "killed", "session"]
LITERAL_SHAPES = ["batch", "jobs", "session"]  # state_dir needs files

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: Runs one checkpointed inference in a child process, which the fault
#: plan's ``kill_after_shards`` hard-kills after the first commit.
_CHILD = (
    "import json, sys\n"
    "from repro.api import InferenceConfig, infer\n"
    "from repro.runtime.resilience import FaultPlan\n"
    "config = json.loads(sys.argv[2])\n"
    "config['faults'] = FaultPlan.from_mapping(config['faults'])\n"
    "infer(json.loads(sys.argv[1]), config=InferenceConfig(**config))\n"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``(all paths, clean remainder)``, the corrupt document in shard 0."""
    directory = tmp_path_factory.mktemp("corpus")
    generator = XmlGenerator(parse_dtd(DTD_SOURCE), random.Random(5))
    paths = []
    for index, document in enumerate(generator.corpus(COUNT)):
        path = directory / f"doc{index:02d}.xml"
        text = "<r><item><name>truncat" if index == CORRUPT else serialize(document)
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths, paths[:CORRUPT] + paths[CORRUPT + 1 :]


@pytest.fixture(scope="module")
def twice_corrupt(corpus, tmp_path_factory):
    """``corpus`` with a second corrupt document, at ``SECOND``."""
    paths, _clean = corpus
    path = tmp_path_factory.mktemp("second") / f"doc{SECOND:02d}.xml"
    path.write_text("<r><item><name>cut", encoding="utf-8")
    return [*paths[:SECOND], str(path), *paths[SECOND + 1 :]]


@pytest.fixture(scope="module")
def literals(corpus):
    """``corpus``'s documents as XML text, the corrupt one included."""
    paths, _clean = corpus
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


@pytest.fixture(scope="module")
def noisy(corpus, tmp_path_factory):
    """The clean remainder with one document carrying a ``gift`` intruder."""
    _paths, clean = corpus
    path = tmp_path_factory.mktemp("noisy") / "intruder.xml"
    path.write_text("<r><item><name>n</name><gift/></item></r>", encoding="utf-8")
    return [*clean[:3], str(path), *clean[4:]]


def reference(paths, method):
    return infer(paths, config=InferenceConfig(method=method, faults=None)).render()


def quarantined(result):
    return [(doc.path, doc.cause) for doc in result.degradation.quarantined]


def kill_after_first_shard(paths, config):
    """Run ``config`` in a child killed right after shard 0 commits."""
    child = dict(config, faults={"kill_after_shards": [0]})
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(paths), json.dumps(child)],
        env=env,
        capture_output=True,
        text=True,
    )


def run(shape, paths, method, budget, state_dir, **options):
    """One inference of ``paths`` in ``shape`` under error budget
    ``budget``; the killed shape resumes and the session appends the
    two halves."""
    config = {"method": method, "max_quarantine": budget, **options}
    if shape == "session":
        session = InferenceSession(InferenceConfig(**config))
        half = len(paths) // 2
        session.append(paths[:half])
        session.append(paths[half:])
        return session.current_dtd()
    if shape == "jobs":
        config.update(jobs=2)
    elif shape == "state_dir":
        config["state_dir"] = str(state_dir)
    elif shape == "killed":
        config.update(jobs=2, state_dir=str(state_dir))
        killed = kill_after_first_shard(paths, config)
        if budget == 0 and len(paths) == COUNT:
            # A strict run never commits the shard holding the corrupt
            # document: the child dies of the CorpusError instead.
            assert killed.returncode == 1 and "XmlSyntaxError" in killed.stderr
        else:
            assert killed.returncode == CRASH_EXIT_STATUS, killed.stderr
            # The one committed shard records its quarantine for resume.
            committed = load_manifest(state_dir).shards
            offsets = [[entry[0] for entry in shard.quarantined] for shard in committed]
            assert offsets == [[CORRUPT] if budget != 0 else []]
        config["resume"] = True
    return infer(paths, config=InferenceConfig(**config))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_budget_equals_batch_over_clean_remainder(corpus, tmp_path, shape, method, budget):
    paths, clean = corpus
    result = run(shape, paths, method, budget, tmp_path / "run")
    assert result.render() == reference(clean, method)
    batch = infer(paths, config=InferenceConfig(method=method, max_quarantine=budget, faults=None))
    assert quarantined(result) == quarantined(batch)
    assert [path for path, _cause in quarantined(batch)] == [paths[CORRUPT]]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_strict_budget_on_clean_and_corrupt_corpora(corpus, tmp_path, shape, method):
    paths, clean = corpus
    result = run(shape, clean, method, 0, tmp_path / "clean")
    assert result.render() == reference(clean, method)
    with pytest.raises(CorpusError):
        run(shape, paths, method, 0, tmp_path / "corrupt")


@pytest.mark.parametrize("shape", SHAPES)
def test_exceeded_budget_counts_across_shards_and_appends(twice_corrupt, tmp_path, shape):
    with pytest.raises(QuarantineExceeded) as raised:
        run(shape, twice_corrupt, "idtd", 1, tmp_path / "run")
    assert str(raised.value).startswith("quarantined 2 documents, more than max_quarantine=1")
    skipped = [doc.path for doc in raised.value.degradation.quarantined]
    assert skipped == [twice_corrupt[CORRUPT], twice_corrupt[SECOND]]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_numeric_equals_batch(corpus, tmp_path, shape, method):
    """Same bytes, or kore's refusal in batch too: annotation needs a
    single occurrence expression, which kore's repeats are not."""

    def outcome(thunk):
        try:
            return thunk().render()
        except UsageError as error:
            return f"UsageError: {error}"

    _paths, clean = corpus
    expected = outcome(
        lambda: infer(clean, config=InferenceConfig(method=method, numeric=True, faults=None))
    )
    assert expected.startswith("UsageError") == (method == "kore")
    assert outcome(
        lambda: run(shape, clean, method, 0, tmp_path / "run", numeric=True)
    ) == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_support_threshold_equals_batch(noisy, tmp_path, shape, method):
    """The support filter counts the same words in every shape."""
    expected = infer(
        noisy, config=InferenceConfig(method=method, support_threshold=2, faults=None)
    ).render()
    assert "gift" not in expected
    assert "gift" in reference(noisy, method)
    result = run(shape, noisy, method, 0, tmp_path / "run", support_threshold=2)
    assert result.render() == expected


WORD_CAP_SHAPES = ["batch", "jobs", "killed", "session"]


@pytest.mark.parametrize(
    "option", [{"numeric": True}, {"support_threshold": 2}], ids=["numeric", "support"]
)
@pytest.mark.parametrize("shape", WORD_CAP_SHAPES)
def test_word_reading_options_keep_bags_whole(noisy, tmp_path, monkeypatch, shape, option):
    """Under a cap of one word every capped bag spills; the options that
    read the words keep every bag whole, so no shape refuses them.  The
    killed shape resumes a shard its child folded whole: the reused
    shard becomes the merge accumulator and must not take the cap."""
    expected = infer(noisy, config=InferenceConfig(method="idtd", faults=None, **option)).render()
    monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
    recorder = StatsRecorder()
    infer(noisy, config=InferenceConfig(method="idtd", recorder=recorder, faults=None))
    assert recorder.counters["evidence.spills"] > 0
    result = run(shape, noisy, "idtd", 0, tmp_path / "run", **option)
    assert result.render() == expected


def test_resume_turning_numeric_on_reparses_capped_shards(corpus, tmp_path, monkeypatch):
    """Shards folded under the cap spilled; the manifest records the cap,
    so a whole-bag resume re-parses them instead of reusing them."""
    _paths, clean = corpus
    expected = infer(clean, config=InferenceConfig(method="idtd", numeric=True, faults=None))
    monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
    state = tmp_path / "run"
    infer(clean, config=InferenceConfig(method="idtd", jobs=2, state_dir=str(state)))
    assert load_manifest(state).word_cap == 1
    recorder = StatsRecorder()
    resumed = infer(
        clean,
        config=InferenceConfig(
            method="idtd",
            numeric=True,
            jobs=2,
            state_dir=str(state),
            resume=True,
            recorder=recorder,
            faults=None,
        ),
    )
    assert resumed.render() == expected.render()
    assert recorder.counters["ckpt.corrupt"] == 2
    assert "ckpt.hit" not in recorder.counters
    assert load_manifest(state).word_cap is None


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", LITERAL_SHAPES)
def test_xml_literals_equal_paths(corpus, literals, tmp_path, shape, method, budget):
    paths, clean = corpus
    skipped = run(shape, literals, method, budget, tmp_path / "run")
    assert skipped.render() == reference(clean, method)
    batch = infer(paths, config=InferenceConfig(method=method, max_quarantine=budget, faults=None))
    ((_path, cause),) = quarantined(batch)
    assert quarantined(skipped) == [(f"<document #{CORRUPT}>", cause)]
    remainder = literals[:CORRUPT] + literals[CORRUPT + 1 :]
    strict = run(shape, remainder, method, 0, tmp_path / "clean")
    assert strict.render() == reference(clean, method)
    with pytest.raises(CorpusError):
        run(shape, literals, method, 0, tmp_path / "corrupt")

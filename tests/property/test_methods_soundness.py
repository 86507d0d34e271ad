"""Soundness and pipeline byte-identity across every learner method.

Two properties over generated corpora, for every ``method=``:

* **Soundness** — the inferred content model accepts every witnessed
  child sequence, decided by derivative-based membership (so it holds
  for interleaved models too, which have no Glushkov automaton).
* **Pipeline identity** — batch, streaming, sharded, session and
  checkpointed/resumed runs render byte-identical DTDs, extending the
  repo-wide invariant to the kore/sire learner states.

Corpora come from :mod:`repro.datagen.occurrences` (repeated-symbol
and shuffled data the paper's learners cannot express) plus an
ordinary SORE corpus, all seeded.
"""

from __future__ import annotations

import random

import pytest

from repro.api import InferenceConfig, InferenceSession, infer
from repro.contracts import contracts_enabled, set_contracts
from repro.core.inference import METHODS
from repro.datagen.occurrences import repeated_symbol_corpus, shuffled_corpus
from repro.datagen.strings import Word, padded_sample
from repro.regex.classify import is_deterministic
from repro.regex.language import matches
from repro.regex.parser import parse_regex
from repro.xmlio.dtd import Children

LEARNER_METHODS = [name for name in METHODS if name != "auto"]


def corpus_words(kind: str) -> list[Word]:
    rng = random.Random(17)
    if kind == "repeated":
        return repeated_symbol_corpus(("a", "b", "c"), 25, rng, k=3)[1]
    if kind == "shuffled":
        return shuffled_corpus(("a b?", "c", "d+"), 25, rng)[1]
    return padded_sample(parse_regex("x (y + z)? w*"), 25, rng)


CORPUS_KINDS = ("repeated", "shuffled", "sore")


def documents(words: list[Word]) -> list[str]:
    """One document per word: the word as the root's child sequence."""
    return [
        "<r>" + "".join(f"<{name}/>" for name in word) + "</r>"
        for word in words
    ]


def write_documents(tmp_path, words: list[Word]) -> list[str]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, text in enumerate(documents(words)):
        path = tmp_path / f"doc{index}.xml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture(autouse=True)
def _contracts_on():
    """Every emitted model re-verified one-unambiguous in-process."""
    previous = contracts_enabled()
    set_contracts(True)
    yield
    set_contracts(previous)


class TestSoundness:
    @pytest.mark.parametrize("kind", CORPUS_KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_model_accepts_every_witnessed_sequence(self, method, kind):
        words = corpus_words(kind)
        result = infer(documents(words), config=InferenceConfig(method=method))
        model = result.dtd.elements["r"]
        assert isinstance(model, Children), model
        for word in words:
            assert matches(model.regex, word), (method, kind, word)

    @pytest.mark.parametrize("kind", CORPUS_KINDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_model_is_one_unambiguous(self, method, kind):
        words = corpus_words(kind)
        result = infer(documents(words), config=InferenceConfig(method=method))
        model = result.dtd.elements["r"]
        assert isinstance(model, Children)
        assert is_deterministic(model.regex), (method, kind)


class TestExpressivenessGap:
    """Where the new learners must beat the paper's, per the issue."""

    def test_kore_counts_repetitions_sore_cannot(self):
        words = corpus_words("repeated")
        kore = infer(documents(words), config=InferenceConfig(method="kore"))
        sore = infer(documents(words), config=InferenceConfig(method="idtd"))
        kore_model = kore.dtd.elements["r"]
        sore_model = sore.dtd.elements["r"]
        assert isinstance(kore_model, Children)
        assert isinstance(sore_model, Children)
        overlong = ("a",) * 5
        assert not matches(kore_model.regex, overlong)
        assert matches(sore_model.regex, overlong)  # the star-soup merge

    def test_sire_keeps_counts_chare_loses(self):
        words = corpus_words("shuffled")
        sire = infer(documents(words), config=InferenceConfig(method="sire"))
        chare = infer(documents(words), config=InferenceConfig(method="crx"))
        sire_model = sire.dtd.elements["r"]
        chare_model = chare.dtd.elements["r"]
        assert isinstance(sire_model, Children)
        assert isinstance(chare_model, Children)
        doubled_c = ("a", "c", "c", "d")
        assert not matches(sire_model.regex, doubled_c)
        assert matches(chare_model.regex, doubled_c)


class TestPipelineByteIdentity:
    @pytest.mark.parametrize("kind", CORPUS_KINDS)
    @pytest.mark.parametrize("method", ["kore", "sire"])
    def test_streaming_and_jobs_match_batch(self, tmp_path, method, kind):
        paths = write_documents(tmp_path, corpus_words(kind))
        batch = infer(paths, config=InferenceConfig(method=method)).render()
        streaming = infer(
            paths, config=InferenceConfig(method=method, state_dir=str(tmp_path / "run"))
        ).render()
        sharded = infer(
            paths, config=InferenceConfig(method=method, jobs=2)
        ).render()
        assert streaming == batch
        assert sharded == batch

    @pytest.mark.parametrize("method", ["kore", "sire"])
    def test_session_chunks_match_one_shot(self, method):
        kind = "repeated" if method == "kore" else "shuffled"
        docs = documents(corpus_words(kind))
        one_shot = infer(docs, config=InferenceConfig(method=method)).render()
        session = InferenceSession(InferenceConfig(method=method))
        for start in range(0, len(docs), 5):
            session.append(docs[start : start + 5])
        assert session.current_dtd().render() == one_shot

    @pytest.mark.parametrize("method", ["kore", "sire"])
    def test_checkpointed_and_resumed_match_plain(self, tmp_path, method):
        kind = "repeated" if method == "kore" else "shuffled"
        paths = write_documents(tmp_path / "corpus", corpus_words(kind))
        plain = infer(paths, config=InferenceConfig(method=method)).render()
        state = tmp_path / "state"
        checkpointed = infer(
            paths, config=InferenceConfig(method=method, state_dir=state)
        ).render()
        resumed = infer(
            paths,
            config=InferenceConfig(
                method=method, state_dir=state, resume=True
            ),
        ).render()
        assert checkpointed == plain
        assert resumed == plain

def test_write_documents_round_trip(tmp_path):
    words = [("a",), ("a", "b")]
    paths = write_documents(tmp_path, words)
    assert [open(p, encoding="utf-8").read() for p in paths] == [
        "<r><a/></r>",
        "<r><a/><b/></r>",
    ]

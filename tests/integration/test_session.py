"""Incremental-session semantics: :class:`repro.api.InferenceSession`.

The headline contract (ALGORITHMS.md §12): a session built in chunks
is **byte-identical** to a one-shot :func:`repro.api.infer` over the
same documents, at every intermediate point, for every method and
pipeline — because appends fold through the same merge monoid the
sharded runtime uses.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.contracts import contracts_active, contracts_enabled, set_contracts
from repro.errors import QuarantineExceeded, UsageError
from repro.learning import evidence as evidence_module
from repro.obs.recorder import StatsRecorder
from repro.runtime.cache import reset_global_content_model_cache
from repro.runtime.parallel import PROCESS_CORPUS_FLOOR
from repro.runtime.resilience import FaultPlan


def corpus(count: int = 20) -> list[str]:
    """A deterministic, structurally varied corpus."""
    documents = []
    for index in range(count):
        lines = "".join(
            f"<line><sku/>{'<qty/>' if (index + line) % 2 else ''}</line>"
            for line in range(index % 3)
        )
        note = "<note/>" if index % 4 == 0 else ""
        documents.append(f"<order><id/>{lines}{note}<total/></order>")
    return documents


def noisy_corpus() -> list[str]:
    """:func:`corpus` with one intruder, which ``support_threshold=2`` drops."""
    documents = corpus(20)
    documents[7] = documents[7].replace("<total/>", "<rare/><total/>")
    return documents


def chunks(items: list[str], count: int) -> list[list[str]]:
    """Split ``items`` into ``count`` non-empty runs (uneven on purpose)."""
    base, remainder = divmod(len(items), count)
    out, start = [], 0
    for index in range(count):
        size = base + (1 if index < remainder else 0)
        out.append(items[start : start + size])
        start += size
    assert all(out) and sum(len(c) for c in out) == len(items)
    return out


@pytest.fixture(autouse=True)
def _contracts_on():
    """Sessions re-verify merge commutativity under contracts — run
    the whole module with them enabled."""
    previous = contracts_enabled()
    set_contracts(True)
    yield
    set_contracts(previous)


class TestByteIdentity:
    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_ten_chunks_match_one_shot(self, method):
        documents = corpus(20)
        config = api.InferenceConfig(method=method)
        session = api.InferenceSession(config)
        for chunk in chunks(documents, 10):
            session.append(chunk)
        assert session.total_documents == 20
        expected = api.infer(documents, config=config)
        assert session.current_dtd().render() == expected.render()

    def test_identical_at_every_prefix(self):
        documents = corpus(12)
        session = api.InferenceSession()
        seen: list[str] = []
        for chunk in chunks(documents, 6):
            session.append(chunk)
            seen.extend(chunk)
            assert (
                session.current_dtd().render()
                == api.infer(seen, config=session.config).render()
            )

    def test_support_threshold_identical_at_every_prefix(self):
        documents = noisy_corpus()
        config = api.InferenceConfig(support_threshold=2)
        session = api.InferenceSession(config)
        seen: list[str] = []
        for chunk in chunks(documents, 6):
            session.append(chunk)
            seen.extend(chunk)
            expected = api.infer(seen, config=config).render()
            assert session.current_dtd().render() == expected
            # Finalize filters a copy: asking again gives the same bytes.
            assert session.current_dtd().render() == expected

    def test_support_threshold_is_recorded(self):
        recorder = StatsRecorder()
        config = api.InferenceConfig(support_threshold=2, recorder=recorder)
        session = api.InferenceSession(config)
        session.append(noisy_corpus())
        session.current_dtd()
        snapshot = recorder.snapshot()
        assert "filter" in {span["name"] for span in snapshot["spans"]}
        assert snapshot["counters"]["filter.dropped_names"] == 1
        assert snapshot["counters"]["elements"] == 8
        # The learners never consult the regex language caches; only
        # validate and diff count them.
        assert not any(name.startswith("cache.language.") for name in snapshot["counters"])

    def test_one_document_at_a_time(self):
        documents = corpus(10)
        session = api.InferenceSession()
        for document in documents:
            session.append([document])
        expected = api.infer(documents, config=session.config)
        assert session.current_dtd().render() == expected.render()

    def test_path_appends_through_the_sharded_pool(self, tmp_path):
        documents = corpus(12)
        paths = []
        for index, text in enumerate(documents):
            path = tmp_path / f"doc{index:02d}.xml"
            path.write_text(text)
            paths.append(str(path))
        config = api.InferenceConfig(jobs=2)
        session = api.InferenceSession(config)
        for chunk in chunks(paths, 4):
            session.append(chunk)
        expected = api.infer(paths, config=config)
        assert session.current_dtd().render() == expected.render()

    @pytest.mark.parametrize(
        "option", [{}, {"numeric": True}, {"support_threshold": 2}],
        ids=["plain", "numeric", "support"],
    )
    def test_session_keeps_its_config(self, option):
        documents = corpus(8)
        config = api.InferenceConfig(**option)
        session = api.InferenceSession(config)
        assert session.config is config
        for chunk in chunks(documents, 4):
            session.append(chunk)
        expected = api.infer(documents, config=config)
        assert session.current_dtd().render() == expected.render()

    def test_xsd_rendering_matches_too(self):
        documents = corpus(10)
        session = api.InferenceSession()
        for chunk in chunks(documents, 5):
            session.append(chunk)
        expected = api.infer(documents, config=session.config)
        assert session.current_dtd().to_xsd() == expected.to_xsd()


class TestResilientSessions:
    def test_crash_faults_on_path_appends(self, tmp_path):
        documents = corpus(12)
        paths = []
        for index, text in enumerate(documents):
            path = tmp_path / f"doc{index:02d}.xml"
            path.write_text(text)
            paths.append(str(path))
        config = api.InferenceConfig(jobs=2, faults=FaultPlan(worker_crashes=[0]))
        session = api.InferenceSession(config)
        for chunk in chunks(paths, 3):
            session.append(chunk)
        expected = api.infer(paths, config=config)
        assert session.current_dtd().render() == expected.render()

    def test_retried_shards_rebase_across_appends(self, tmp_path):
        # Each resilient path-append starts shard numbering at 0; the
        # session must rebase so the report contract (unique shard
        # indexes) holds — current_dtd() runs check_degradation_report
        # under the autouse contracts fixture.
        documents = corpus(8)
        paths = []
        for index, text in enumerate(documents):
            path = tmp_path / f"doc{index:02d}.xml"
            path.write_text(text)
            paths.append(str(path))
        config = api.InferenceConfig(
            jobs=2,
            max_quarantine=None,
            faults=FaultPlan(worker_crashes=[0]),
        )
        session = api.InferenceSession(config)
        for chunk in chunks(paths, 2):
            session.append(chunk)
        result = session.current_dtd()
        assert result.degradation is not None
        shards = [r.shard for r in result.degradation.retried_shards]
        assert len(shards) == len(set(shards))
        assert len(shards) >= 2  # one crash per append, rebased apart

    @staticmethod
    def _write_paths(tmp_path, texts):
        paths = []
        for index, text in enumerate(texts):
            path = tmp_path / f"doc{index:02d}.xml"
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_skip_mode_quarantines_and_matches_one_shot(self, tmp_path):
        good = corpus(9)
        texts = good[:4] + ["<broken><unclosed></broken>"] + good[4:]
        paths = self._write_paths(tmp_path, texts)
        config = api.InferenceConfig(max_quarantine=None)
        session = api.InferenceSession(config)
        for chunk in chunks(paths, 5):
            session.append(chunk)
        result = session.current_dtd()
        assert result.degradation is not None
        (quarantined,) = result.degradation.quarantined
        assert quarantined.path.endswith("doc04.xml")
        assert result.render() == api.infer(paths, config=config).render()
        assert result.render() == api.infer(good, config=config).render()

    def test_skip_mode_quarantines_a_malformed_literal(self):
        good = corpus(9)
        config = api.InferenceConfig(max_quarantine=None)
        session = api.InferenceSession(config)
        session.append(good[:4])
        session.append(["<broken><unclosed></broken>", *good[4:]])
        result = session.current_dtd()
        (quarantined,) = result.degradation.quarantined
        assert quarantined.path == "<document #4>"
        assert quarantined.position is not None
        assert result.render() == api.infer(good, config=session.config).render()

    def test_max_quarantine_is_session_wide(self, tmp_path):
        paths = self._write_paths(
            tmp_path, ["<a/>", "<broken><unclosed>", "<also><broken>"]
        )
        config = api.InferenceConfig(max_quarantine=1)
        session = api.InferenceSession(config)
        session.append(paths[:2])
        before = session.current_dtd()
        with pytest.raises(QuarantineExceeded) as raised:
            session.append(paths[2:])
        assert str(raised.value).startswith(
            "quarantined 2 documents, more than max_quarantine=1"
        )
        skipped = [entry.path for entry in raised.value.degradation.quarantined]
        assert skipped == paths[1:]
        # The failed append leaves the session where it was.
        assert session.total_documents == 2
        after = session.current_dtd()
        assert after.render() == before.render()
        assert after.degradation.to_dict() == before.degradation.to_dict()

    def test_spent_budget_keeps_learner_fallbacks(self, tmp_path):
        paths = self._write_paths(tmp_path, corpus(4) + ["<broken><unclosed>"])
        config = api.InferenceConfig(
            max_quarantine=1,
            faults=FaultPlan(element_failures_hard=["line"]),
        )
        session = api.InferenceSession(config)
        session.append(paths)
        result = session.current_dtd()
        assert len(result.degradation.quarantined) == 1
        assert {f.element for f in result.degradation.fallbacks} == {"line"}

    def test_repeated_current_dtd_does_not_accumulate_degradation(
        self, tmp_path
    ):
        paths = self._write_paths(
            tmp_path, corpus(6) + ["<broken><unclosed>"]
        )
        config = api.InferenceConfig(
            max_quarantine=None, faults=FaultPlan(element_failures_hard=["line"])
        )
        session = api.InferenceSession(config)
        session.append(paths)
        first = session.current_dtd()
        second = session.current_dtd()
        assert first.render() == second.render()
        assert first.degradation.fallbacks
        assert (
            first.degradation.to_dict() == second.degradation.to_dict()
        )


class TestLifecycle:
    def test_receipts_accumulate(self):
        session = api.InferenceSession()
        first = session.append(["<a><b/></a>"])
        assert (first.documents, first.total_documents) == (1, 1)
        second = session.append(["<a><b/><c/></a>", "<c/>"])
        assert (second.documents, second.total_documents) == (2, 3)
        assert second.elements == 3

    def test_failed_append_leaves_state_intact(self):
        documents = corpus(6)
        session = api.InferenceSession()
        for chunk in chunks(documents, 3):
            session.append(chunk)
        before = session.current_dtd().render()
        with pytest.raises(Exception):
            session.append(["<broken><unclosed>"])
        assert session.total_documents == 6
        assert session.current_dtd().render() == before

    def test_context_manager_closes(self):
        with api.InferenceSession() as session:
            session.append(["<a/>"])
        assert session.closed
        with pytest.raises(UsageError, match="closed"):
            session.append(["<b/>"])
        with pytest.raises(UsageError, match="closed"):
            session.current_dtd()

    def test_close_is_idempotent(self):
        session = api.InferenceSession()
        session.close()
        session.close()
        assert session.closed

    def test_empty_append_rejected(self):
        session = api.InferenceSession()
        with pytest.raises(UsageError, match="no documents"):
            session.append([])

    def test_dtd_before_any_append_rejected(self):
        session = api.InferenceSession()
        with pytest.raises(UsageError, match="append"):
            session.current_dtd()

    def test_numeric_config_matches_batch(self):
        config = api.InferenceConfig(numeric=True)
        session = api.InferenceSession(config)
        for chunk in chunks(corpus(), 3):
            session.append(chunk)
        expected = api.infer(corpus(), config=config).render()
        assert session.current_dtd().render() == expected

    def test_support_threshold_config_matches_batch(self):
        config = api.InferenceConfig(support_threshold=2)
        session = api.InferenceSession(config)
        for chunk in chunks(noisy_corpus(), 3):
            session.append(chunk)
        expected = api.infer(noisy_corpus(), config=config).render()
        assert "<!ELEMENT rare" not in expected
        assert session.current_dtd().render() == expected


class TestSpilledStatesDeriveFresh:
    """A spilled element's content model comes from its state, every time.

    With :data:`~repro.learning.evidence.WORD_CAP` at 1 the root's bag
    spills into learner states that outlive each ``current_dtd``.  The
    learner counters show whether a query derived: ``kore.k_used`` and
    ``sire.blocks`` are counted only by a derivation.
    """

    WORDS = {
        "kore": ("<r><a/><b/><a/></r>", "<r><a/><b/></r>"),
        "sire": ("<r><a/><b/></r>", "<r><b/><a/></r>"),
    }
    COUNTER = {"kore": "kore.k_used", "sire": "sire.blocks"}

    @staticmethod
    def _session(method, cache, monkeypatch):
        monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
        documents = TestSpilledStatesDeriveFresh.WORDS[method]
        assert len(documents) < PROCESS_CORPUS_FLOOR
        recorder = StatsRecorder()
        session = api.InferenceSession(api.InferenceConfig(
            method=method, cache=cache, recorder=recorder, faults=None,
        ))
        session.append(list(documents))
        assert session._evidence.elements["r"].spilled is not None
        return session, recorder

    @pytest.mark.parametrize("method", ["kore", "sire"])
    def test_uncached_queries_each_derive(self, method, monkeypatch):
        session, recorder = self._session(method, False, monkeypatch)
        first = session.current_dtd().render()
        derived = recorder.snapshot()["counters"][self.COUNTER[method]]
        assert derived > 0
        assert session.current_dtd().render() == first
        counters = recorder.snapshot()["counters"]
        assert counters[self.COUNTER[method]] == 2 * derived
        assert not any(name.startswith("cache.") for name in counters)

    @pytest.mark.parametrize("method", ["kore", "sire"])
    def test_first_cache_hit_rederives_under_contracts(self, method, monkeypatch):
        reset_global_content_model_cache()
        session, recorder = self._session(method, True, monkeypatch)
        with contracts_active(True):
            first = session.current_dtd().render()  # a miss: derives
            derived = recorder.snapshot()["counters"][self.COUNTER[method]]
            session.current_dtd()  # the first hit: checked against a fresh derivation
            session.current_dtd()  # a verified hit: no derivation
        assert session.current_dtd().render() == first
        counters = recorder.snapshot()["counters"]
        assert counters[self.COUNTER[method]] == 2 * derived
        assert counters["cache.content_model.hits"] == 3
        assert "cache.hits" not in counters

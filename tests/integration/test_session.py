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
from repro.contracts import contracts_enabled, set_contracts
from repro.errors import UsageError
from repro.obs import StatsRecorder


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
        config = api.InferenceConfig(method=method, streaming=True)
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

    def test_support_threshold_is_recorded(self, monkeypatch):
        from repro.core.inference import DTDInferencer
        from repro.regex.language import matches
        from repro.regex.parser import parse_regex

        finalize = DTDInferencer.finalize

        def probing(self, evidence):
            # The learners never consult the regex language caches, so
            # touch one here: the shared finalize tail counts its delta.
            matches(parse_regex("a b*"), ("a",))
            return finalize(self, evidence)

        monkeypatch.setattr(DTDInferencer, "finalize", probing)
        recorder = StatsRecorder()
        config = api.InferenceConfig(support_threshold=2, recorder=recorder)
        session = api.InferenceSession(config)
        session.append(noisy_corpus())
        session.current_dtd()
        snapshot = recorder.snapshot()
        assert "filter" in {span["name"] for span in snapshot["spans"]}
        assert snapshot["counters"]["filter.dropped_names"] == 1
        assert snapshot["counters"]["elements"] == 8
        assert any(name.startswith("cache.language.automaton.") for name in snapshot["counters"])

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
        config = api.InferenceConfig(streaming=True, jobs=2)
        session = api.InferenceSession(config)
        for chunk in chunks(paths, 4):
            session.append(chunk)
        expected = api.infer(paths, config=config)
        assert session.current_dtd().render() == expected.render()

    def test_batch_config_promoted_to_streaming(self):
        documents = corpus(8)
        session = api.InferenceSession(api.InferenceConfig(streaming=False))
        assert session.config.streaming is True
        for chunk in chunks(documents, 4):
            session.append(chunk)
        expected = api.infer(documents, config=session.config)
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
        config = api.InferenceConfig(
            streaming=True, jobs=2, faults={"worker_crashes": [0]}
        )
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
            streaming=True,
            jobs=2,
            on_error="skip",
            faults={"worker_crashes": [0]},
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
        config = api.InferenceConfig(streaming=True, on_error="skip")
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
        config = api.InferenceConfig(on_error="skip")
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
        config = api.InferenceConfig(
            streaming=True, on_error="skip", max_quarantine=1
        )
        session = api.InferenceSession(config)
        session.append(paths[:2])
        with pytest.raises(Exception, match="quarantine"):
            session.append(paths[2:])

    def test_repeated_current_dtd_does_not_accumulate_degradation(
        self, tmp_path
    ):
        paths = self._write_paths(
            tmp_path, corpus(6) + ["<broken><unclosed>"]
        )
        config = api.InferenceConfig(streaming=True, on_error="skip")
        session = api.InferenceSession(config)
        session.append(paths)
        first = session.current_dtd()
        second = session.current_dtd()
        assert first.render() == second.render()
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

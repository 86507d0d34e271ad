"""Map-reduce inference: streamed and sharded paths equal batch."""

import random

import pytest

from repro.core.inference import DTDInferencer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import CorpusError, InternalError, UsageError
from repro.learning import evidence as evidence_module
from repro.obs.recorder import StatsRecorder
from repro.runtime.parallel import (
    MIN_DOCS_PER_SHARD,
    PROCESS_CORPUS_FLOOR,
    choose_backend,
    extract_from_paths,
    infer_parallel,
    merge_evidence,
    parallel_evidence,
    shard_paths,
    warm_pool,
)
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.extract import extract_streaming_evidence
from repro.xmlio.parser import parse_file

DTD_SOURCES = [
    "<!ELEMENT r (a+, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>",
    '<!ELEMENT r (x*, (y | z)+)><!ELEMENT x EMPTY>'
    "<!ELEMENT y (#PCDATA)><!ELEMENT z (x?)>",
    "<!ELEMENT r (s*)><!ELEMENT s (t, u?)>"
    "<!ELEMENT t (#PCDATA)><!ELEMENT u EMPTY>",
]


def write_corpus(tmp_path, source, count, seed=3):
    generator = XmlGenerator(parse_dtd(source), random.Random(seed))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = tmp_path / f"doc{index:03d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def batch_dtd(paths, method="auto"):
    inferencer = DTDInferencer(method=method)
    return inferencer.infer([parse_file(path) for path in paths]).render()


class TestShardPaths:
    def test_contiguous_and_complete(self):
        paths = [f"p{i}" for i in range(10)]
        shards = shard_paths(paths, 3)
        assert [p for shard in shards for p in shard] == paths
        assert len(shards) == 3
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_more_shards_than_paths(self):
        assert shard_paths(["a", "b"], 8) == [["a"], ["b"]]

    def test_empty(self):
        assert shard_paths([], 4) == []


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("source", DTD_SOURCES)
    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_streamed_dtd_identical(self, tmp_path, source, method):
        paths = write_corpus(tmp_path, source, 12)
        evidence = extract_streaming_evidence(
            parse_file(path) for path in paths
        )
        inferencer = DTDInferencer(method=method)
        streamed = inferencer.infer_from_streaming(evidence).render()
        assert streamed == batch_dtd(paths, method)

    @pytest.mark.parametrize("source", DTD_SOURCES)
    def test_shard_merge_identical(self, tmp_path, source):
        paths = write_corpus(tmp_path, source, 14)
        for shards in (2, 3, 5):
            merged = merge_evidence(
                extract_from_paths(shard)
                for shard in shard_paths(paths, shards)
            )
            inferencer = DTDInferencer()
            assert (
                inferencer.infer_from_streaming(merged).render()
                == batch_dtd(paths)
            )

    def test_randomized_shard_merge_language_equivalence(self, tmp_path):
        """Property: any shard split yields the batch learner states."""
        rng = random.Random(17)
        paths = write_corpus(tmp_path, DTD_SOURCES[1], 20, seed=11)
        reference = batch_dtd(paths)
        for _ in range(6):
            cut = sorted(rng.sample(range(1, len(paths)), 2))
            shards = [
                paths[: cut[0]],
                paths[cut[0] : cut[1]],
                paths[cut[1] :],
            ]
            merged = merge_evidence(
                extract_from_paths(shard) for shard in shards if shard
            )
            result = DTDInferencer().infer_from_streaming(merged).render()
            assert result == reference


class TestParallelEvidence:
    def test_serial_backend(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        evidence = parallel_evidence(paths, jobs=4, backend="serial")
        assert evidence.document_count == 8

    def test_thread_backend_identical(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 9)
        dtd = infer_parallel(paths, jobs=3, backend="thread")
        assert dtd.render() == batch_dtd(paths)

    def test_process_backend_identical(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[2], 10)
        dtd = infer_parallel(paths, jobs=2)
        assert dtd.render() == batch_dtd(paths)

    def test_single_file(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 1)
        dtd = infer_parallel(paths, jobs=4)
        assert dtd.render() == batch_dtd(paths)

    def test_methods_respected(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        for method in ("idtd", "crx"):
            dtd = infer_parallel(paths, jobs=2, backend="thread", method=method)
            assert dtd.render() == batch_dtd(paths, method)

    def test_jobs_zero_or_negative_rejected(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 4)
        for jobs in (0, -1, -4):
            with pytest.raises(UsageError, match="positive"):
                parallel_evidence(paths, jobs=jobs)

    def test_unknown_backend_rejected(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 2)
        with pytest.raises(UsageError, match="backend"):
            parallel_evidence(paths, backend="cluster")

    def test_backend_choice_is_counted(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 6)
        recorder = StatsRecorder()
        parallel_evidence(
            paths, jobs=2, backend="thread", recorder=recorder
        )
        counters = recorder.snapshot()["counters"]
        assert counters["parallel.backend.thread"] == 1

    def test_numeric_rejected_on_streaming_path(self, tmp_path, monkeypatch):
        """Numeric bounds read the words, which a spilled bag no longer has."""
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
        evidence = extract_streaming_evidence(
            parse_file(path) for path in paths
        )
        assert evidence.elements["r"].spilled is not None
        inferencer = DTDInferencer(numeric=True)
        with pytest.raises(CorpusError, match="element 'r'.*batch path"):
            inferencer._finalize(evidence)


class TestChooseBackend:
    """The adaptive cost model: serial/thread/process from size × CPUs."""

    def test_one_cpu_is_always_serial(self):
        assert choose_backend(10_000, jobs=8, cpus=1) == ("serial", 1)

    def test_tiny_corpus_is_serial(self):
        # Below the per-shard work floor, dispatch costs more than it
        # saves, whatever the CPU count.
        docs = MIN_DOCS_PER_SHARD * 2 - 1
        assert choose_backend(docs, jobs=None, cpus=16) == ("serial", 1)

    def test_small_corpus_prefers_threads(self):
        backend, shards = choose_backend(
            PROCESS_CORPUS_FLOOR - 1, jobs=None, cpus=4
        )
        assert backend == "thread"
        assert 2 <= shards <= 4

    def test_large_corpus_prefers_processes(self):
        backend, shards = choose_backend(
            PROCESS_CORPUS_FLOOR * 4, jobs=None, cpus=4
        )
        assert backend == "process"
        assert shards == 4

    def test_shards_clamped_to_cpus(self):
        _, shards = choose_backend(10_000, jobs=64, cpus=4)
        assert shards == 4

    def test_jobs_caps_shards(self):
        _, shards = choose_backend(10_000, jobs=2, cpus=16)
        assert shards == 2

    def test_jobs_none_means_up_to_cpu_count(self):
        _, shards = choose_backend(10_000, jobs=None, cpus=8)
        assert shards == 8

    def test_work_floor_limits_shards(self):
        # 3 shards' worth of documents cannot justify 8 shards.
        _, shards = choose_backend(
            MIN_DOCS_PER_SHARD * 3, jobs=8, cpus=8
        )
        assert shards == 3

    def test_auto_serial_fallback_end_to_end(self, tmp_path):
        # On any host, 4 documents sit below the work floor: the auto
        # backend must run serial (no shard spans, backend counted).
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 4)
        recorder = StatsRecorder()
        evidence = parallel_evidence(paths, recorder=recorder)
        assert evidence.document_count == 4
        counters = recorder.snapshot()["counters"]
        assert counters["parallel.backend.serial"] == 1
        assert "shards" not in counters


class TestWarmPool:
    def test_warm_pool_requires_known_kind(self):
        # Reaching warm_pool with a non-pooled kind means backend
        # selection failed upstream: an engine bug, not a usage error.
        with pytest.raises(InternalError, match="serial"):
            warm_pool("serial")

    def test_pool_reused_across_parallel_evidence_calls(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        pool = warm_pool("thread")
        executor = pool.executor()
        first = parallel_evidence(paths, jobs=2, backend="thread")
        second = parallel_evidence(paths, jobs=2, backend="thread")
        assert first.document_count == second.document_count == 8
        assert pool.executor() is executor

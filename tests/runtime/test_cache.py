"""The fingerprint-keyed content-model cache: hits must be invisible.

The load-bearing property is byte-identity: inference with a cold
cache, a warm cache, or no cache at all must render the same DTD, on
both learners and both pipelines (batch and streaming).  Everything
else here — keying, invalidation, eviction, the poisoned-entry
contract — supports that property.
"""

import random

import pytest

import repro.learning.evidence as extract_module
from repro.api import InferenceConfig, infer
from repro.contracts import ContractViolation, contracts_active
from repro.core.idtd import idtd
from repro.core.inference import DTDInferencer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import UsageError
from repro.obs.recorder import StatsRecorder
from repro.runtime.cache import (
    ContentModelCache,
    global_content_model_cache,
    reset_global_content_model_cache,
)
from repro.runtime.parallel import PROCESS_CORPUS_FLOOR, WARM_POOL
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import parse_file

DTD_SOURCES = [
    "<!ELEMENT r (a+, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>",
    '<!ELEMENT r (x*, (y | z)+)><!ELEMENT x EMPTY>'
    "<!ELEMENT y (#PCDATA)><!ELEMENT z (x?)>",
    "<!ELEMENT r (s*)><!ELEMENT s (t, u?)>"
    "<!ELEMENT t (#PCDATA)><!ELEMENT u EMPTY>",
]


@pytest.fixture(autouse=True)
def fresh_global_cache():
    reset_global_content_model_cache()
    yield
    reset_global_content_model_cache()


def write_corpus(tmp_path, source, count, seed=3):
    generator = XmlGenerator(parse_dtd(source), random.Random(seed))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = tmp_path / f"doc{index:03d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


class TestCacheMechanics:
    def test_lru_eviction(self):
        cache = ContentModelCache(maxsize=2)
        r1, r2, r3 = idtd([("a",)]), idtd([("b",)]), idtd([("c",)])
        cache.put(("k1",), r1)
        cache.put(("k2",), r2)
        assert cache.get(("k1",)) is r1  # refresh k1: k2 becomes LRU
        cache.put(("k3",), r3)
        assert ("k2",) not in cache
        assert ("k1",) in cache and ("k3",) in cache
        assert cache.info()["evictions"] == 1

    def test_invalidate_empties_and_counts(self):
        cache = ContentModelCache(maxsize=8)
        cache.put(("k",), idtd([("a",)]))
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.get(("k",)) is None

    def test_maxsize_must_be_positive(self):
        with pytest.raises(UsageError):
            ContentModelCache(maxsize=0)

    def test_global_cache_is_a_singleton_until_reset(self):
        first = global_content_model_cache()
        assert global_content_model_cache() is first
        reset_global_content_model_cache()
        assert global_content_model_cache() is not first

    def test_counters_reach_the_recorder(self):
        cache = ContentModelCache(maxsize=4)
        recorder = StatsRecorder()
        assert cache.get(("k",), recorder) is None
        cache.put(("k",), idtd([("a",)]), recorder)
        assert cache.get(("k",), recorder) is not None
        counters = recorder.snapshot()["counters"]
        assert counters["cache.content_model.misses"] == 1
        assert counters["cache.content_model.hits"] == 1


class TestCachedEqualsUncached:
    """Property: the cache is semantically invisible."""

    @pytest.mark.parametrize("source", DTD_SOURCES)
    @pytest.mark.parametrize("method", ["idtd", "crx"])
    @pytest.mark.parametrize("streaming", [False, True])
    def test_byte_identical_across_randomized_corpora(
        self, tmp_path, source, method, streaming
    ):
        for seed in (3, 11):
            paths = write_corpus(
                tmp_path, source, 10, seed=seed
            )
            uncached = infer(
                paths,
                config=InferenceConfig(
                    method=method, streaming=streaming, cache=False
                ),
            ).render()
            config = InferenceConfig(method=method, streaming=streaming)
            cold = infer(paths, config=config).render()
            warm = infer(paths, config=config).render()
            assert cold == uncached
            assert warm == uncached
            # Tampering evidence: the warm run actually hit the cache.
            assert global_content_model_cache().hits > 0

    def test_warm_hits_survive_contracts(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[1], 12)
        cold = infer(paths).render()
        with contracts_active(True):
            assert infer(paths).render() == cold

    def test_batch_and_streaming_share_entries(self, tmp_path):
        # Both pipelines cache the learner output before optionality
        # wrapping and numeric annotation, so the same merged state
        # produces the same key regardless of pipeline.
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        infer(paths, config=InferenceConfig(method="idtd"))
        entries_after_batch = len(global_content_model_cache())
        infer(paths, config=InferenceConfig(method="idtd", streaming=True))
        assert len(global_content_model_cache()) == entries_after_batch
        assert global_content_model_cache().hits > 0


class TestKeying:
    def test_method_is_part_of_the_key(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[1], 10)
        infer(paths, config=InferenceConfig(method="idtd"))
        misses_after_idtd = global_content_model_cache().misses
        infer(paths, config=InferenceConfig(method="crx"))
        assert global_content_model_cache().misses > misses_after_idtd

    def test_sample_cap_is_part_of_the_key(self, tmp_path, monkeypatch):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 8)
        infer(paths)
        misses_before = global_content_model_cache().misses
        hits_before = global_content_model_cache().hits
        monkeypatch.setattr(extract_module, "SAMPLE_CAP", 7)
        infer(paths)
        assert global_content_model_cache().misses > misses_before
        assert global_content_model_cache().hits == hits_before

    def test_poisoned_entry_trips_the_contract(self, tmp_path):
        paths = write_corpus(tmp_path, DTD_SOURCES[0], 6)
        cache = ContentModelCache(maxsize=16)
        documents = [parse_file(path) for path in paths]
        inferencer = DTDInferencer(method="idtd", cache=cache)
        inferencer.finalize(extract_module.extract_evidence(documents))
        assert len(cache) > 0
        wrong = idtd([("bogus",)])
        for key in list(cache._entries):
            cache._entries[key] = wrong
        poisoned = DTDInferencer(method="idtd", cache=cache)
        with contracts_active(True), pytest.raises(ContractViolation):
            poisoned.finalize(extract_module.extract_evidence(documents))


class TestWarmPoolReuse:
    def test_two_infer_calls_reuse_the_pool_and_merge_snapshots(
        self, tmp_path, two_cpus
    ):
        paths = write_corpus(tmp_path, DTD_SOURCES[2], PROCESS_CORPUS_FLOOR)
        executor = WARM_POOL.executor()
        renders = []
        for _ in range(2):
            recorder = StatsRecorder()
            renders.append(
                infer(
                    paths,
                    # faults={}: an ambient crash plan would break the
                    # pool and so replace the executor.
                    config=InferenceConfig(jobs=2, recorder=recorder, faults={}),
                ).render()
            )
            snapshot = recorder.snapshot()
            shard_tags = {
                span["shard"]
                for span in snapshot["spans"]
                if span["shard"] is not None
            }
            assert shard_tags == {0, 1}
            assert snapshot["counters"]["shards"] == 2
            assert snapshot["counters"]["parallel.backend.process"] == 1
        assert renders[0] == renders[1]
        assert WARM_POOL.live
        assert WARM_POOL.executor() is executor

    def test_shutdown_then_lazy_recreation(self):
        first = WARM_POOL.executor()
        WARM_POOL.shutdown()
        assert not WARM_POOL.live
        second = WARM_POOL.executor()
        assert second is not first
        WARM_POOL.shutdown()

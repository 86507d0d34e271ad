"""Experiment E9 — the fingerprint-keyed content-model cache.

Service-style workloads re-run inference over overlapping corpora, so
the per-element finalize step (Section 5/6 rewrite + repair for iDTD)
keeps re-deriving content models it has already computed.  This module
measures what the :mod:`repro.runtime.cache` memoization buys on a
repeated corpus:

* **correctness** — cached and uncached renders must be byte-identical
  (asserted unconditionally; the deeper property suite lives in
  ``tests/runtime/test_cache.py``);
* **speed** — the finalize step over already-merged learner states is
  timed cold (no cache) and warm (every fingerprint already present);
  a >= 2x speedup is asserted — on a warm cache the rewrite/repair
  work disappears and only fingerprint hashing and DTD assembly remain;
* **accounting** — hit/miss counters and the scheduler's backend
  choice for this corpus are recorded into ``BENCH_phases.json`` under
  the ``cache`` section (the CI perf gate tracks them).

The corpus is structural (every leaf ``EMPTY``, attributes off) so the
numbers isolate the learner, not text sniffing.
"""

from __future__ import annotations

import random

from perf_record import update_bench_json
from repro.api import InferenceConfig, infer
from repro.core.inference import DTDInferencer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.evaluation.timing import timed
from repro.obs.recorder import StatsRecorder
from repro.runtime.cache import (
    ContentModelCache,
    reset_global_content_model_cache,
)
from repro.runtime.parallel import choose_backend, parallel_evidence
from repro.xmlio.dtd import parse_dtd

# Several elements with wide optional content models make the
# Section 5/6 rewrite + repair (the work the cache elides) the
# dominant finalize cost.
def _heavy_element(k: int) -> str:
    symbols = [f"e{k}x{i}" for i in range(12)]
    return (
        f"<!ELEMENT h{k} ("
        + ", ".join(f"{symbol}?" for symbol in symbols)
        + ")>"
        + "".join(f"<!ELEMENT {symbol} EMPTY>" for symbol in symbols)
    )


CORPUS_DTD = "<!ELEMENT r (h0, h1?, h2?, h3?, h4?, h5?)>" + "".join(
    _heavy_element(k) for k in range(6)
)

BEST_OF = 5


def write_corpus(directory, count: int) -> list[str]:
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(7))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index:04d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def best_of(fn, repeats: int = BEST_OF) -> float:
    return min(timed(fn).seconds for _ in range(repeats))


def test_cached_finalize_speedup(tmp_path, scale, benchmark):
    count = 300 if scale.is_full else 80
    paths = write_corpus(tmp_path, count)
    evidence = parallel_evidence(paths)

    # Timed region = finalize only (rewrite/repair vs cache lookups);
    # rendering is identical on both sides and would only dilute the
    # ratio, so correctness is compared on renders outside the clock.
    def finalize(cache: ContentModelCache | None):
        inferencer = DTDInferencer(
            method="idtd", infer_attributes=False, cache=cache
        )
        return inferencer._finalize(evidence)

    reference = finalize(None).render()
    warm_cache = ContentModelCache()
    assert finalize(warm_cache).render() == reference  # populate + correctness
    assert warm_cache.misses > 0
    assert finalize(warm_cache).render() == reference  # all-hits + correctness
    assert warm_cache.hits > 0

    cold_seconds = best_of(lambda: finalize(None))
    warm_seconds = best_of(lambda: finalize(warm_cache))
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")

    backend_chosen, _ = choose_backend(len(paths))
    table = Table(
        headers=("finalize", "seconds"),
        title=f"E9: content-model cache, {len(paths)} documents "
        f"(best of {BEST_OF})",
    )
    table.add("uncached (fresh rewrite/repair)", f"{cold_seconds:.5f}")
    table.add("warm cache (all hits)", f"{warm_seconds:.5f}")
    table.add("speedup", f"{speedup:.2f}x")
    table.show()
    update_bench_json(
        "cache",
        {
            "documents": len(paths),
            "backend_chosen": backend_chosen,
            "uncached_finalize_seconds": cold_seconds,
            "cached_finalize_seconds": warm_seconds,
            "speedup_uncached_over_cached": speedup,
            "hits": warm_cache.hits,
            "misses": warm_cache.misses,
        },
    )
    benchmark(lambda: finalize(warm_cache))
    assert speedup >= 2.0, (
        f"expected the warm cache to at least halve finalize time, "
        f"got {speedup:.2f}x"
    )


def test_repeated_corpus_end_to_end_counters(tmp_path, scale):
    """Through the façade: the second identical run hits, output stays
    byte-identical, and the recorder surfaces the counters --stats shows."""
    paths = write_corpus(tmp_path, 60 if scale.is_full else 30)
    reset_global_content_model_cache()
    try:
        first = infer(paths, config=InferenceConfig(method="idtd")).render()
        recorder = StatsRecorder()
        second = infer(
            paths, config=InferenceConfig(method="idtd", recorder=recorder)
        ).render()
        assert second == first
        counters = recorder.snapshot()["counters"]
        assert counters.get("cache.content_model.hits", 0) > 0
        assert counters.get("cache.content_model.misses", 0) == 0
    finally:
        reset_global_content_model_cache()

"""Experiment E8 — streaming map-reduce inference at corpus scale.

Measures the new pipeline (``repro.runtime.parallel``) against the
batch path on a generated multi-document corpus:

* **correctness** — the sharded/streamed DTD must be byte-identical to
  the batch DTD (this is asserted unconditionally);
* **memory** — streaming extraction must not grow with corpus size the
  way batch evidence does (peak-RSS deltas are reported; learner-state
  sizes are asserted to be corpus-size-independent);
* **speed** — wall-clock for ``--jobs N`` vs. batch is reported, and a
  > 1.3x speedup at 4 jobs is asserted — only where the hardware can
  deliver one (>= 4 CPUs); on smaller machines the row is informational
  (a 1-core container cannot parallelize CPU-bound parsing, and faking
  it would hide a real regression on real hardware).
"""

from __future__ import annotations

import os
import random
import resource

import pytest

from perf_record import update_bench_json
from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.evaluation.timing import timed
from repro.learning.evidence import extract_evidence
from repro.runtime.parallel import choose_backend, parallel_evidence
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import parse_file

CORPUS_DTD = (
    "<!ELEMENT r (meta?, item+)>"
    "<!ELEMENT meta (#PCDATA)>"
    "<!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)>"
    "<!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY>"
)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory, scale):
    count = 400 if scale.is_full else 120
    directory = tmp_path_factory.mktemp("parallel_corpus")
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(42))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index:04d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def batch_render(paths: list[str]) -> str:
    return infer(paths).render()


def test_parallel_dtd_identical_to_batch(corpus_paths, benchmark):
    reference = batch_render(corpus_paths)
    for jobs in (1, 2, 4):
        sharded = infer(corpus_paths, config=InferenceConfig(jobs=jobs))
        assert sharded.render() == reference
    benchmark(
        lambda: infer(corpus_paths[:40], config=InferenceConfig(jobs=2))
    )


def test_streaming_state_constant_in_corpus_size(corpus_paths):
    """The Section 9 memory claim, made mechanical: learner state for a
    3x larger prefix of the corpus is exactly the same size."""
    small = parallel_evidence(corpus_paths[: len(corpus_paths) // 3], jobs=1)
    large = parallel_evidence(corpus_paths, jobs=1)
    for name, element in large.elements.items():
        if name not in small.elements:
            continue
        small_element = small.elements[name]
        assert len(element.soa.soa.edges) == len(small_element.soa.soa.edges)
        # distinct occurrence profiles may grow a little, but stay tiny
        assert len(element.crx.state.profiles) <= 16


def test_speedup_and_rss_report(corpus_paths, scale, benchmark):
    reference = batch_render(corpus_paths)
    cpus = os.cpu_count() or 1
    table = Table(
        headers=("pipeline", "seconds", "peak RSS delta kB", "DTD identical"),
        title=f"E8: map-reduce inference, {len(corpus_paths)} documents, "
        f"{cpus} CPUs",
    )

    def run(label, fn):
        before = peak_rss_kb()
        result = timed(fn)
        table.add(
            label,
            f"{result.seconds:.3f}",
            str(peak_rss_kb() - before),
            str(result.value == reference),
        )
        assert result.value == reference
        return result.seconds

    def sharded_render(jobs: int) -> str:
        return infer(corpus_paths, config=InferenceConfig(jobs=jobs)).render()

    # What the adaptive scheduler actually picks for this corpus at
    # jobs=4: on a 1-CPU host that is "serial", and the speedup row
    # then measures scheduler overhead (expected ~1.0), not parallelism.
    backend_chosen, _ = choose_backend(len(corpus_paths), jobs=4)
    batch_time = run("batch (materialized evidence)", lambda: batch_render(corpus_paths))
    streaming_time = run("streaming, 1 process", lambda: sharded_render(1))
    parallel_time = run(
        f"map-reduce, jobs=4 (auto: {backend_chosen})",
        lambda: sharded_render(4),
    )
    speedup = batch_time / parallel_time if parallel_time else float("inf")
    table.add("speedup batch/4-jobs", f"{speedup:.2f}x", "", "")
    table.show()
    update_bench_json(
        "parallel",
        {
            "documents": len(corpus_paths),
            "cpus": cpus,
            "backend_chosen": backend_chosen,
            "batch_seconds": batch_time,
            "streaming_1_process_seconds": streaming_time,
            "mapreduce_4_processes_seconds": parallel_time,
            "speedup_batch_over_4_jobs": speedup,
        },
    )
    benchmark(lambda: parallel_evidence(corpus_paths[:30], jobs=1))
    if cpus >= 4:
        assert speedup > 1.3, (
            f"expected >1.3x speedup with 4 jobs on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
    else:
        # The dispatch bugfix this section documents: jobs=4 on a small
        # host must no longer cost 4x (the old 0.25x row) — the cost
        # model degrades it to serial, so it must stay near batch speed.
        # 0.4 tolerates the streaming pipeline's inherent per-document
        # fold cost (the row compares batch vs streaming-serial here)
        # plus shared-runner noise, while still catching the old 4x
        # (0.25) pool-spawn pathology.
        assert backend_chosen == "serial"
        assert speedup > 0.4, (
            f"auto backend chose {backend_chosen!r} but jobs=4 still "
            f"ran {1 / speedup:.2f}x slower than batch"
        )


def test_batch_evidence_memory_scales_with_corpus(corpus_paths):
    """Contrast fixture: batch evidence *does* hold every occurrence
    (as multiplicities), streaming evidence does not."""
    documents = [parse_file(path) for path in corpus_paths]
    batch = extract_evidence(documents)
    total_occurrences = sum(e.occurrences for e in batch.elements.values())
    total_sequences = sum(
        len(e.child_sequences) for e in batch.elements.values()
    )
    assert total_sequences == total_occurrences
    streaming = parallel_evidence(corpus_paths, jobs=1)
    assert streaming.document_count == len(corpus_paths)

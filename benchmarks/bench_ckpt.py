"""Experiment E10 — checkpointed incremental re-runs (``repro.ckpt``).

The service-style workload the checkpoint subsystem targets: a corpus
is inferred once into a ``--state-dir``, then re-inferred after a tiny
edit (1% of documents).  The manifest's content-hash matching should
reuse every untouched shard, so the incremental run pays for hashing
plus one shard's parse instead of the whole corpus:

* **correctness** — the incremental render must be byte-identical to a
  fresh, uncheckpointed run over the edited corpus (asserted
  unconditionally — it is the whole point of the subsystem);
* **speed** — full extraction vs incremental re-run is timed; the CI
  perf gate holds the floor at a 5x speedup with 1% changed documents;
* **accounting** — ``ckpt.*`` reuse counters land in
  ``BENCH_phases.json`` under the ``ckpt`` section.

Shards are deliberately many (``jobs = max(8, documents // 10)``) so the
invalidated slice is small; ``jobs`` is the shard count on every host,
and the *ratio* under test is reuse vs re-parse, not pool throughput.
"""

from __future__ import annotations

import random
import shutil

from perf_record import update_bench_json
from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.evaluation.timing import timed
from repro.obs.recorder import StatsRecorder
from repro.xmlio.dtd import parse_dtd

CORPUS_DTD = (
    "<!ELEMENT r (section+)>"
    "<!ELEMENT section (title, para+, note?)>"
    "<!ELEMENT title (#PCDATA)>"
    "<!ELEMENT para (#PCDATA)>"
    "<!ELEMENT note (#PCDATA)>"
)

BEST_OF = 3


def write_corpus(directory, count: int, seed: int = 10) -> list[str]:
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(seed))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index:04d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def checkpointed_config(state, jobs, resume=False, recorder=None):
    return InferenceConfig(
        state_dir=state,
        resume=resume,
        jobs=jobs,
        recorder=recorder or StatsRecorder(),
        faults={},
    )


def test_incremental_rerun_speedup(tmp_path, scale, benchmark):
    count = 400 if scale.is_full else 200
    jobs = max(8, count // 10)  # many shards => a 1% edit hits few
    paths = write_corpus(tmp_path, count)
    state = tmp_path / "run"

    # Populate the checkpoint (timed as the full-run reference) and
    # edit 1% of the documents in place.
    full_seconds = min(
        timed(
            lambda: _populate(paths, tmp_path / f"cold{i}", jobs)
        ).seconds
        for i in range(BEST_OF)
    )
    infer(paths, config=checkpointed_config(state, jobs)).render()
    edited = max(1, count // 100)
    (tmp_path / "edits").mkdir(exist_ok=True)
    replacements = write_corpus(tmp_path / "edits", edited, seed=4242)
    for victim, replacement in zip(paths[::-1], replacements):
        shutil.copyfile(replacement, victim)

    reference = infer(paths, config=InferenceConfig(faults={})).render()
    recorder = StatsRecorder()
    incremental = infer(
        paths,
        config=checkpointed_config(state, jobs, resume=True, recorder=recorder),
    ).render()
    assert incremental == reference  # byte-identical to a fresh run
    counters = recorder.snapshot()["counters"]
    assert counters.get("ckpt.hit", 0) > 0
    assert counters.get("ckpt.skip", 0) >= count - 3 * max(
        1, count // jobs
    ), "a 1% edit should leave almost every shard reusable"

    def rerun():
        return infer(
            paths, config=checkpointed_config(state, jobs, resume=True)
        ).render()

    incremental_seconds = min(timed(rerun).seconds for _ in range(BEST_OF))
    speedup = (
        full_seconds / incremental_seconds
        if incremental_seconds
        else float("inf")
    )

    table = Table(
        headers=("run", "seconds"),
        title=(
            f"E10: checkpointed incremental re-run, {count} documents, "
            f"{edited} edited (best of {BEST_OF})"
        ),
    )
    table.add("full (cold state dir)", f"{full_seconds:.4f}")
    table.add("incremental (1% changed)", f"{incremental_seconds:.4f}")
    table.add("speedup", f"{speedup:.2f}x")
    table.show()
    update_bench_json(
        "ckpt",
        {
            "documents": count,
            "edited_documents": edited,
            "shards": int(counters.get("shards", 0)),
            "hits": int(counters.get("ckpt.hit", 0)),
            "skipped_documents": int(counters.get("ckpt.skip", 0)),
            "full_seconds": full_seconds,
            "incremental_seconds": incremental_seconds,
            "incremental_speedup": speedup,
        },
    )
    benchmark(rerun)
    assert speedup >= 5.0, (
        f"expected reusing 99% of shards to win at least 5x over a "
        f"full run, got {speedup:.2f}x"
    )


def _populate(paths, state, jobs) -> None:
    infer(paths, config=checkpointed_config(state, jobs)).render()


def test_resume_after_interrupt_costs_only_remaining_shards(tmp_path, scale):
    """Crash recovery accounting: resuming a half-finished run loads the
    committed prefix from disk and parses only the rest."""
    count = 120 if scale.is_full else 60
    paths = write_corpus(tmp_path, count)
    state = tmp_path / "run"
    jobs = 6

    full = infer(paths, config=InferenceConfig(faults={})).render()
    half = paths[: count // 2]
    infer(half, config=checkpointed_config(state, jobs)).render()

    recorder = StatsRecorder()
    resumed = infer(
        paths,
        config=checkpointed_config(state, jobs, resume=True, recorder=recorder),
    ).render()
    assert resumed == full
    counters = recorder.snapshot()["counters"]
    assert counters.get("ckpt.skip", 0) >= count // 2 - count // jobs, (
        "the committed first half should be reloaded, not re-parsed"
    )

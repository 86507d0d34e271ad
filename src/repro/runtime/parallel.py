"""Map-reduce DTD inference over corpus shards (Section 9, scaled out).

Per-element evidence is tiny compared to the corpus: a bag of the
distinct child words with their counts, bounded by
:data:`~repro.learning.evidence.WORD_CAP` before it spills into the
learner states (the SOA triple for iDTD; the arrow relation plus
occurrence profiles for CRX; kore's marked SOA; sire's precedences).
Bags add as multisets and the states merge associatively, so inference
is embarrassingly data-parallel:

* **map** — each worker loads its shard of documents and counts them
  into a :class:`~repro.learning.evidence.StreamingEvidence` (bounded
  memory in shard size; only file paths and XML text cross the process
  boundary on the way in, only the bounded evidence on the way out);
* **reduce** — shard evidence merges in shard order, which reproduces
  the batch evidence exactly (including the bounded text/attribute
  reservoirs, because shards are contiguous chunks of the corpus);
* **finalize** — one :class:`~repro.core.inference.DTDInferencer` pass
  over the merged evidence, learning each distinct word once, for the
  method each element's ladder picks.

The result is byte-identical to batch inference on the same corpus —
property-tested in ``tests/runtime/test_parallel.py``.

One runner, :func:`parallel_evidence`, builds the evidence of every
run: batch, ``--jobs`` and ``--streaming`` runs, in-memory documents,
session appends, degraded runs and checkpointed runs alike.  A batch
run is one serial shard whose bags are kept whole (``bounded=False``),
so it never spills and never holds more than one parsed tree.  Every
run gets the same worker body (paths, XML text and documents all load
through :func:`~repro.runtime.resilience.load_document`), the same
retry ladder (:data:`~repro.runtime.resilience.DEFAULT_RETRY_POLICY`,
optional per-shard deadline, serial reshard in the driver as the last
resort) and the same shard-order merge.  :mod:`repro.ckpt` hands in the
shards it reloaded from disk and an ``on_commit`` hook that persists
each fresh shard.

Instrumentation rides the same rails as the evidence: each pooled
worker runs a private :class:`~repro.obs.recorder.StatsRecorder`, ships
its plain ``snapshot()`` dict back with the evidence, and the driver
folds the snapshots into its own recorder via ``merge_snapshot``
(tagging each with its shard index) — the observability monoid merged
alongside the evidence monoid.

Scheduling is one plan (:func:`choose_backend`).  ``jobs`` is the
shard count on every host, capped at the document count; it is the unit
of checkpointing, retry and fault-plan indexing, so the same ``jobs``
gives the same shards and the same checkpoint files on any machine.
Where the shards run is a cost decision only: the warm process pool
folds them when there is more than one shard, more than one CPU and at
least :data:`PROCESS_CORPUS_FLOOR` documents; otherwise the driver folds
the same shards in order.  The pool gets one task per worker, a
contiguous group of shards, so ``jobs`` above the CPU count costs no
extra pool round trips.  The pool is *warm*: one per interpreter,
lazily created, reused across ``api.infer`` calls and shut down at exit
(:class:`WorkerPool`), so repeated inferences stop paying pool startup.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, replace
from time import sleep
from typing import TypeVar
from collections.abc import Callable, Sequence

from ..contracts import (
    SCANNED_FOLD_STRIDE,
    check_merge_commutative,
    check_scanned_fold,
    contracts_enabled,
)
from ..errors import ReproError, ShardTimeout, UsageError
from ..obs.recorder import NULL_RECORDER, Recorder, Snapshot, StatsRecorder
from ..learning.evidence import StreamingEvidence
from ..xmlio.tree import Document, ElementRecords
from .resilience import (
    CRASH_EXIT_STATUS,
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    FaultPlan,
    InjectedShardTimeout,
    InjectedWorkerCrash,
    QuarantinedDocument,
    ShardRetry,
    document_label,
    load_document,
)

#: Below this many fresh documents the driver folds every shard itself:
#: feeding worker processes costs more than the fold they spread.  On a
#: 2-CPU host (warm pool, ``jobs=2``, the benchmark's medium corpus) the
#: pool took 1.2-1.4x the driver's time at 64 documents, broke even near
#: 300 and saved 3-6% at 500-1000.  The floor stays at 64 until a
#: benchmark workload sits on each side of it.
PROCESS_CORPUS_FLOOR = 64


def choose_backend(
    documents: int, jobs: int | None = None, cpus: int | None = None
) -> tuple[str, int]:
    """The one plan: ``("serial" | "process", shards)`` for ``documents``.

    ``jobs`` is the shard count on every host, capped at the document
    count; ``None`` means the CPU count when the pool runs and one shard
    otherwise.  The warm process pool runs the shards only when there
    is more than one, more than one CPU and at least
    :data:`PROCESS_CORPUS_FLOOR` documents; otherwise the driver folds
    the same shards in order (``"serial"``).  ``jobs`` must be positive
    when given.
    """
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be a positive integer, got {jobs}")
    if cpus is None:
        cpus = os.cpu_count() or 1
    shards = max(1, min(cpus if jobs is None else jobs, documents))
    if shards > 1 and cpus > 1 and documents >= PROCESS_CORPUS_FLOOR:
        return "process", shards
    return "serial", shards if jobs is not None else 1


class WorkerPool:
    """A lazily-created warm process pool, reused across calls.

    The pool is created on first :meth:`executor` call (sized to the
    CPU count), healed transparently if a worker death broke it, and
    shut down at interpreter exit — so a service calling
    :func:`repro.api.infer` repeatedly pays process startup once, not
    per inference.

    Creation, healing and shutdown are serialized on an internal lock:
    the serve daemon's worker threads all funnel into the same warm
    pool, and an unlocked lazy create would let two first-callers race
    to build executors (one of which would leak, its workers never
    shut down).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None

    @property
    def live(self) -> bool:
        """Whether a usable executor currently exists."""
        return self._executor is not None and not getattr(
            self._executor, "_broken", False
        )

    def executor(self) -> ProcessPoolExecutor:
        """The warm executor, creating (or healing) it if necessary.

        Workers spawn lazily up to the CPU count, so sizing once at
        creation covers every later shard plan.
        """
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=os.cpu_count() or 1
                )
            return self._executor

    def shutdown(self) -> None:
        """Shut the executor down; the next use lazily recreates it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: The process-wide warm pool every pooled shard runs on.
WARM_POOL = WorkerPool()


def shutdown_warm_pools() -> None:
    """Shut down the warm pool (registered to run at exit).

    Safe to call repeatedly; the pool recreates lazily on next use.
    """
    WARM_POOL.shutdown()


atexit.register(shutdown_warm_pools)


_ItemT = TypeVar("_ItemT")


def shard_paths(paths: Sequence[_ItemT], shards: int) -> list[list[_ItemT]]:
    """Split ``paths`` into at most ``shards`` contiguous chunks.

    Chunks are contiguous (not round-robin) and returned in corpus
    order so that merging shard evidence left-to-right visits values in
    the same order as a sequential pass — the property that keeps the
    capped text/attribute reservoirs identical to the batch path.
    """
    paths = list(paths)
    if not paths:
        return []
    shards = max(1, min(shards, len(paths)))
    base, extra = divmod(len(paths), shards)
    chunks: list[list[_ItemT]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(paths[start : start + size])
        start += size
    return chunks


@dataclass(frozen=True)
class Shard:
    """A contiguous run of corpus items starting at position ``start``.

    A fresh shard carries only its ``items``.  A folded one — a shard
    the runner just extracted, or one :mod:`repro.ckpt` reloaded from
    disk — also carries its ``evidence`` and the documents it
    ``quarantined``.
    """

    start: int
    items: tuple[Document | str, ...]
    evidence: StreamingEvidence | None = None
    quarantined: tuple[QuarantinedDocument, ...] = ()


@dataclass(frozen=True)
class _ShardTask:
    """One attempt at one shard, picklable for process pools."""

    index: int
    shard: Shard
    first: int  # fault-plan position of the shard's first document
    faults: FaultPlan | None
    on_error: str
    bounded: bool
    recorded: bool
    crash: bool
    timeout: bool


#: A folded shard: its evidence, its quarantines, and the stats
#: snapshot of the pool worker that folded it (None in the driver).
_Result = tuple[StreamingEvidence, list[QuarantinedDocument], Snapshot | None]


def _extract_shard(task: _ShardTask, recorder: Recorder) -> _Result:
    """The worker body: load and fold one shard under the error policy.

    An injected crash raises :class:`InjectedWorkerCrash` here, in the
    driver (pool workers take the real exit first, in
    :func:`_pooled_shard`), so both reach the same retry path.
    Quarantines are counted here, on the recorder the shard runs
    under; the driver enforces the corpus-wide cap.
    """
    if task.crash:
        raise InjectedWorkerCrash(f"injected fault: worker crash in shard {task.index}")
    if task.timeout:
        raise InjectedShardTimeout(f"injected fault: deadline breach in shard {task.index}")
    evidence = StreamingEvidence(bounded=task.bounded)
    skipped = DegradationReport()
    checking = contracts_enabled()
    for position, item in enumerate(task.shard.items, task.first):
        loaded = load_document(
            item,
            position,
            plan=task.faults,
            on_error=task.on_error,
            report=skipped,
            recorder=recorder,
        )
        if loaded is None:
            continue
        with recorder.span("extract", file=document_label(item, position)):
            if isinstance(loaded, Document):
                evidence.add_document(loaded)
            else:
                evidence.add_records(loaded)
        if (
            checking
            and position % SCANNED_FOLD_STRIDE == 0
            and isinstance(loaded, ElementRecords)
            and isinstance(item, str)
        ):
            check_scanned_fold(loaded, item, task.bounded)
    return evidence, skipped.quarantined, None


def _pooled_shard(task: _ShardTask) -> _Result:
    """:func:`_extract_shard` in a pool worker, under a private recorder.

    Module-level (not a closure) so it pickles into process pools; only
    the recorder's plain-dict snapshot travels back.  An injected crash
    takes the real exit (``os._exit``), so the pool genuinely breaks.
    """
    if task.crash:
        os._exit(CRASH_EXIT_STATUS)
    if not task.recorded:
        return _extract_shard(task, NULL_RECORDER)
    recorder = StatsRecorder()
    with recorder.span("shard", index=task.index, files=len(task.shard.items)):
        evidence, quarantined, _ = _extract_shard(task, recorder)
    return evidence, quarantined, recorder.snapshot()


#: One shard's slot in a pool task's outcomes: its result or its error.
_Outcome = _Result | ReproError


def _pooled_shards(tasks: list[_ShardTask]) -> list[_Outcome]:
    """Fold a contiguous group of shards in one pool worker, in order.

    The pool gets one task per worker, not one per shard, so ``jobs``
    above the CPU count costs no extra pool round trips.  A shard whose
    fold raises a :class:`~repro.errors.ReproError` (an injected fault
    or a data error) returns it in its slot, so the driver handles it
    for that shard alone, in shard order, as if the shard ran by itself.
    """
    outcomes: list[_Outcome] = []
    for task in tasks:
        try:
            outcomes.append(_pooled_shard(task))
        except ReproError as exc:
            outcomes.append(exc)
    return outcomes


def parallel_evidence(
    paths: Sequence[Document | str],
    jobs: int | None = None,
    recorder: Recorder = NULL_RECORDER,
    *,
    reuse: Sequence[Shard] = (),
    index_offset: int = 0,
    faults: FaultPlan | None = None,
    on_error: str = "strict",
    max_quarantine: int | None = None,
    deadline: float | None = None,
    report: DegradationReport | None = None,
    on_commit: Callable[[int, Shard], None] | None = None,
    bounded: bool = True,
) -> StreamingEvidence:
    """The shard runner: extract streaming evidence from ``paths``.

    ``paths`` holds file paths, XML text or parsed documents (the last
    only with ``jobs=1``: documents never cross a process boundary).
    ``bounded`` caps each shard's bags at
    :data:`~repro.learning.evidence.WORD_CAP`; a batch run passes
    ``jobs=1, bounded=False``, one serial shard with whole bags.

    Planning.  ``reuse`` holds already-folded shards (a checkpoint's
    reloaded states); the runner shards the positions they leave
    uncovered.  :func:`choose_backend` plans that fresh work once: the
    shard count and whether the warm process pool or the driver folds
    the shards.  Each uncovered run of positions gets shards in
    proportion to its share of the work, so a plain run is simply
    contiguous sharding.  ``jobs`` must be positive when given.

    Dispatch.  Serial shards run in the driver.  Pooled ones go to the
    warm process pool as one task per worker, a contiguous group of
    shards; ``deadline`` bounds the wait per pooled shard (the driver's
    shards have none).  A failed shard attempt — a dead worker, an
    exceeded ``deadline``, an injected fault from ``faults`` — is
    retried alone under :data:`DEFAULT_RETRY_POLICY`; a shard that
    exhausts it is re-run in the driver, except that a strict run whose
    shard keeps timing out raises :class:`~repro.errors.ShardTimeout`.
    ``on_error="skip"`` quarantines unreadable documents (at most
    ``max_quarantine``).  Retries and quarantines land in ``report``;
    fault-plan document positions are ``index_offset`` plus the position
    in ``paths``, and fault-plan shard indexes count fresh shards.

    Commit.  Shards merge strictly in corpus order, so retries change
    only *when* a shard's evidence lands, never the result.  As each
    fresh shard lands, ``on_commit(index, shard)`` fires with its
    dispatch index and the folded shard, in that same order.

    With a live ``recorder``, where the shards ran is counted under
    ``parallel.backend.<serial|process>``, each pooled worker records
    into its own :class:`StatsRecorder`, and the per-shard snapshots
    merge into ``recorder`` in shard order, tagged with their shard
    index.
    """
    items = list(paths)
    if on_error not in ("strict", "skip"):
        raise UsageError(f"unknown on_error mode {on_error!r}: expected 'strict' or 'skip'")
    reuse = sorted(reuse, key=lambda shard: shard.start)
    gaps: list[tuple[int, int]] = []
    covered = 0
    for shard in reuse:
        if shard.start > covered:
            gaps.append((covered, shard.start))
        covered = shard.start + len(shard.items)
    if covered < len(items):
        gaps.append((covered, len(items)))
    work = sum(stop - start for start, stop in gaps)
    chosen, shard_count = choose_backend(work, jobs)
    if recorder.enabled:
        recorder.count(f"parallel.backend.{chosen}")
    fresh: list[Shard] = []
    for start, stop in gaps:
        # Shards in proportion to this run's share of the work, rounded
        # up so no run gets none; without reuse this is plain sharding.
        share = ((stop - start) * shard_count + work - 1) // work
        offset = start
        for chunk in shard_paths(items[start:stop], share):
            fresh.append(Shard(offset, tuple(chunk)))
            offset += len(chunk)

    if report is None:
        report = DegradationReport()
    pooled = chosen == "process"
    attempts = [0] * len(fresh)
    failures: dict[int, str] = {}  # first failure reason per shard

    def task(index: int, faulty: bool = True) -> _ShardTask:
        attempt = attempts[index]
        return _ShardTask(
            index=index,
            shard=fresh[index],
            first=index_offset + fresh[index].start,
            faults=faults,
            on_error=on_error,
            bounded=bounded,
            recorded=recorder.enabled,
            crash=faulty and faults is not None and faults.crashes(index, attempt),
            timeout=faulty and faults is not None and faults.times_out(index, attempt),
        )

    # Each fresh shard's pending pool task, its slot in that task's
    # outcomes and the task's deadline (``deadline`` per shard in it);
    # serial shards (None) run lazily in the driver, when gathered.
    futures: dict[int, tuple[Future[list[_Outcome]], int, float | None] | None] = {}

    def submit(*indexes: int) -> None:
        if not pooled:
            futures.update(dict.fromkeys(indexes))
            return
        tasks = [task(index) for index in indexes]
        future = WARM_POOL.executor().submit(_pooled_shards, tasks)
        timeout = None if deadline is None else deadline * len(indexes)
        for slot, index in enumerate(indexes):
            futures[index] = (future, slot, timeout)

    def settle(index: int, resharded: bool = False) -> None:
        if attempts[index]:
            retried = ShardRetry(index, attempts[index] + 1, failures[index], resharded)
            report.add_retry(retried, recorder)

    def gather(index: int) -> _Result:
        while True:
            # Popped, so a merged group's results are not kept alive.
            pending = futures.pop(index)
            try:
                if pending is None:
                    result = _extract_shard(task(index), recorder)
                else:
                    future, slot, timeout = pending
                    outcome = future.result(timeout=timeout)[slot]
                    if isinstance(outcome, ReproError):
                        raise outcome
                    result = outcome
                settle(index)
                return result
            except (InjectedWorkerCrash, InjectedShardTimeout) as exc:
                reason = "worker-crash" if isinstance(exc, InjectedWorkerCrash) else "timeout"
            except ReproError:
                raise  # data/engine errors are not transient: propagate
            except BrokenExecutor:
                # A crash injected into *another* shard broke the pool
                # under this one: resubmit it without charging it an
                # attempt, so its own fault schedule is undisturbed.
                if (
                    faults is not None
                    and faults.worker_crashes
                    and not faults.crashes(index, attempts[index])
                ):
                    if recorder.enabled:
                        recorder.count("resilience.collateral_resubmits")
                    submit(index)
                    continue
                reason = "worker-crash"
            except FuturesTimeout:
                # A hung task cannot be cancelled: deadlines are
                # best-effort, the retry queues behind it and the serial
                # reshard below guarantees progress.
                reason = "timeout"
            failures.setdefault(index, reason)
            attempts[index] += 1
            if recorder.enabled:
                recorder.count(f"resilience.failures.{reason}")
            if attempts[index] < DEFAULT_RETRY_POLICY.max_attempts:
                delay = DEFAULT_RETRY_POLICY.delay(index, attempts[index])
                if delay > 0:
                    sleep(delay)
                submit(index)
                continue
            if on_error != "skip" and failures[index] == "timeout":
                settle(index)
                error = ShardTimeout(
                    f"shard {index} exceeded its deadline after {attempts[index]} "
                    f"attempts (deadline={deadline}); rerun with on_error='skip' "
                    "to degrade instead"
                )
                # The report so far travels with the error, so the CLI
                # and daemon can surface the partial picture.
                error.degradation = report
                raise error
            # Last resort: the shard's documents, in the driver, where
            # worker-level faults (crash/timeout) no longer apply.
            if recorder.enabled:
                recorder.count("resilience.resharded_serial")
            result = _extract_shard(task(index, faulty=False), recorder)
            settle(index, resharded=True)
            return result

    # One pool task per worker, each a contiguous group of shards.
    workers = (os.cpu_count() or 1) if pooled else len(fresh)
    for group in shard_paths(range(len(fresh)), workers):
        submit(*group)
    merged: StreamingEvidence | None = None
    plan = sorted([*reuse, *fresh], key=lambda shard: shard.start)
    dispatched = 0
    for position, shard in enumerate(plan):
        index: int | None = None
        counter: Recorder = NULL_RECORDER  # fresh quarantines counted where loaded
        if shard.evidence is not None:
            evidence, quarantined, counter = shard.evidence, shard.quarantined, recorder
        else:
            index, dispatched = dispatched, dispatched + 1
            evidence, loaded, snapshot = gather(index)
            quarantined = tuple(loaded)
            if snapshot is not None and isinstance(recorder, StatsRecorder):
                recorder.merge_snapshot(snapshot, shard=index)
                recorder.count("shards")
        for document in quarantined:
            # The cap is enforced here: corpus-wide, in shard order.
            report.add_quarantine(
                replace(document, shard=position), limit=max_quarantine, recorder=counter
            )
        if index is not None and on_commit is not None:
            on_commit(index, replace(shard, evidence=evidence, quarantined=quarantined))
        if merged is None:
            merged = evidence  # the accumulator: merging into empty would copy it
            continue
        if contracts_enabled():
            check_merge_commutative(merged, evidence)
        merged.merge(evidence)
    return merged if merged is not None else StreamingEvidence(bounded=bounded)


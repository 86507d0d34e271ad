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
  memory in shard size; only file paths cross the process boundary on
  the way in, only the bounded evidence on the way out);
* **reduce** — shard evidence merges in shard order, which reproduces
  the batch evidence exactly (including the bounded text/attribute
  reservoirs, because shards are contiguous chunks of the corpus);
* **finalize** — one :class:`~repro.core.inference.DTDInferencer` pass
  over the merged evidence, learning each distinct word once, for the
  method each element's ladder picks.

The result is byte-identical to batch inference on the same corpus —
property-tested in ``tests/runtime/test_parallel.py``.

One runner, :func:`parallel_evidence`, dispatches every sharded
extraction: ``--jobs`` and ``--streaming`` runs, in-memory documents,
session appends, degraded runs and checkpointed runs alike.  Every run
gets the same worker body (documents load through
:func:`~repro.runtime.resilience.load_document`), the same retry ladder
(:class:`~repro.runtime.resilience.RetryPolicy`, optional per-shard
deadline, serial reshard in the driver as the last resort) and the same
shard-order merge.  :mod:`repro.ckpt` hands in the shards it reloaded
from disk and an ``on_commit`` hook that persists each fresh shard.

Instrumentation rides the same rails as the evidence: each pooled
worker runs a private :class:`~repro.obs.recorder.StatsRecorder`, ships
its plain ``snapshot()`` dict back with the evidence, and the driver
folds the snapshots into its own recorder via ``merge_snapshot``
(tagging each with its shard index) — the observability monoid merged
alongside the evidence monoid.

Scheduling is adaptive: ``backend="auto"`` (the default) picks
``serial``/``thread``/``process`` from the corpus size and
``os.cpu_count()`` (:func:`choose_backend`), clamps the shard count to
the CPUs, and falls back to serial when shards would hold fewer than
:data:`MIN_DOCS_PER_SHARD` documents — on small corpora pool dispatch
costs more than it saves.  Worker pools are *warm*: one process pool
and one thread pool per interpreter, lazily created, reused across
``api.infer`` calls and shut down at exit (:class:`WorkerPool`), so
repeated inferences stop paying pool startup.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, replace
from time import sleep
from typing import TypeVar
from collections.abc import Callable, Iterable, Sequence

from ..contracts import check_merge_commutative, contracts_enabled
from ..core.inference import DTDInferencer, Method
from ..errors import (
    InternalError,
    ReproError,
    ShardTimeout,
    UsageError,
    legacy_entry_point,
)
from ..obs.recorder import NULL_RECORDER, Recorder, Snapshot, StatsRecorder
from ..xmlio.dtd import Dtd
from ..learning.evidence import StreamingEvidence
from ..xmlio.parser import parse_file
from ..xmlio.tree import Document
from .resilience import (
    CRASH_EXIT_STATUS,
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    FaultPlan,
    InjectedShardTimeout,
    InjectedWorkerCrash,
    QuarantinedDocument,
    RetryPolicy,
    ShardRetry,
    load_document,
)

Backend = str  # "auto" | "process" | "thread" | "serial"

#: Every value ``backend=`` accepts, public for CLI/config validation.
BACKENDS = ("auto", "process", "thread", "serial")

#: The minimum-work threshold: below this many documents per shard the
#: adaptive scheduler runs serial — dispatch and state transfer cost
#: more than the parallelism recovers on corpora this small.
MIN_DOCS_PER_SHARD = 8

#: Below this many documents the adaptive scheduler prefers the thread
#: pool: threads overlap file I/O during parsing at near-zero startup
#: cost, while a process pool's spawn/transfer overhead needs a larger
#: corpus to amortize (see ``benchmarks/bench_cache.py``).
PROCESS_CORPUS_FLOOR = 64


def choose_backend(
    documents: int, jobs: int | None = None, cpus: int | None = None
) -> tuple[Backend, int]:
    """The cost model: pick ``(backend, shards)`` for ``documents``.

    ``jobs`` caps the shard count (``None`` means "up to the CPU
    count"); the result is additionally clamped to ``cpus`` — more
    workers than CPUs only adds scheduling overhead — and to the
    :data:`MIN_DOCS_PER_SHARD` work floor.  One CPU, one shard, or a
    tiny corpus all collapse to ``("serial", 1)``.
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    requested = jobs if jobs is not None else cpus
    shards = max(1, min(requested, cpus, documents // MIN_DOCS_PER_SHARD))
    if cpus <= 1 or shards <= 1:
        return "serial", 1
    if documents < PROCESS_CORPUS_FLOOR:
        return "thread", shards
    return "process", shards


def _resolve_backend(
    documents: int, jobs: int | None, backend: Backend
) -> tuple[Backend, int]:
    """Validate ``jobs``/``backend`` and pick ``(backend, shards)``.

    ``"auto"`` runs the :func:`choose_backend` cost model; an explicit
    pool kind takes ``jobs`` shards (the CPU count when ``None``),
    still degrading to serial at one shard or one document.
    """
    if backend not in BACKENDS:
        raise UsageError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be a positive integer, got {jobs}")
    cpus = os.cpu_count() or 1
    if backend == "auto":
        return choose_backend(documents, jobs, cpus)
    shards = 1 if backend == "serial" else (jobs if jobs is not None else cpus)
    if shards <= 1 or documents <= 1:
        return "serial", 1
    return backend, shards


class WorkerPool:
    """A lazily-created warm executor of one kind, reused across calls.

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

    def __init__(self, kind: Backend) -> None:
        if kind not in ("process", "thread"):
            raise UsageError(
                f"warm pools exist for 'process' and 'thread', not {kind!r}"
            )
        self.kind = kind
        self._lock = threading.Lock()
        self._executor: Executor | None = None

    @property
    def live(self) -> bool:
        """Whether a usable executor currently exists."""
        return self._executor is not None and not getattr(
            self._executor, "_broken", False
        )

    def executor(self, max_workers: int | None = None) -> Executor:
        """The warm executor, creating (or healing) it if necessary.

        ``max_workers`` only matters at creation time; both executor
        kinds spawn workers lazily up to the bound, so sizing once at
        creation covers every later shard plan.  The default sizing is
        the CPU count for process pools and the stdlib's I/O-friendly
        ``min(32, cpus + 4)`` for thread pools.
        """
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self._executor is None:
                cpus = os.cpu_count() or 1
                if self.kind == "thread":
                    workers = (
                        max_workers if max_workers else min(32, cpus + 4)
                    )
                    self._executor = ThreadPoolExecutor(max_workers=workers)
                else:
                    workers = max_workers if max_workers else cpus
                    self._executor = ProcessPoolExecutor(max_workers=workers)
            return self._executor

    def shutdown(self) -> None:
        """Shut the executor down; the next use lazily recreates it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_WARM_POOLS: dict[str, WorkerPool] = {
    "process": WorkerPool("process"),
    "thread": WorkerPool("thread"),
}


def warm_pool(kind: Backend) -> WorkerPool:
    """The process-wide warm pool for ``kind`` (``process``/``thread``).

    Every caller resolves ``kind`` through validated backend selection
    first, so a miss here is runtime bookkeeping gone wrong (a shard
    scheduled against a pool kind that was never provisioned), not a
    user mistake — hence :class:`~repro.errors.InternalError`.
    """
    try:
        return _WARM_POOLS[kind]
    except KeyError:
        raise InternalError(
            f"no warm pool provisioned for backend {kind!r} (pools exist "
            f"for: {', '.join(sorted(_WARM_POOLS))}); backend selection "
            "should have rejected this kind before dispatch"
        ) from None


def shutdown_warm_pools() -> None:
    """Shut down every warm pool (registered to run at exit).

    Safe to call repeatedly; pools recreate lazily on next use.
    """
    for pool in _WARM_POOLS.values():
        pool.shutdown()


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


def extract_from_paths(
    paths: Iterable[str], recorder: Recorder = NULL_RECORDER
) -> StreamingEvidence:
    """Parse each file and fold it into streaming evidence, serially.

    Documents are parsed one at a time and released immediately; the
    footprint is one document plus the bounded evidence.
    """
    evidence = StreamingEvidence()
    for path in paths:
        document = parse_file(path, recorder)
        with recorder.span("extract", file=str(path)):
            evidence.add_document(document)
    return evidence


def merge_evidence(parts: Iterable[StreamingEvidence]) -> StreamingEvidence:
    """The reduce step: fold shard evidence together, left to right."""
    merged = StreamingEvidence()
    for part in parts:
        if contracts_enabled():
            check_merge_commutative(merged, part)
        merged.merge(part)
    return merged


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
    backend: Backend
    recorded: bool
    crash: bool
    timeout: bool


#: A folded shard: its evidence, its quarantines, and the stats
#: snapshot of the pool worker that folded it (None in the driver).
_Result = tuple[StreamingEvidence, list[QuarantinedDocument], Snapshot | None]


def _extract_shard(task: _ShardTask, recorder: Recorder) -> _Result:
    """The worker body: load and fold one shard under the error policy.

    Injected crashes take the real exit (``os._exit``) in process
    workers so the pool genuinely breaks; other backends raise
    :class:`InjectedWorkerCrash` so the driver exercises the same retry
    path.  Quarantines are counted here, on the recorder the shard runs
    under; the driver enforces the corpus-wide cap.
    """
    if task.crash:
        if task.backend == "process":
            os._exit(CRASH_EXIT_STATUS)
        raise InjectedWorkerCrash(f"injected fault: worker crash in shard {task.index}")
    if task.timeout:
        raise InjectedShardTimeout(f"injected fault: deadline breach in shard {task.index}")
    evidence = StreamingEvidence()
    skipped = DegradationReport()
    for offset, item in enumerate(task.shard.items):
        document = load_document(
            item,
            task.first + offset,
            plan=task.faults,
            on_error=task.on_error,
            report=skipped,
            recorder=recorder,
        )
        if document is not None:
            with recorder.span("extract", file=item if isinstance(item, str) else None):
                evidence.add_document(document)
    return evidence, skipped.quarantined, None


def _pooled_shard(task: _ShardTask) -> _Result:
    """:func:`_extract_shard` in a pool worker, under a private recorder.

    Module-level (not a closure) so it pickles into process pools; only
    the recorder's plain-dict snapshot travels back.
    """
    if not task.recorded:
        return _extract_shard(task, NULL_RECORDER)
    recorder = StatsRecorder()
    with recorder.span("shard", index=task.index, files=len(task.shard.items)):
        evidence, quarantined, _ = _extract_shard(task, recorder)
    return evidence, quarantined, recorder.snapshot()


def parallel_evidence(
    paths: Sequence[Document | str],
    jobs: int | None = None,
    backend: Backend = "auto",
    recorder: Recorder = NULL_RECORDER,
    *,
    reuse: Sequence[Shard] = (),
    index_offset: int = 0,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "strict",
    max_quarantine: int | None = None,
    deadline: float | None = None,
    report: DegradationReport | None = None,
    on_commit: Callable[[int, Shard], None] | None = None,
) -> StreamingEvidence:
    """The shard runner: extract streaming evidence from ``paths``.

    ``paths`` holds file paths or parsed documents (the latter only on
    the serial backend: documents never cross a process boundary).

    Planning.  ``reuse`` holds already-folded shards (a checkpoint's
    reloaded states); the runner shards the positions they leave
    uncovered.  The backend is resolved once, from that fresh work:
    ``backend="auto"`` runs the :func:`choose_backend` cost model, an
    explicit ``backend`` skips it (``jobs=None`` then means the CPU
    count, and a single job or single file still degrades to serial).
    Each uncovered run of positions gets shards in proportion to its
    share of the work, so a plain run is simply contiguous sharding.
    ``jobs`` must be positive when given.

    Dispatch.  Serial shards run in the driver, pooled ones on the warm
    pools.  A failed shard attempt — a dead worker, an exceeded
    ``deadline``, an injected fault from ``faults`` — is retried under
    ``retry`` (default :data:`DEFAULT_RETRY_POLICY`); a shard that
    exhausts it is re-run in the driver, except that a strict run
    whose shard keeps timing out raises
    :class:`~repro.errors.ShardTimeout`.  ``on_error="skip"``
    quarantines unreadable documents (at most ``max_quarantine``).
    Retries and quarantines land in ``report``; fault-plan document
    positions are ``index_offset`` plus the position in ``paths``, and
    fault-plan shard indexes count fresh shards.

    Commit.  Shards merge strictly in corpus order, so retries change
    only *when* a shard's evidence lands, never the result.  As each
    fresh shard lands, ``on_commit(index, shard)`` fires with its
    dispatch index and the folded shard, in that same order.

    With a live ``recorder``, the chosen backend is counted under
    ``parallel.backend.<name>``, each pooled worker records into its
    own :class:`StatsRecorder`, and the per-shard snapshots merge into
    ``recorder`` in shard order, tagged with their shard index.
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
    chosen, shard_count = _resolve_backend(work, jobs, backend)
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

    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    if report is None:
        report = DegradationReport()
    pool = None if chosen == "serial" else warm_pool(chosen)
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
            backend=chosen,
            recorded=recorder.enabled,
            crash=faulty and faults is not None and faults.crashes(index, attempt),
            timeout=faulty and faults is not None and faults.times_out(index, attempt),
        )

    def submit(index: int) -> Future[_Result] | None:
        # Serial shards run lazily in the driver, when gathered.
        if pool is None:
            return None
        return pool.executor().submit(_pooled_shard, task(index))

    def settle(index: int, resharded: bool = False) -> None:
        if attempts[index]:
            retried = ShardRetry(index, attempts[index] + 1, failures[index], resharded)
            report.add_retry(retried, recorder)

    def gather(index: int) -> _Result:
        while True:
            # Popped, so a merged shard's result is not kept alive.
            future = futures.pop(index)
            try:
                if future is None:
                    result = _extract_shard(task(index), recorder)
                else:
                    result = future.result(timeout=deadline)
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
                    futures[index] = submit(index)
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
            if attempts[index] < policy.max_attempts:
                delay = policy.delay(index, attempts[index])
                if delay > 0:
                    sleep(delay)
                futures[index] = submit(index)
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

    futures = {index: submit(index) for index in range(len(fresh))}
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
    return merged if merged is not None else StreamingEvidence()


def infer_parallel(
    paths: Sequence[str],
    jobs: int | None = None,
    method: Method = "auto",
    backend: Backend = "auto",
    inferencer: DTDInferencer | None = None,
) -> Dtd:
    """Deprecated: use :func:`repro.api.infer` with
    ``InferenceConfig(streaming=True, jobs=N)``.

    Produces the same DTD as batch inference over the parsed corpus,
    with peak memory bounded by learner-state size and wall-clock
    divided across ``jobs`` workers.
    """
    legacy_entry_point("infer_parallel", "repro.api.infer", stacklevel=3)
    if inferencer is None:
        inferencer = DTDInferencer(method=method)
    evidence = parallel_evidence(
        paths, jobs=jobs, backend=backend, recorder=inferencer.recorder
    )
    return inferencer._finalize(evidence)

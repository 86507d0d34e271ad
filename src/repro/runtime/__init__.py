"""Sharded, data-parallel corpus processing.

* :func:`parallel_evidence` — the one shard runner: plan contiguous
  shards, extract each in the driver or on the warm process pool, retry
  failed shards, merge the shard evidence in corpus order (and
  per-shard stats snapshots when a recorder is live).  Every run goes
  through it — batch (one serial shard), ``--jobs``, in-memory
  documents, session appends,
  degraded runs and :mod:`repro.ckpt`'s checkpointed runs, which add
  reloaded shards and a commit hook.
* :func:`choose_backend` — the one shard plan: ``jobs`` shards on every
  host (the CPU count when the pool runs and ``jobs`` is unset), folded
  on the process pool for large enough corpora on multi-CPU hosts and
  in the driver otherwise.
* :class:`WorkerPool` / :data:`WARM_POOL` — the process-wide warm
  process pool, lazily created, reused across ``api.infer`` calls and
  shut down at exit (:func:`shutdown_warm_pools`).
* :class:`ContentModelCache` — the fingerprint-keyed LRU memoizing the
  per-element finalize step (see :mod:`repro.runtime.cache`).
* :class:`FaultPlan` / :class:`RetryPolicy` / :class:`DegradationReport`
  — the fault-tolerance policies the runner applies: per-shard
  deadlines and retries, worker-crash recovery, document quarantine,
  deterministic fault injection (see :mod:`repro.runtime.resilience`).
"""

from .cache import (
    DEFAULT_CACHE_SIZE,
    ContentModelCache,
    global_content_model_cache,
    reset_global_content_model_cache,
)
from .parallel import (
    PROCESS_CORPUS_FLOOR,
    WARM_POOL,
    WorkerPool,
    choose_backend,
    parallel_evidence,
    shard_paths,
    shutdown_warm_pools,
)
from .resilience import (
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    ElementFallback,
    FaultPlan,
    QuarantinedDocument,
    RetryPolicy,
    ShardRetry,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_RETRY_POLICY",
    "PROCESS_CORPUS_FLOOR",
    "WARM_POOL",
    "ContentModelCache",
    "DegradationReport",
    "ElementFallback",
    "FaultPlan",
    "QuarantinedDocument",
    "RetryPolicy",
    "ShardRetry",
    "WorkerPool",
    "choose_backend",
    "global_content_model_cache",
    "parallel_evidence",
    "reset_global_content_model_cache",
    "shard_paths",
    "shutdown_warm_pools",
]

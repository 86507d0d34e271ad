"""Execution backends: sharded, data-parallel corpus processing.

* :func:`parallel_evidence` — the one shard runner: plan contiguous
  shards, extract each on the serial driver or a warm pool, retry
  failed shards, merge the shard evidence in corpus order (and
  per-shard stats snapshots when a recorder is live).  Every run goes
  through it — batch (one serial shard with whole bags),
  ``--jobs``/``--streaming``, in-memory documents, session appends,
  degraded runs and :mod:`repro.ckpt`'s checkpointed runs, which add
  reloaded shards and a commit hook.
* :func:`choose_backend` — the adaptive cost model behind
  ``backend="auto"``: serial/thread/process from corpus size and the
  CPU count, shards clamped to the CPUs.
* :class:`WorkerPool` / :func:`warm_pool` — process-wide warm executor
  pools, lazily created, reused across ``api.infer`` calls and shut
  down at exit (:func:`shutdown_warm_pools`).
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
    BACKENDS,
    MIN_DOCS_PER_SHARD,
    PROCESS_CORPUS_FLOOR,
    WorkerPool,
    choose_backend,
    parallel_evidence,
    shard_paths,
    shutdown_warm_pools,
    warm_pool,
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
    "BACKENDS",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_RETRY_POLICY",
    "MIN_DOCS_PER_SHARD",
    "PROCESS_CORPUS_FLOOR",
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
    "warm_pool",
]

"""Sharded, data-parallel corpus processing.

* :mod:`repro.runtime.parallel` — ``parallel_evidence``, the one shard
  runner: plan contiguous shards, extract each in the driver or on the
  warm process pool, retry failed shards, merge the shard evidence in
  corpus order (and per-shard stats snapshots when a recorder is live).
  Every run goes through it — batch (one serial shard), ``--jobs``,
  in-memory documents, session appends, degraded runs and
  :mod:`repro.ckpt`'s checkpointed runs, which add reloaded shards and
  a commit hook.  Its ``choose_backend`` is the one shard plan:
  ``jobs`` shards on every host (the CPU count when the pool runs and
  ``jobs`` is unset), folded on the process pool for large enough
  corpora on multi-CPU hosts and in the driver otherwise.
  ``WorkerPool`` / ``WARM_POOL`` is the process-wide warm process pool,
  lazily created, reused across ``api.infer`` calls and shut down at
  exit (``shutdown_warm_pools``).
* :mod:`repro.runtime.cache` — ``ContentModelCache``, the
  fingerprint-keyed LRU memoizing the per-element finalize step.
* :mod:`repro.runtime.resilience` — ``FaultPlan``, ``retry_delay`` and
  ``DegradationReport``, the fault-tolerance policies the runner
  applies: per-shard deadlines and retries, worker-crash recovery,
  document quarantine, deterministic fault injection.
"""

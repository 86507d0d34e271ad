"""Checkpointed, resumable, incremental corpus runs.

This package persists the streaming inference state
(:class:`repro.learning.evidence.StreamingEvidence`, one per corpus
shard) to a versioned on-disk *run directory* so that

* an interrupted run (``--resume --state-dir RUN/``) continues from the
  last durably committed shard and produces output byte-identical to an
  uninterrupted run, and
* a re-run over a modified corpus re-parses only the documents whose
  content hash changed (plus the shards disturbed by additions or
  deletions), reusing every untouched shard's cached learner state.

Layout of a run directory::

    RUN/
      lock            advisory lock ({pid, host}), held for the run
      manifest.json   shard plan: per-document sha256 -> state file
      shards/
        <digest16>.state   canonical-JSON evidence, checksummed header

All writes are crash-safe (write-tmp + fsync + atomic rename, see
:mod:`repro.fsio`); a shard state file is referenced by the manifest
only after the state bytes themselves are durable, so a kill at any
point leaves a consistent prefix of the run on disk.

The modules: :mod:`repro.ckpt.runner` (``checkpointed_evidence``, which
runs the checkpointed pass), :mod:`repro.ckpt.manifest` (the shard plan),
:mod:`repro.ckpt.codec` (the state file format) and
:mod:`repro.ckpt.lock` (the run lock).
"""

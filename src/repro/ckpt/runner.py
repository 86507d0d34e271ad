"""The checkpointed extraction loop: plan, reuse, dispatch, commit.

:func:`checkpointed_evidence` is :func:`repro.runtime.parallel.parallel_evidence`
plus a run directory: it harvests previous progress from the directory
and persists new progress to it.

The plan
--------

1. Hash every corpus document (path + content sha256).
2. Load the previous manifest, if resuming.  Walk its shards in order
   and greedily match each one's exact document-hash sequence as a
   contiguous run in the *new* corpus, never moving backwards.  A
   matched shard's cached state is loaded and verified; anything else —
   unmatched, corrupt, truncated — is dropped and its documents fall
   through to fresh parsing.
3. The shard runner takes the reused shards, shards the positions they
   leave uncovered with its usual shard plan, and runs them under the
   same retry/quarantine policy.
4. As each fresh shard's evidence lands (in corpus order), the runner's
   commit hook persists it durably: state bytes first (write-tmp +
   fsync + rename), then the manifest naming them and the documents
   the shard quarantined.  A kill at any instant leaves a manifest
   whose every entry points at a complete state file.
5. The runner merges reused and fresh shards in corpus position order,
   which is exactly the order a serial pass would fold documents, so
   the result is byte-identical to an uninterrupted, uncached run
   (reservoir truncation and quarantines included).

Matching on content hashes (not paths) means renames cost nothing, and
a changed document invalidates only the shard that contained it.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import suppress
from collections.abc import Mapping, Sequence

from ..contracts import check_checkpoint_resume, check_checkpoint_roundtrip, contracts_enabled
from ..errors import UsageError
from ..learning import evidence as evidence_module
from ..learning.evidence import SAMPLE_CAP, StreamingEvidence
from ..obs.recorder import NULL_RECORDER, Recorder
from ..runtime.parallel import Shard, parallel_evidence
from ..runtime.resilience import (
    CRASH_EXIT_STATUS,
    DegradationReport,
    FaultPlan,
    QuarantinedDocument,
)
from .codec import StateDecodeError, file_sha256, read_state, write_state
from .lock import RunLock
from .manifest import SHARD_DIR, DocumentEntry, Manifest, ShardEntry, load_manifest


def _find_run(
    hashes: Sequence[str],
    starts: Mapping[str, Sequence[int]],
    needle: Sequence[str],
    start: int,
) -> int | None:
    """First position >= ``start`` where ``needle`` occurs contiguously.

    ``starts`` maps each hash to its ascending positions in ``hashes``,
    so only the places where ``needle``'s first hash occurs are tried,
    each compared in place up to its first mismatch.
    """
    length = len(needle)
    if length == 0:
        return None
    last = len(hashes) - length
    positions = starts.get(needle[0], ())
    for candidate in range(bisect_left(positions, start), len(positions)):
        position = positions[candidate]
        if position > last:
            return None
        offset = 1
        while offset < length and hashes[position + offset] == needle[offset]:
            offset += 1
        if offset == length:
            return position
    return None


def _reusable_shards(
    run_dir: str,
    old: Manifest | None,
    entries: Sequence[DocumentEntry],
    recorder: Recorder,
    on_error: str,
) -> list[tuple[Shard, ShardEntry]]:
    """Match old shards against the new corpus, loading cached states.

    Greedy and forward-only: old shards committed in corpus order, so
    scanning each against a monotonically advancing position matches
    every survivable prefix/infix without quadratic rescans.  A strict
    run never reuses a shard that quarantined documents: it re-parses
    them, and raises on the first bad one as a fresh strict run would.
    """
    if old is None:
        return []
    if old.sample_cap != SAMPLE_CAP or old.word_cap != evidence_module.WORD_CAP:
        # Reservoir truncation and bag spilling depend on the caps; states
        # written under other build constants cannot reproduce today's bytes.
        recorder.count("ckpt.corrupt", len(old.shards))
        return []
    hashes = [entry.sha256 for entry in entries]
    starts: dict[str, list[int]] = {}
    for position, digest in enumerate(hashes):
        starts.setdefault(digest, []).append(position)
    reused: list[tuple[Shard, ShardEntry]] = []
    position = 0
    for shard in old.shards:
        if shard.quarantined and on_error != "skip":
            continue
        needle = [document.sha256 for document in shard.documents]
        found = _find_run(hashes, starts, needle, position)
        if found is None:
            continue
        state_path = os.path.join(run_dir, SHARD_DIR, shard.state_file)
        try:
            evidence = read_state(state_path)
        except StateDecodeError:
            recorder.count("ckpt.corrupt")
            continue
        recorder.count("ckpt.load")
        recorder.count("ckpt.hit")
        recorder.count("ckpt.skip", len(shard.documents))
        paths = tuple(entry.path for entry in entries[found : found + len(needle)])
        quarantined = tuple(
            QuarantinedDocument(path=paths[offset], cause=cause, position=byte)
            for offset, cause, byte in shard.quarantined
        )
        reused.append((Shard(found, paths, evidence, quarantined), shard))
        position = found + len(needle)
    return reused


def _document_entry(path: str | os.PathLike[str], on_error: str) -> DocumentEntry:
    """The manifest's identity for one document: its path and content hash.

    In skip mode an unreadable file hashes to a path-specific marker, so
    its shard — and the quarantine it records — is reused for as long as
    the file stays unreadable.
    """
    try:
        digest = file_sha256(path)
    except OSError:
        if on_error != "skip":
            raise
        digest = f"unreadable:{os.fspath(path)}"
    return DocumentEntry(path=os.fspath(path), sha256=digest)


def _collect_garbage(run_dir: str, manifest: Manifest, recorder: Recorder) -> None:
    """Unlink state files the final manifest no longer references."""
    shard_dir = os.path.join(run_dir, SHARD_DIR)
    referenced = manifest.referenced_state_files()
    try:
        present = os.listdir(shard_dir)
    except OSError:
        return
    for name in present:
        if name.endswith(".state") and name not in referenced:
            with suppress(OSError):
                os.unlink(os.path.join(shard_dir, name))
                recorder.count("ckpt.gc")


def checkpointed_evidence(
    paths: Sequence[str | os.PathLike[str]],
    *,
    state_dir: str | os.PathLike[str],
    resume: bool = False,
    jobs: int | None = None,
    recorder: Recorder = NULL_RECORDER,
    fault_plan: FaultPlan | None = None,
    on_error: str = "strict",
    max_quarantine: int | None = None,
    deadline: float | None = None,
    report: DegradationReport | None = None,
) -> StreamingEvidence:
    """Extract streaming evidence with durable per-shard checkpoints.

    ``resume=False`` demands a pristine directory: finding a manifest
    raises :class:`~repro.errors.UsageError` rather than silently
    clobbering a previous run.  ``resume=True`` reuses every shard of
    the old manifest whose exact document-hash run still occurs in the
    new corpus — which covers both crash recovery (the committed
    prefix matches trivially) and incremental re-runs over edited
    corpora.  Either way the returned evidence is byte-identical to a
    fresh, uncached run over ``paths``, and ``report`` receives the
    same quarantines.

    The remaining keywords are the shard runner's policy
    (:func:`~repro.runtime.parallel.parallel_evidence`), with
    ``fault_plan`` as its ``faults``.  Its shard indexes count fresh
    shards, and ``fault_plan.kill_after_shards`` hard-kills the process
    (exit status ``CRASH_EXIT_STATUS``) immediately after the named
    fresh shard commits — the hook the crash/resume property tests use.
    """
    run_dir = os.fspath(state_dir)
    os.makedirs(os.path.join(run_dir, SHARD_DIR), exist_ok=True)
    with RunLock(run_dir):
        old = load_manifest(run_dir)
        if old is not None and not resume:
            raise UsageError(
                f"state dir {run_dir} already holds a checkpointed run; "
                "pass resume=True (--resume) to continue it, or point "
                "state_dir at a fresh directory"
            )
        entries = [_document_entry(path, on_error) for path in paths]
        reused = _reusable_shards(run_dir, old, entries, recorder, on_error)
        durable = {shard.start: entry for shard, entry in reused}
        manifest = Manifest(sample_cap=SAMPLE_CAP, word_cap=evidence_module.WORD_CAP)

        def store() -> None:
            """Rewrite the manifest from every durable entry, corpus order."""
            manifest.shards = [durable[start] for start in sorted(durable)]
            manifest.store(run_dir)

        def commit(index: int, shard: Shard) -> None:
            assert shard.evidence is not None  # the runner commits folded shards
            if contracts_enabled():
                check_checkpoint_roundtrip(shard.evidence)
            pending = os.path.join(run_dir, SHARD_DIR, "pending.state")
            digest = write_state(pending, shard.evidence)
            name = f"{digest[:16]}.state"
            os.replace(pending, os.path.join(run_dir, SHARD_DIR, name))
            recorder.count("ckpt.write")
            durable[shard.start] = ShardEntry(
                documents=tuple(entries[shard.start : shard.start + len(shard.items)]),
                state_file=name,
                digest=digest,
                quarantined=tuple(
                    (shard.items.index(document.path), document.cause, document.position)
                    for document in shard.quarantined
                ),
            )
            store()
            if fault_plan is not None and fault_plan.kills_after(index):
                os._exit(CRASH_EXIT_STATUS)

        if report is None:
            report = DegradationReport()
        merged = parallel_evidence(
            [entry.path for entry in entries],
            jobs,
            recorder,
            reuse=[shard for shard, _entry in reused],
            faults=fault_plan,
            on_error=on_error,
            max_quarantine=max_quarantine,
            deadline=deadline,
            report=report,
            on_commit=commit,
        )
        manifest.complete = True
        store()
        _collect_garbage(run_dir, manifest, recorder)

        if contracts_enabled():
            check_checkpoint_roundtrip(merged)
            if reused:
                skipped = {document.path for document in report.quarantined}
                check_checkpoint_resume(merged, [entry.path for entry in entries], skipped)
        return merged

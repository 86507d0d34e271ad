"""The run manifest: which documents fed which shard state.

``manifest.json`` is the run directory's table of contents.  Each shard
entry records the exact ``(path, sha256)`` sequence of the documents it
folded plus the content-addressed state file holding the resulting
evidence.  That is enough to answer both durability questions:

* *resume* — shards present in the manifest are durable; everything
  after the last entry must be re-parsed;
* *incremental re-run* — a shard is reusable iff its document list
  reappears, byte-for-byte and contiguously, in the new corpus.

Version 2 adds each shard's quarantined documents (``on_error="skip"``
runs), so a resumed run reproduces the degradation report along with
the DTD.  Version-1 manifests still load, as shards with no quarantines.

The manifest is rewritten atomically after every shard commit, and a
state file is referenced only after its own bytes are durable, so a
reader never sees a manifest pointing at a missing or partial state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..fsio import atomic_write_text
from .codec import StateDecodeError, canonical_json

MANIFEST_MAGIC = "repro-ckpt-manifest"
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"


@dataclass(frozen=True)
class DocumentEntry:
    """One corpus document as the manifest remembers it."""

    path: str
    sha256: str


@dataclass(frozen=True)
class ShardEntry:
    """One durably committed shard."""

    documents: tuple[DocumentEntry, ...]
    state_file: str  # relative to RUN/shards/
    digest: str  # full sha256 of the state payload
    #: ``(offset in shard, cause, byte position)`` per skipped document.
    quarantined: tuple[tuple[int, str, int | None], ...] = ()


@dataclass
class Manifest:
    """The decoded manifest; ``complete`` marks a finished run."""

    sample_cap: int
    shards: list[ShardEntry] = field(default_factory=list)
    complete: bool = False

    def to_document(self) -> dict[str, object]:
        return {
            "magic": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "sample_cap": self.sample_cap,
            "complete": self.complete,
            "shards": [
                {
                    "documents": [
                        [entry.path, entry.sha256] for entry in shard.documents
                    ],
                    "state_file": shard.state_file,
                    "digest": shard.digest,
                    "quarantined": [list(entry) for entry in shard.quarantined],
                }
                for shard in self.shards
            ],
        }

    def store(self, run_dir: str | os.PathLike[str]) -> None:
        """Atomically rewrite ``RUN/manifest.json``."""
        atomic_write_text(
            os.path.join(os.fspath(run_dir), MANIFEST_NAME),
            canonical_json(self.to_document()) + "\n",
        )

    def referenced_state_files(self) -> set[str]:
        return {shard.state_file for shard in self.shards}


def _shard_from_document(raw: object) -> ShardEntry:
    if not isinstance(raw, dict):
        raise StateDecodeError(f"manifest shard entry is not an object: {raw!r}")
    raw_documents = raw.get("documents")
    state_file = raw.get("state_file")
    digest = raw.get("digest")
    if (
        not isinstance(raw_documents, list)
        or not isinstance(state_file, str)
        or not isinstance(digest, str)
    ):
        raise StateDecodeError(f"manifest shard entry is malformed: {raw!r}")
    documents: list[DocumentEntry] = []
    for entry in raw_documents:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise StateDecodeError(f"manifest document entry is malformed: {entry!r}")
        documents.append(DocumentEntry(path=entry[0], sha256=entry[1]))
    quarantined: list[tuple[int, str, int | None]] = []
    for entry in raw.get("quarantined", []):
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], int)
            and 0 <= entry[0] < len(documents)
            and isinstance(entry[1], str)
            and (entry[2] is None or isinstance(entry[2], int))
        ):
            raise StateDecodeError(f"manifest quarantine entry is malformed: {entry!r}")
        quarantined.append((entry[0], entry[1], entry[2]))
    return ShardEntry(
        documents=tuple(documents),
        state_file=state_file,
        digest=digest,
        quarantined=tuple(quarantined),
    )


def load_manifest(run_dir: str | os.PathLike[str]) -> Manifest | None:
    """Load ``RUN/manifest.json``; None when absent, error when corrupt.

    A *missing* manifest means a fresh run directory — fine.  A
    *corrupt* one means the directory holds something that is not a
    repro checkpoint run, and silently overwriting it would destroy
    data the user may care about, so that raises.
    """
    path = os.path.join(os.fspath(run_dir), MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    except OSError as error:
        raise StateDecodeError(f"cannot read manifest {path}: {error}") from error
    try:
        document = json.loads(raw)
    except ValueError as error:
        raise StateDecodeError(f"manifest is not JSON: {error}") from error
    if not isinstance(document, dict) or document.get("magic") != MANIFEST_MAGIC:
        raise StateDecodeError(
            f"{path} lacks the repro-ckpt-manifest magic; refusing to use "
            "this directory as a state dir"
        )
    if document.get("version") not in (1, MANIFEST_VERSION):
        raise StateDecodeError(
            f"unsupported manifest version {document.get('version')!r}"
        )
    sample_cap = document.get("sample_cap")
    if not isinstance(sample_cap, int):
        raise StateDecodeError("manifest lacks an integer sample_cap")
    shards = document.get("shards")
    if not isinstance(shards, list):
        raise StateDecodeError("manifest lacks a shard list")
    return Manifest(
        sample_cap=sample_cap,
        shards=[_shard_from_document(entry) for entry in shards],
        complete=bool(document.get("complete", False)),
    )

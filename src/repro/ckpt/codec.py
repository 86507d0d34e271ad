"""Versioned, checksummed serialization of streaming evidence.

A state file is two lines of UTF-8:

1. a JSON *header* — ``{"magic": "repro-ckpt-state", "version": 3,
   "payload_sha256": ..., "payload_bytes": N}``;
2. the JSON *payload* — the canonical serialization of one
   :class:`~repro.learning.evidence.StreamingEvidence`
   (``sort_keys=True``, compact separators, every set pre-sorted by
   :meth:`~repro.learning.evidence.StreamingEvidence.dehydrate`).

The header lets a reader reject truncated, corrupted or
wrong-version files *before* attempting to interpret the payload; the
canonical payload means the same evidence always produces the same
bytes regardless of ``PYTHONHASHSEED``, which is what makes the
payload digest usable as a content address.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from ..errors import CorpusError
from ..fsio import atomic_write_bytes
from ..learning.evidence import StreamingEvidence

MAGIC = "repro-ckpt-state"
# Version history:
#   1 — soa + crx learner states per element.
#   2 — adds the kore/sire learner states (evidence payloads from v1
#       lack them, so hydration would fail; the version gate rejects
#       them up front with a clear re-run-from-scratch error instead).
#   3 — per element, the sorted word bag ("words": [[word, count], ...])
#       unless the bag spilled past WORD_CAP, in which case its kore and
#       sire learner states (the soa and crx states derive from them);
#       older payloads are re-parsed.  v3 files that also carry the soa
#       and crx states still load: hydration reads only kore and sire.
VERSION = 3


class StateDecodeError(CorpusError):
    """A checkpoint state file is corrupt, truncated, or wrong-version.

    Derives from :class:`~repro.errors.CorpusError` because the
    condition is a property of on-disk inputs, not a bug: the runner
    responds by discarding the shard and re-parsing its documents.
    """


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering: sorted keys, compact separators."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def encode_state(evidence: StreamingEvidence) -> bytes:
    """Serialize evidence to the versioned, checksummed wire form."""
    payload = canonical_json(evidence.dehydrate()).encode("utf-8")
    header = canonical_json(
        {
            "magic": MAGIC,
            "version": VERSION,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        }
    ).encode("utf-8")
    return header + b"\n" + payload + b"\n"


def decode_state(data: bytes) -> StreamingEvidence:
    """Parse and verify :func:`encode_state` output.

    Raises :class:`StateDecodeError` on any structural defect: missing
    header line, bad magic/version, truncated payload, or checksum
    mismatch.  Callers treat that as "this shard was never written".
    """
    header_line, separator, rest = data.partition(b"\n")
    if not separator:
        raise StateDecodeError("state file has no header line")
    try:
        header = json.loads(header_line)
    except ValueError as error:
        raise StateDecodeError(f"state header is not JSON: {error}") from error
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise StateDecodeError("state header lacks the repro-ckpt-state magic")
    if header.get("version") != VERSION:
        raise StateDecodeError(
            f"unsupported state version {header.get('version')!r}"
        )
    declared_bytes = header.get("payload_bytes")
    declared_sha = header.get("payload_sha256")
    if not isinstance(declared_bytes, int) or not isinstance(declared_sha, str):
        raise StateDecodeError("state header lacks payload length/checksum")
    payload = rest.rstrip(b"\n")
    if len(payload) != declared_bytes:
        raise StateDecodeError(
            f"state payload truncated: {len(payload)} of {declared_bytes} bytes"
        )
    if hashlib.sha256(payload).hexdigest() != declared_sha:
        raise StateDecodeError("state payload checksum mismatch")
    try:
        document = json.loads(payload)
    except ValueError as error:
        raise StateDecodeError(f"state payload is not JSON: {error}") from error
    if not isinstance(document, dict):
        raise StateDecodeError("state payload is not a JSON object")
    return StreamingEvidence.hydrate(document)


def evidence_digest(evidence: StreamingEvidence) -> str:
    """The sha256 of the canonical payload: a content address.

    Equal evidence — same learner states, counters, and reservoirs —
    yields equal digests in every process, so the digest names the
    state file (``<digest16>.state``) and pins resume ≡ fresh in the
    contracts layer.
    """
    payload = canonical_json(evidence.dehydrate()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def file_sha256(path: str | os.PathLike[str]) -> str:
    """The sha256 of a file's content, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_state(path: str | os.PathLike[str], evidence: StreamingEvidence) -> str:
    """Durably write evidence to ``path``; returns the payload digest."""
    data = encode_state(evidence)
    atomic_write_bytes(path, data)
    payload = data.split(b"\n", 1)[1].rstrip(b"\n")
    return hashlib.sha256(payload).hexdigest()


def read_state(path: str | os.PathLike[str]) -> StreamingEvidence:
    """Load and verify a state file written by :func:`write_state`."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise StateDecodeError(f"cannot read state file {path}: {error}") from error
    return decode_state(data)

"""Crash-safe artifact writing: write-tmp + fsync + atomic rename.

Several parts of the system persist JSON (or JSON-lines) artifacts
that other tooling later *trusts*: benchmark baselines, obs traces,
and — most critically — the checkpoint state
files and manifests of :mod:`repro.ckpt`.  A plain ``open(path, "w")``
+ ``json.dump`` leaves a truncated file behind if the process dies
mid-write, and the next reader sees corrupt data where a file used to
be good.

Every writer here follows the same discipline:

1. write the full payload to a unique sibling temp file
   (``<name>.tmp.<pid>`` in the same directory, so the rename below
   never crosses a filesystem boundary);
2. flush and ``fsync`` the temp file, so the *bytes* are durable
   before the name is;
3. ``os.replace`` it over the destination — atomic on POSIX, so any
   concurrent (or post-crash) reader sees either the old complete file
   or the new complete file, never a prefix;
4. best-effort ``fsync`` the containing directory, so the rename
   itself survives power loss.

A crash between steps leaves at worst a stale ``.tmp.<pid>`` file,
never a truncated destination.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from typing import Any

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
]


def _fsync_directory(path: str) -> None:
    """Best-effort directory fsync; some filesystems refuse the open."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    with suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    """Write ``data`` to ``path`` durably and atomically."""
    target = os.fspath(path)
    temp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    finally:
        # os.replace consumed the temp file on success; anything left
        # behind is the debris of a failed write.
        with suppress(FileNotFoundError):
            os.unlink(temp)
    _fsync_directory(target)


def atomic_write_text(
    path: str | os.PathLike[str], text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` durably and atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: str | os.PathLike[str],
    payload: Any,
    *,
    indent: int | None = 2,
) -> None:
    """Serialize ``payload`` as JSON and write it atomically.

    The rendered document always ends in a newline so shell tooling
    (``diff``, ``cat``) treats the artifact as a well-formed text file.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True)
    atomic_write_text(path, text + "\n")

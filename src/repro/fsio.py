"""Crash-safe artifact writing: write-tmp + fsync + atomic rename.

Two parts of the system persist artifacts that other tooling later
*trusts*: obs traces (:func:`repro.obs.report.write_trace_path`) and,
most critically, the checkpoint state files and manifests of
:mod:`repro.ckpt`.  A plain ``open(path, "w")`` + ``write`` leaves a
truncated file behind if the process dies mid-write, and the next
reader sees corrupt data where a file used to be good.

Both writers here follow the same discipline:

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

import os
from contextlib import suppress

__all__ = [
    "atomic_write_bytes",
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


"""Recorders: hierarchical spans, counters and memory snapshots.

The whole pipeline is threaded with a :class:`Recorder`: parsing,
evidence extraction, 2T-INF SOA construction, the Section-5 rewrite
rules, CRX equivalence-classing and DTD emission each open a *span*
(``recorder.span("rewrite", element="book")``) or bump a monotonic
*counter* (``recorder.count("repair.firings")``).  Two properties
drive the design:

* **near-zero cost when off** — the default :data:`NULL_RECORDER`
  returns a shared no-op context manager and exposes ``enabled =
  False`` so hot loops can skip instrumentation entirely;
* **shard mergeability** — :meth:`StatsRecorder.snapshot` produces a
  plain picklable dict and :meth:`StatsRecorder.merge_snapshot` folds
  worker snapshots back in with a ``shard`` tag, mirroring how the
  map-reduce pipeline merges evidence monoids.

Span timestamps are offsets from each recorder's construction, so
durations are comparable across processes even though absolute starts
are not.  A :class:`StatsRecorder` samples peak RSS itself whenever a
top-level span closes.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import Counter
from typing import Any, ContextManager, Protocol, runtime_checkable

#: A picklable plain-dict dump of a recorder: ``{"spans": [...],
#: "counters": {...}, "memory": [...]}``.  See :meth:`StatsRecorder.snapshot`.
Snapshot = dict[str, Any]

#: Memory samples are rate-limited to one per this many seconds.
MEMORY_SAMPLE_INTERVAL = 0.05


def peak_rss_kb() -> int:
    """The process's peak resident set size in kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


@runtime_checkable
class Recorder(Protocol):
    """What the pipeline requires from an instrumentation sink.

    Implementations must be cheap to call when ``enabled`` is false;
    hot loops are allowed (encouraged) to guard on it.
    """

    enabled: bool

    def span(self, name: str, **attributes: Any) -> ContextManager[None]:
        """Open a timed span; nested spans record their parent."""
        ...

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a monotonic counter."""
        ...


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The do-nothing recorder; a single shared instance suffices."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attributes: Any) -> ContextManager[None]:
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass


#: The default recorder everywhere a ``recorder`` parameter is omitted.
NULL_RECORDER = NullRecorder()


class _SpanContext:
    """Context manager for one open span on a :class:`StatsRecorder`."""

    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "StatsRecorder", record: dict[str, Any]) -> None:
        self._recorder = recorder
        self._record = record

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        self._recorder._finish_span(self._record)
        return False


class StatsRecorder:
    """Collects spans, counters and memory samples.

    Single-threaded by design: one recorder per process/shard, merged
    afterwards (:meth:`merge_snapshot`), exactly like the evidence
    monoids in :mod:`repro.runtime.parallel`.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self.counters: Counter[str] = Counter()
        self.memory_samples: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._last_memory_sample = -1.0

    # -- clock ----------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> ContextManager[None]:
        record: dict[str, Any] = {
            "type": "span",
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "attrs": attributes,
            "start": self._now(),
            "duration": None,
            "count": 1,
            "shard": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        return _SpanContext(self, record)

    def _finish_span(self, record: dict[str, Any]) -> None:
        record["duration"] = self._now() - record["start"]
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        if not self._stack:
            self._sample_memory()

    # -- counters & memory ----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def _sample_memory(self) -> None:
        now = self._now()
        if now - self._last_memory_sample < MEMORY_SAMPLE_INTERVAL:
            return
        self._last_memory_sample = now
        self.memory_samples.append(
            {"offset": now, "peak_rss_kb": peak_rss_kb(), "shard": None}
        )

    # -- snapshots and merging -------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A picklable dump of everything recorded so far."""
        return {
            "spans": [dict(span) for span in self.spans],
            "counters": dict(self.counters),
            "memory": [dict(sample) for sample in self.memory_samples],
        }

    def merge_snapshot(
        self, snapshot: Snapshot, shard: int | None = None
    ) -> None:
        """Fold a (typically per-shard) snapshot into this recorder.

        Span ids are remapped past the current id range so parent
        links inside the merged snapshot stay consistent; every merged
        record that is not already shard-tagged gets ``shard``.
        """
        offset = len(self.spans)
        for span in snapshot.get("spans", ()):
            record = dict(span)
            record["attrs"] = dict(record.get("attrs") or {})
            if shard is not None and record.get("shard") is None:
                record["shard"] = shard
            if record.get("id") is not None:
                record["id"] += offset
                if record.get("parent") is not None:
                    record["parent"] += offset
            self.spans.append(record)
        self.counters.update(snapshot.get("counters", {}))
        for sample in snapshot.get("memory", ()):
            record = dict(sample)
            if shard is not None and record.get("shard") is None:
                record["shard"] = shard
            self.memory_samples.append(record)


__all__ = [
    "MEMORY_SAMPLE_INTERVAL",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Snapshot",
    "StatsRecorder",
    "peak_rss_kb",
]

"""Percentiles, quartiles and the span arithmetic behind the trace tables.

Spans are plain dicts so they cross process boundaries as JSON:
``{"id", "parent", "trace", "name", "start", "end"}`` plus attributes.
Times come from ``time.perf_counter``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so spans from the benchmark's child
processes line up with the parent's on one host.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Any


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear interpolation between closest ranks (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Collects spans in memory; nesting follows the ``with`` blocks."""

    def __init__(self, trace_id: str, prefix: str = "s", parent: str | None = None) -> None:
        self.trace_id = trace_id
        self.spans: list[dict[str, Any]] = []
        self._ids = (f"{prefix}{number}" for number in itertools.count(1))
        self._stack: list[str | None] = [parent]

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": next(self._ids),
            "parent": self._stack[-1],
            "trace": self.trace_id,
            "name": name,
            **attributes,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


def self_times(spans: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Span id → duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        inside = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], ())
            if end > span["start"] and start < span["end"]
        ]
        result[span["id"]] = (span["end"] - span["start"]) - covered(inside)
    return result


def layer_table(spans: Sequence[dict[str, Any]], root_id: str) -> list[dict[str, Any]]:
    """Per span name: calls, total and self seconds, self share of wall.

    The root span's self time is the ``unattributed`` row: wall time no
    layer span covers.  Self times of all rows sum to the root's wall.
    """
    own = self_times(spans)
    root = next(span for span in spans if span["id"] == root_id)
    wall = root["end"] - root["start"]
    rows: dict[str, dict[str, Any]] = {}
    for span in spans:
        name = "unattributed" if span["id"] == root_id else span["name"]
        row = rows.setdefault(name, {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    ordered = sorted(
        (row for row in rows.values() if row["name"] != "unattributed"),
        key=lambda row: -row["self_s"],
    )
    return ordered + [rows["unattributed"]]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[index]) for row in cells)) if cells else len(str(header))
        for index, header in enumerate(headers)
    ]
    lines = ["  ".join(str(header).ljust(width) for header, width in zip(headers, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)

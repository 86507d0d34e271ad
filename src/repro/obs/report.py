"""Human- and machine-readable renderings of recorder snapshots.

Two consumers:

* ``repro dtd --stats`` prints :func:`format_stats` — a per-phase
  wall-clock table plus counters and peak RSS — to stderr;
* ``repro dtd --trace FILE`` writes :func:`write_trace` — one JSON
  object per line: every span (real and aggregated), then a final
  ``summary`` line with counters and memory samples.  The line schema
  is enforced by :mod:`repro.obs.check_trace`.

Phases in the table are span *names*; spans nest (e.g. ``parse`` and
``extract`` run inside each pooled ``shard`` span), so per-phase
totals can legitimately sum to more than elapsed wall-clock.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Any, TextIO

from .recorder import Snapshot

#: Render order for the pipeline's well-known phases; anything else is
#: appended alphabetically after these.
PHASE_ORDER = (
    "parse",
    "extract",
    "filter",
    "soa",
    "rewrite",
    "crx",
    "emit",
    "shard",
)


def phase_totals(snapshot: Snapshot) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: ``{name: {"calls": n, "seconds": s}}``."""
    totals: dict[str, dict[str, float]] = {}
    for span in snapshot.get("spans", ()):
        duration = span.get("duration")
        if duration is None:  # span never closed (crashed mid-flight)
            continue
        entry = totals.setdefault(span["name"], {"calls": 0, "seconds": 0.0})
        entry["calls"] += int(span.get("count") or 1)
        entry["seconds"] += duration
    return totals


def _ordered_phases(totals: dict[str, dict[str, float]]) -> list[str]:
    known = [name for name in PHASE_ORDER if name in totals]
    extra = sorted(name for name in totals if name not in PHASE_ORDER)
    return known + extra


def _wall_clock(snapshot: Snapshot) -> float:
    """Elapsed time spanned by the real (non-aggregated) spans."""
    starts = [
        span["start"]
        for span in snapshot.get("spans", ())
        if span.get("start") is not None
    ]
    ends = [
        span["start"] + span["duration"]
        for span in snapshot.get("spans", ())
        if span.get("start") is not None and span.get("duration") is not None
    ]
    if not starts or not ends:
        return 0.0
    return max(ends) - min(starts)


def peak_rss_of(snapshot: Snapshot) -> int | None:
    """The highest peak-RSS sample in the snapshot, in kB."""
    samples = [
        sample["peak_rss_kb"]
        for sample in snapshot.get("memory", ())
        if sample.get("peak_rss_kb") is not None
    ]
    return max(samples) if samples else None


def format_stats(snapshot: Snapshot) -> str:
    """The ``--stats`` table: phases, counters, memory."""
    totals = phase_totals(snapshot)
    wall = _wall_clock(snapshot)
    lines = ["phase            calls      seconds    % of wall"]
    lines.append("-" * len(lines[0]))
    for name in _ordered_phases(totals):
        entry = totals[name]
        share = 100.0 * entry["seconds"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<15}{int(entry['calls']):>7}{entry['seconds']:>13.4f}"
            f"{share:>13.1f}"
        )
    lines.append(f"{'wall clock':<15}{'':>7}{wall:>13.4f}{100.0:>13.1f}")
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        lines.append("--------")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]}")
    peak = peak_rss_of(snapshot)
    if peak is not None:
        lines.append("")
        lines.append(
            f"peak RSS: {peak} kB "
            f"({len(snapshot.get('memory', ()))} samples)"
        )
    return "\n".join(lines)


def format_degradation(degradation: dict[str, Any]) -> str:
    """A stderr summary of a :class:`DegradationReport`'s ``to_dict()``.

    Rendered by the CLI after a degraded run so a human sees at a
    glance what was skipped, retried and weakened; the full
    machine-readable detail stays on the report object.
    """
    quarantined = degradation.get("quarantined", [])
    retried = degradation.get("retried_shards", [])
    fallbacks = degradation.get("fallbacks", [])
    lines = [
        f"degraded run: {len(quarantined)} quarantined, "
        f"{len(retried)} retried shard(s), {len(fallbacks)} fallback(s)"
    ]
    for entry in quarantined:
        lines.append(f"  quarantined {entry['path']}: {entry['cause']}")
    for entry in retried:
        suffix = ", resharded serial" if entry.get("resharded") else ""
        lines.append(
            f"  retried shard {entry['shard']} ({entry['reason']}, "
            f"{entry['attempts']} attempts{suffix})"
        )
    for entry in fallbacks:
        lines.append(
            f"  element {entry['element']}: {entry['from']} fell back to "
            f"{entry['to']} ({entry['cause']})"
        )
    return "\n".join(lines)


def iter_trace_lines(snapshot: Snapshot) -> Iterator[str]:
    """The JSON-lines trace: span lines, then one summary line."""
    for span in snapshot.get("spans", ()):
        yield json.dumps(span, sort_keys=True)
    yield json.dumps(
        {
            "type": "summary",
            "counters": snapshot.get("counters", {}),
            "memory": snapshot.get("memory", []),
        },
        sort_keys=True,
    )


def write_trace(snapshot: Snapshot, stream: TextIO) -> int:
    """Write the JSON-lines trace to ``stream``; returns lines written."""
    lines = 0
    for line in iter_trace_lines(snapshot):
        stream.write(line + "\n")
        lines += 1
    return lines


def write_trace_path(snapshot: Snapshot, path: str) -> int:
    """Write the trace to ``path`` atomically; returns lines written.

    Trace files are consumed by external tooling
    (``python -m repro.obs.check_trace``, dashboards); an interrupted
    run must leave either the previous trace or the complete new one,
    never a prefix — hence :func:`repro.fsio.atomic_write_text`.
    """
    from ..fsio import atomic_write_text

    lines = list(iter_trace_lines(snapshot))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def summary_dict(snapshot: Snapshot) -> dict[str, Any]:
    """A compact machine-readable digest (used by the benchmarks)."""
    totals = phase_totals(snapshot)
    return {
        "phases": {
            name: {
                "calls": int(totals[name]["calls"]),
                "seconds": totals[name]["seconds"],
            }
            for name in _ordered_phases(totals)
        },
        "wall_seconds": _wall_clock(snapshot),
        "counters": dict(snapshot.get("counters", {})),
        "peak_rss_kb": peak_rss_of(snapshot),
    }


__all__ = [
    "PHASE_ORDER",
    "format_degradation",
    "format_stats",
    "iter_trace_lines",
    "peak_rss_of",
    "phase_totals",
    "summary_dict",
    "write_trace",
    "write_trace_path",
]

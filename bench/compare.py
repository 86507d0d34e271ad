"""Compare benchmark runs of a parent commit and a change, or check spread.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py RUNS.jsonl

Each file holds the records ``run.py --out DIR`` appends to
``DIR/runs.jsonl``, one per workload run.  With two files, runs of one
workload pair up by seed (at least ``MIN_PAIRS`` pairs; alternate which
side runs first).  Per workload and metric:

* **gain** — the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* **regression** — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* **unresolved** — the spread (interquartile range over median) of
  either side exceeds the bound, unless every change run beats every
  parent run;
* **same** — none of these.

A gain does not count when more operations failed than at the parent.
With one file, each metric's spread is printed against its bound.
Exit status: 1 if any regression or unresolved metric, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from stats import format_table, quartiles, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict[str, Any]]]:
    """Workload → run records (untraced and traced alike), file order."""
    runs: dict[str, list[dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def better(change: float, parent: float, direction: str) -> bool:
    return change < parent if direction == "lower" else change > parent


def verdict(parent: list[float], change: list[float], direction: str, bound: float | None) -> tuple[str, int]:
    """The rule for one metric on one workload; also the pair wins."""
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if len(parent) < MIN_PAIRS:
        return f"too few pairs (< {MIN_PAIRS})", wins
    dominates = all(better(c, p, direction) for c in change for p in parent)
    if bound is not None and max(spread(parent), spread(change)) > bound and not dominates:
        return "unresolved", wins
    worse_by = (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
    if direction == "higher":
        worse_by = -worse_by
    if bound is not None and worse_by > bound:
        return "regression", wins
    if (
        wins >= WIN_SHARE * len(parent)
        and better(change_median, parent_median, direction)
        and abs(change_median - parent_median) > parent_q3 - parent_q1
    ):
        return "gain", wins
    return "same", wins


def declared_metrics(benchmark: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {metric["name"]: metric for metric in benchmark["end_to_end"] + benchmark["per_layer"]}


def values_by_seed(records: list[dict[str, Any]], name: str) -> dict[int, float]:
    return {
        record["seed"]: record["result"]["metrics"][name]["value"]
        for record in records
        if name in record["result"]["metrics"]
    }


def compare(parent_path: str, change_path: str, benchmark: dict[str, Any]) -> int:
    metrics = declared_metrics(benchmark)
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    rows, status = [], 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent_failed = sum(record["result"]["failed"] for record in parent_runs[workload])
        change_failed = sum(record["result"]["failed"] for record in change_runs[workload])
        for name, metric in metrics.items():
            parent_seeds = values_by_seed(parent_runs[workload], name)
            change_seeds = values_by_seed(change_runs[workload], name)
            seeds = [seed for seed in parent_seeds if seed in change_seeds]
            if not seeds:
                continue
            parent = [parent_seeds[seed] for seed in seeds]
            change = [change_seeds[seed] for seed in seeds]
            result, wins = verdict(parent, change, metric["better"], metric.get("bound"))
            if result == "gain" and change_failed > parent_failed:
                result = "same (more failures)"
            if result in ("regression", "unresolved"):
                status = 1
            p1, parent_median, p3 = quartiles(parent)
            c1, change_median, c3 = quartiles(change)
            delta = (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
            rows.append(
                (
                    workload, name, metric["unit"],
                    f"{parent_median:.5g} [{p1:.5g}, {p3:.5g}]",
                    f"{change_median:.5g} [{c1:.5g}, {c3:.5g}]",
                    f"{delta:+.1%}", f"{wins}/{len(seeds)}",
                    "-" if metric.get("bound") is None else f"{metric['bound']:.0%}",
                    result,
                )
            )
    print(
        format_table(
            ("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
             "change", "wins", "bound", "verdict"),
            rows,
        )
    )
    return status


def check_spread(path: str, benchmark: dict[str, Any]) -> int:
    metrics = declared_metrics(benchmark)
    rows, status = [], 0
    for workload, records in sorted(load_runs(path).items()):
        for name, metric in metrics.items():
            values = list(values_by_seed(records, name).values())
            if len(values) < 2:
                continue
            bound = metric.get("bound")
            relative = spread(values)
            ok = bound is None or name == "setup_s" or relative <= bound
            status = status if ok else 1
            rows.append(
                (
                    workload, name, metric["unit"], len(values), f"{quartiles(values)[1]:.5g}",
                    f"{relative:.1%}", "-" if bound is None else f"{bound:.0%}",
                    "ok" if ok else "TOO WIDE",
                )
            )
    print(format_table(("workload", "metric", "unit", "runs", "median", "IQR/median", "bound", ""), rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", help="PARENT.jsonl CHANGE.jsonl, or one RUNS.jsonl")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
    )
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two run files")
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if len(args.runs) == 1:
        return check_spread(args.runs[0], benchmark)
    return compare(args.runs[0], args.runs[1], benchmark)


if __name__ == "__main__":
    sys.exit(main())

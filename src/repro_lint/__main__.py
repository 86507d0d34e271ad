"""CLI for the repo analyzer: ``python -m repro_lint [PATHS...]``.

Runs the per-file rules (R001-R005) and the whole-program rules
(R006-R010) in one pass.  Exit codes follow the repo convention:
``0`` clean, ``1`` findings (or bad usage), ``2`` internal failure of
the analyzer itself.

Output formats (``--format``):

* ``human`` — one ``path:line:col: CODE message`` line per finding;
* ``sarif`` — SARIF 2.1.0 on stdout, for GitHub code scanning upload.

``--stats`` appends per-rule finding counts and whole-program graph
sizes to stderr, which is what CI archives alongside the SARIF report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from . import Finding, analyze_paths
from .program_rules import PROGRAM_RULES, ProgramRule
from .project import Project
from .rules import ALL_RULES, Rule
from .sarif import to_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro_lint",
        description=(
            "Repo-specific lint: per-file rules R001-R005 plus "
            "whole-program rules R006-R010 (call graph, concurrency "
            "safety, layering) for repro."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and graph sizes to stderr",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _select_rules(
    spec: str | None,
) -> tuple[list[Rule], list[ProgramRule], str | None]:
    """Split a ``--rules`` spec across both registries."""
    if spec is None:
        return list(ALL_RULES), list(PROGRAM_RULES), None
    wanted = {code.strip() for code in spec.split(",") if code.strip()}
    known = {rule.code for rule in (*ALL_RULES, *PROGRAM_RULES)}
    unknown = wanted - known
    if unknown:
        return [], [], (
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return (
        [rule for rule in ALL_RULES if rule.code in wanted],
        [rule for rule in PROGRAM_RULES if rule.code in wanted],
        None,
    )


def _print_stats(findings: Sequence[Finding], project: Project) -> None:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    print("per-rule findings:", file=sys.stderr)
    for rule in (*ALL_RULES, *PROGRAM_RULES):
        print(f"  {rule.code}: {counts.get(rule.code, 0)}", file=sys.stderr)
    print("program model:", file=sys.stderr)
    for key, value in project.stats().items():
        print(f"  {key}: {value}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in (*ALL_RULES, *PROGRAM_RULES):
            print(f"{rule.code}  {rule.title}")
        return 0
    file_rules, program_rules, problem = _select_rules(args.rules)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 1
    try:
        findings = analyze_paths(args.paths, file_rules)
        project = Project.from_paths(args.paths)
        for program_rule in program_rules:
            findings.extend(program_rule.check(project))
    except (OSError, SyntaxError) as exc:
        print(f"repro_lint: error: {exc}", file=sys.stderr)
        return 1
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))

    if args.format == "sarif":
        rule_catalog = [
            (rule.code, rule.title) for rule in (*ALL_RULES, *PROGRAM_RULES)
        ]
        json.dump(to_sarif(findings, rule_catalog), sys.stdout, indent=2)
        print()
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    if args.stats:
        _print_stats(findings, project)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""SARIF 2.1.0 serialization of analyzer findings.

Static Analysis Results Interchange Format is what GitHub code
scanning ingests; CI runs ``python -m repro_lint --format sarif``
and uploads the result, so findings annotate pull-request diffs
instead of hiding in a job log.  Only the small stable core of the
spec is emitted: one run, one driver, one rule descriptor per
registered rule, one result per finding with a physical location.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import Finding

__all__ = ["SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def to_sarif(
    findings: Sequence[Finding],
    rules: Sequence[tuple[str, str]],
) -> dict[str, object]:
    """Build the SARIF document as plain JSON-ready data.

    ``rules`` is ``[(code, title), ...]`` for every rule that ran —
    not just the ones that fired — so code scanning can show the full
    rule catalog.
    """
    descriptors = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": title},
            "defaultConfiguration": {"level": "error"},
        }
        for code, title in rules
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.column + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro_lint",
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }

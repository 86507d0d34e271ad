"""Repo-specific static analysis for the repro codebase.

A development tool, not part of the installed ``repro`` distribution:
a small AST linter enforcing conventions that generic tools cannot
know about, runnable as ``python -m repro_lint src/repro`` and as a
CI step.  The rules:

* **R001** — ``repro.serve`` imports only the façade surface
  (``repro.api``, ``repro.errors``, ``repro.obs``), never the engine.
* **R002** — every ``raise`` uses the ``repro.errors`` hierarchy
  (or an in-module subclass of it); raising bare builtin exceptions
  loses the CLI exit-code mapping.
* **R003** — no bare ``except:`` / ``except Exception:`` that swallows
  without re-raising or bumping a recorder counter; inside
  ``repro/runtime/`` the same goes for swallowed ``KeyError`` /
  ``IndexError`` / ``LookupError`` — those dicts are the runtime's own
  shard/pool bookkeeping, so a silent miss is a hidden engine bug.
* **R004** — no mutation of frozen-dataclass fields via
  ``object.__setattr__`` outside ``__post_init__``.
* **R005** — no nondeterminism in the core pipeline: no module-level
  ``random.*`` calls (inject a ``random.Random``), no wall-clock
  imports outside ``repro.obs``.

Beyond the per-file rules, :mod:`repro_lint.project` builds a
whole-program model (module import graph, conservative call graph,
async/thread execution domains) and :mod:`repro_lint.program_rules`
runs the program-level family on top of it:

* **R006** — no blocking calls reachable from async code;
* **R007** — lock discipline (``with`` only, no ``await`` under a
  sync lock, globally consistent acquisition order);
* **R008** — shared mutable state is written under a lock;
* **R009** — raises resolve through ``repro.errors``; serve thread
  entries catch broadly;
* **R010** — eager imports respect the declared layer DAG.

Allowlisting: append ``# lint: allow R00X — reason`` to the offending
line (or put it on the line directly above).  The pragma must name the
rule code(s) it suppresses; a bare ``# lint: allow`` suppresses
nothing.  Findings serialize to SARIF (``--format sarif``) for machine
consumption.

Adding a rule: subclass :class:`Rule` in :mod:`repro_lint.rules`
(per-file) or :class:`~.program_rules.ProgramRule` (whole-program),
give it a ``code``/``title`` and a ``check`` method yielding
:class:`Finding` objects, and append it to ``ALL_RULES`` /
``PROGRAM_RULES``.  Fixture tests in ``tests/analysis/`` must cover
both a firing and a clean example (the test harness enforces this for
every registered rule).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .program_rules import ProgramRule
    from .rules import Rule

__all__ = [
    "ALLOW_PRAGMA",
    "Finding",
    "ParsedModule",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "iter_python_files",
]

#: ``lint: allow R001`` or ``lint: allow R001,R003 — reason`` inside a
#: comment.  A pragma that names no code suppresses nothing.
ALLOW_PRAGMA = re.compile(r"#\s*lint:\s*allow\b[ \t]*([A-Z0-9, ]*)")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


class ParsedModule:
    """A parsed source file plus the indexes the rules share.

    The pragma index maps line numbers to the set of rule codes the
    line (or the line above it) allowlists; rules consult it through
    :meth:`allowed` so the mechanism is uniform across rules.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.pragmas: dict[int, frozenset[str]] = {}
        for number, comment in self._iter_comments(source):
            match = ALLOW_PRAGMA.search(comment)
            if match:
                codes = frozenset(
                    code.strip()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
                if codes:
                    self.pragmas[number] = codes

    @staticmethod
    def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
        """``(line, text)`` for every real comment token.

        Tokenizing (rather than regex-scanning raw lines) keeps pragma
        text inside string literals and docstrings from registering —
        the analyzer's own documentation would otherwise allowlist
        itself.
        """
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return

    def allowed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is allowlisted at ``line`` (same or previous)."""
        return any(
            rule in self.pragmas.get(candidate, ())
            for candidate in (line, line - 1)
        )

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding | None:
        """Build a finding for ``node`` unless a pragma allowlists it."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        if self.allowed(rule, line):
            return None
        return Finding(
            rule=rule, path=self.path, line=line, column=column, message=message
        )


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into ``*.py`` files, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _sorted(findings: list[Finding]) -> list[Finding]:
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings


def analyze_source(
    path: str, source: str, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Run the rules over one in-memory module (fixture tests use this)."""
    from .rules import ALL_RULES

    module = ParsedModule(path, source)
    active = rules if rules is not None else ALL_RULES
    return _sorted([f for rule in active for f in rule.check(module)])


def analyze_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Run the per-file rules over files and directories."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(
            analyze_source(str(path), path.read_text(encoding="utf-8"), rules)
        )
    return findings


def analyze_project(
    paths: Iterable[str | Path], rules: Sequence[ProgramRule] | None = None
) -> list[Finding]:
    """Run the whole-program rules (R006-R010) over a source tree.

    Builds one :class:`~.project.Project` from ``paths`` and runs the
    program-rule family over it.  Combine with :func:`analyze_paths`
    for the full R001-R010 report (the CLI does exactly that).
    """
    from .program_rules import PROGRAM_RULES
    from .project import Project

    project = Project.from_paths(paths)
    active = rules if rules is not None else PROGRAM_RULES
    return _sorted([f for rule in active for f in rule.check(project)])

"""Validation of documents against a DTD.

The motivating application of schema inference (Section 1.1): with a
DTD in hand, documents can be checked automatically.  A
:class:`CompiledDtd` turns each element name into a rule the first time
a walk meets it; ``Children`` content models become a
:class:`~repro.regex.language.Matcher`, whose lazily determinized
Glushkov automaton costs one table lookup per child.  Every violation
is reported with the element path, so the noisy-XHTML experiment can
count and classify errors rather than stop at the first one.  The walk
is one loop over the parser's element records, the document's
pre-order, with no tree linked (ALGORITHMS.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..regex.language import Matcher
from .dtd import AttributeDef, Children, ContentModel, Dtd, Empty, Mixed
from .tree import Document, ElementRecord, ElementRecords


@dataclass(frozen=True)
class Violation:
    """One validation failure."""

    path: str
    element: str
    kind: str  # undeclared-element | bad-content | unexpected-text | ...
    detail: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.kind}] {self.detail}"


@dataclass(slots=True)
class _Rule:
    """What validating one element name needs, built once per run.

    ``declared`` is ``None`` when the DTD has no ATTLIST for the name;
    otherwise it maps each attribute to its last definition, in the
    order of first declaration, and ``required`` lists its
    ``#REQUIRED`` names in that order.
    """

    model: ContentModel | None
    matcher: Matcher | None
    allowed: frozenset[str]
    declared: dict[str, AttributeDef] | None
    required: tuple[str, ...]


class CompiledDtd:
    """A DTD prepared for validating many documents.

    Rules are built lazily, per element name, and kept only on this
    object: nothing is cached on the :class:`Dtd` or its content
    models, so build one per validation run (``api.validate`` builds
    one per call, the daemon one per ``/validate`` request).  Not
    thread-safe.
    """

    def __init__(self, dtd: Dtd) -> None:
        self.dtd = dtd
        self._rules: dict[str, _Rule] = {}

    @property
    def models_compiled(self) -> int:
        """``Children`` content models compiled into matchers so far."""
        return sum(rule.matcher is not None for rule in self._rules.values())

    @property
    def transitions(self) -> int:
        """Transition-table entries the matchers have built so far."""
        return sum(rule.matcher.transitions for rule in self._rules.values() if rule.matcher)

    def _compile(self, name: str) -> _Rule:
        model = self.dtd.elements.get(name)
        matcher = None
        allowed: frozenset[str] = frozenset()
        if isinstance(model, Children):
            matcher = Matcher(model.regex)
        elif isinstance(model, Mixed):
            allowed = frozenset(model.names)
        definitions = self.dtd.attributes.get(name)
        declared = None
        required: tuple[str, ...] = ()
        if definitions is not None:
            declared = {definition.name: definition for definition in definitions}
            required = tuple(
                attribute
                for attribute, definition in declared.items()
                if definition.default == "#REQUIRED"
            )
        rule = self._rules[name] = _Rule(model, matcher, allowed, declared, required)
        return rule

    def violations(self, document: Document | ElementRecords) -> list[Violation]:
        """All DTD violations in ``document``, in document order.

        One pass over the document's element records (a
        :class:`Document` is walked into records first).  A wrong root
        comes first; then each element's own violations (content, then
        attributes) precede its descendants'.  An element's path is
        built only when it has a violation.
        """
        from ..contracts import check_compiled_verdict, contracts_enabled

        if isinstance(document, Document):
            document = ElementRecords.of(document)
        records = document.records
        checking = contracts_enabled()
        found: list[Violation] = []
        root = records[0][0]
        start = self.dtd.start
        if start is not None and root != start:
            detail = f"root is {root!r}, DTD expects {start!r}"
            found.append(Violation(path=f"/{root}", element=root, kind="bad-root", detail=detail))
        rules = self._rules
        pending: list[tuple[str, str]] = []
        positions: list[int] | None = None
        for index, (name, attributes, children, chunks, _) in enumerate(records):
            rule = rules.get(name) or self._compile(name)
            model = rule.model
            matcher = rule.matcher
            if matcher is not None:
                assert isinstance(model, Children)
                if chunks and "".join(chunks).strip():
                    detail = f"element {name!r} has element content but contains character data"
                    pending.append(("unexpected-text", detail))
                verdict = matcher.accepts(children)
                if checking:
                    check_compiled_verdict(model.regex, children, verdict, name)
                if not verdict:
                    shown = " ".join(children) or "(none)"
                    detail = f"children {shown} do not match {model.render()}"
                    pending.append(("bad-content", detail))
            elif isinstance(model, Mixed):
                for child in children:
                    if child not in rule.allowed:
                        detail = f"child {child!r} not allowed in mixed content of {name!r}"
                        pending.append(("bad-content", detail))
            elif model is None:
                pending.append(("undeclared-element", f"element {name!r} is not declared"))
            elif isinstance(model, Empty):
                if children or "".join(chunks).strip():
                    pending.append(("bad-content", f"element {name!r} is declared EMPTY"))
            # Any: nothing to check.
            declared = rule.declared
            if declared is not None:
                for attribute in attributes:
                    if attribute not in declared:
                        detail = f"attribute {attribute!r} not declared on {name!r}"
                        pending.append(("undeclared-attribute", detail))
                for attribute in rule.required:
                    if attribute not in attributes:
                        detail = f"required attribute {attribute!r} missing on {name!r}"
                        pending.append(("missing-attribute", detail))
            if pending:
                if positions is None:
                    positions = _sibling_positions(records)
                path = _path(records, positions, index)
                found.extend(
                    Violation(path=path, element=name, kind=kind, detail=detail)
                    for kind, detail in pending
                )
                pending.clear()
        return found


def _sibling_positions(records: list[ElementRecord]) -> list[int]:
    """Each record's index among its parent's children, in one pass."""
    seen = [0] * (len(records) + 1)  # the root's parent, -1, is the spare last slot
    positions = []
    for record in records:
        parent = record[4]
        positions.append(seen[parent])
        seen[parent] += 1
    return positions


def _path(records: list[ElementRecord], positions: list[int], index: int) -> str:
    """``/root/child[i]/...`` for record ``index``."""
    steps: list[str] = []
    while index:  # only the root, record 0, has no parent
        name, _, _, _, parent = records[index]
        steps.append(f"/{name}[{positions[index]}]")
        index = parent
    steps.append(f"/{records[0][0]}")
    return "".join(reversed(steps))


def validate(document: Document | ElementRecords, dtd: Dtd) -> list[Violation]:
    """All DTD violations in the document (empty list = valid)."""
    return CompiledDtd(dtd).violations(document)


def is_valid(document: Document | ElementRecords, dtd: Dtd) -> bool:
    """Convenience wrapper: does the document satisfy the DTD?"""
    return not validate(document, dtd)

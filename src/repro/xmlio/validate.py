"""Validation of documents against a DTD.

The motivating application of schema inference (Section 1.1): with a
DTD in hand, documents can be checked automatically.  A
:class:`CompiledDtd` turns each element name into a rule the first time
a walk meets it; ``Children`` content models become a
:class:`~repro.regex.language.Matcher`, whose lazily determinized
Glushkov automaton costs one table lookup per child.  Every violation
is reported with the element path, so the noisy-XHTML experiment can
count and classify errors rather than stop at the first one.  The walk
is iterative, so document depth is not bounded by the interpreter's
recursion limit (ALGORITHMS.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

from ..regex.language import Matcher
from .dtd import AttributeDef, Children, ContentModel, Dtd, Empty, Mixed
from .tree import Document, Element


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


#: A walk entry: (element, index among its siblings, parent entry).
_Entry: TypeAlias = tuple[Element, int, "_Entry | None"]


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
        self._matchers: list[Matcher] = []

    @property
    def models_compiled(self) -> int:
        """``Children`` content models compiled into matchers so far."""
        return len(self._matchers)

    @property
    def transitions(self) -> int:
        """Transition-table entries the matchers have built so far."""
        return sum(matcher.transitions for matcher in self._matchers)

    def _compile(self, name: str) -> _Rule:
        model = self.dtd.elements.get(name)
        matcher = None
        allowed: frozenset[str] = frozenset()
        if isinstance(model, Children):
            matcher = Matcher(model.regex)
            self._matchers.append(matcher)
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

    def violations(self, document: Document) -> list[Violation]:
        """All DTD violations in ``document``, in document order.

        A wrong root comes first; then each element's own violations
        (content, then attributes) precede its descendants'.  An
        element's path is built only when it has a violation.
        """
        from ..contracts import check_compiled_verdict, contracts_enabled

        checking = contracts_enabled()
        root = document.root
        found: list[Violation] = []
        start = self.dtd.start
        if start is not None and root.name != start:
            found.append(
                Violation(
                    path=f"/{root.name}",
                    element=root.name,
                    kind="bad-root",
                    detail=f"root is {root.name!r}, DTD expects {start!r}",
                )
            )
        rules = self._rules
        pending: list[tuple[str, str]] = []
        # Pre-order walk.  An entry is (element, sibling index, parent
        # entry): the chain up to the root is the element's path, built
        # only when the element has a violation.
        stack: list[_Entry] = [(root, 0, None)]
        while stack:
            entry = stack.pop()
            element = entry[0]
            name = element.name
            rule = rules.get(name) or self._compile(name)
            children = element.children
            model = rule.model
            matcher = rule.matcher
            if matcher is not None:
                assert isinstance(model, Children)
                if element.text_chunks and element.has_text():
                    detail = f"element {name!r} has element content but contains character data"
                    pending.append(("unexpected-text", detail))
                word = [child.name for child in children]
                verdict = matcher.accepts(word)
                if checking:
                    check_compiled_verdict(model.regex, word, verdict, name)
                if not verdict:
                    detail = f"children {' '.join(word) or '(none)'} do not match {model.render()}"
                    pending.append(("bad-content", detail))
            elif isinstance(model, Mixed):
                for child in children:
                    if child.name not in rule.allowed:
                        detail = f"child {child.name!r} not allowed in mixed content of {name!r}"
                        pending.append(("bad-content", detail))
            elif model is None:
                pending.append(("undeclared-element", f"element {name!r} is not declared"))
            elif isinstance(model, Empty):
                if children or element.has_text():
                    pending.append(("bad-content", f"element {name!r} is declared EMPTY"))
            # Any: nothing to check.
            declared = rule.declared
            if declared is not None:
                attributes = element.attributes
                for attribute in attributes:
                    if attribute not in declared:
                        detail = f"attribute {attribute!r} not declared on {name!r}"
                        pending.append(("undeclared-attribute", detail))
                for attribute in rule.required:
                    if attribute not in attributes:
                        detail = f"required attribute {attribute!r} missing on {name!r}"
                        pending.append(("missing-attribute", detail))
            if pending:
                path = _path(entry)
                found.extend(
                    Violation(path=path, element=name, kind=kind, detail=detail)
                    for kind, detail in pending
                )
                pending.clear()
            if children:
                index = len(children)
                for child in reversed(children):
                    index -= 1
                    stack.append((child, index, entry))
        return found


def _path(entry: _Entry) -> str:
    """``/root/child[i]/...`` for the element of ``entry``."""
    steps: list[str] = []
    parent = entry[2]
    while parent is not None:
        steps.append(f"/{entry[0].name}[{entry[1]}]")
        entry, parent = parent, parent[2]
    steps.append(f"/{entry[0].name}")
    return "".join(reversed(steps))


def validate(document: Document, dtd: Dtd) -> list[Violation]:
    """All DTD violations in the document (empty list = valid)."""
    return CompiledDtd(dtd).violations(document)


def is_valid(document: Document, dtd: Dtd) -> bool:
    """Convenience wrapper: does the document satisfy the DTD?"""
    return not validate(document, dtd)

"""Glushkov (position) automata for regular expressions.

The Glushkov construction maps an RE to an automaton whose states are
the *positions* (syntactic occurrences) of alphabet symbols.  It is the
bridge between the two worlds of the paper:

* for a **SORE** every symbol occurs once, so positions coincide with
  symbols and the Glushkov automaton *is* the single occurrence
  automaton of Proposition 1;
* determinism (one-unambiguity, required of DTD content models by the
  XML specification) is exactly the property that no two distinct
  follow positions of a state carry the same label.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from ..errors import InternalError, UsageError
from .ast import Concat, Disj, Inter, Opt, Plus, Regex, Repeat, Star, Sym, concat


class InterleavingUnsupported(UsageError):
    """Raised when an ``Inter`` node reaches the Glushkov construction.

    A position automaton cannot express shuffle: a single position has
    no way to record how far each interleaved branch has progressed.
    Inter-containing expressions are handled by the derivative-based
    engine instead; :mod:`repro.regex.language` routes automatically.
    """


@dataclass(frozen=True, slots=True)
class Glushkov:
    """The position automaton of a regular expression.

    Attributes:
        labels: symbol name of each position (positions are indices).
        first: positions that can start a word.
        last: positions that can end a word.
        follow: ``follow[p]`` = positions that may come right after ``p``.
        nullable: whether the empty word is accepted.
    """

    labels: tuple[str, ...]
    first: frozenset[int]
    last: frozenset[int]
    follow: tuple[frozenset[int], ...]
    nullable: bool

    def is_deterministic(self) -> bool:
        """One-unambiguity test (Brüggemann-Klein & Wood).

        The source expression is deterministic iff no two distinct
        first positions share a label and, for every position, no two
        distinct follow positions share a label.
        """
        if _has_duplicate_labels(self.first, self.labels):
            return False
        return not any(
            _has_duplicate_labels(successors, self.labels)
            for successors in self.follow
        )

    def single_occurrence(self) -> bool:
        """True iff every symbol labels at most one position."""
        return len(set(self.labels)) == len(self.labels)

    def two_grams(self) -> set[tuple[str, str]]:
        """All symbol pairs ``ab`` that may occur adjacently in a word."""
        return {
            (self.labels[p], self.labels[q])
            for p in range(len(self.labels))
            for q in self.follow[p]
        }

    def first_symbols(self) -> frozenset[str]:
        return frozenset(self.labels[p] for p in self.first)

    def last_symbols(self) -> frozenset[str]:
        return frozenset(self.labels[p] for p in self.last)


@dataclass(frozen=True, slots=True)
class _Partial:
    positions: tuple[int, ...]
    first: frozenset[int]
    last: frozenset[int]
    nullable: bool


def _has_duplicate_labels(positions: Iterable[int], labels: tuple[str, ...]) -> bool:
    seen: set[str] = set()
    for position in positions:
        label = labels[position]
        if label in seen:
            return True
        seen.add(label)
    return False


def _desugar_repeat(node: Repeat) -> Regex:
    """Rewrite bounded repetition into the core operators.

    ``r{0,} -> r*``, ``r{k,} -> r ... r r+``, ``r{k,m}`` appends
    ``m - k`` nested optionals so that determinism is preserved
    (``(r (r)?)?`` rather than ``r? r?``).
    """
    inner, low, high = node.inner, node.low, node.high
    if high is None:
        if low == 0:
            return Star(inner)
        return concat(*[inner] * (low - 1), Plus(inner))
    optional_tail: Regex | None = None
    for _ in range(high - low):
        if optional_tail is None:
            optional_tail = Opt(inner)
        else:
            optional_tail = Opt(concat(inner, optional_tail))
    required: list[Regex] = [inner] * low
    pieces = required + ([optional_tail] if optional_tail is not None else [])
    if not pieces:
        raise UsageError("Repeat(r, 0, 0) denotes only epsilon; not representable")
    return concat(*pieces)


class _Builder:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.follow: list[set[int]] = []

    def build(self, regex: Regex) -> _Partial:
        if isinstance(regex, Sym):
            position = len(self.labels)
            self.labels.append(regex.name)
            self.follow.append(set())
            singleton = frozenset((position,))
            return _Partial((position,), singleton, singleton, False)
        if isinstance(regex, Repeat):
            return self.build(_desugar_repeat(regex))
        if isinstance(regex, Disj):
            parts = [self.build(option) for option in regex.options]
            return _Partial(
                tuple(p for part in parts for p in part.positions),
                frozenset().union(*(part.first for part in parts)),
                frozenset().union(*(part.last for part in parts)),
                any(part.nullable for part in parts),
            )
        if isinstance(regex, Concat):
            result = self.build(regex.parts[0])
            for part in regex.parts[1:]:
                right = self.build(part)
                for position in result.last:
                    self.follow[position].update(right.first)
                result = _Partial(
                    result.positions + right.positions,
                    result.first | right.first
                    if result.nullable
                    else result.first,
                    right.last | result.last if right.nullable else right.last,
                    result.nullable and right.nullable,
                )
            return result
        if isinstance(regex, Opt):
            inner = self.build(regex.inner)
            return _Partial(inner.positions, inner.first, inner.last, True)
        if isinstance(regex, (Plus, Star)):
            inner = self.build(regex.inner)
            for position in inner.last:
                self.follow[position].update(inner.first)
            return _Partial(
                inner.positions,
                inner.first,
                inner.last,
                inner.nullable or isinstance(regex, Star),
            )
        if isinstance(regex, Inter):
            raise InterleavingUnsupported(
                "interleaving (&) has no Glushkov position automaton; "
                "use the derivative-based engine in repro.regex.language"
            )
        raise InternalError(f"unknown regex node: {regex!r}")


def glushkov(regex: Regex) -> Glushkov:
    """Construct the Glushkov automaton of ``regex``."""
    builder = _Builder()
    partial = builder.build(regex)
    return Glushkov(
        labels=tuple(builder.labels),
        first=partial.first,
        last=partial.last,
        follow=tuple(frozenset(successors) for successors in builder.follow),
        nullable=partial.nullable,
    )

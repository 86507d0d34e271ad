"""Language comparisons across representations (SOA vs RE).

A SOA is deterministic when read as an acceptor — the state after a
prefix is just its last symbol — so it steps like the expression
engines of :mod:`repro.regex.language`, and comparing it against a
regular expression is that module's product breadth-first search
(:func:`~repro.regex.language.product_counterexample`), in either
direction.

These checks are exact and power both the test suite (e.g. Theorem 2's
``L(A) ⊆ L(iDTD(A))``) and the evaluation metrics.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..regex.ast import Regex
from ..regex.language import product_counterexample, regex_engine
from .soa import SOA

# DFA view of a SOA: None = start state, "" = dead state, else a symbol.
_DEAD = ""


class _SOAEngine:
    """Stepping engine over a SOA read as a DFA."""

    __slots__ = ("_soa", "alphabet")

    def __init__(self, soa: SOA, alphabet: Iterable[str] | None = None) -> None:
        self._soa = soa
        self.alphabet: list[str] = sorted(
            set(alphabet) if alphabet is not None else soa.symbols
        )

    def start(self) -> object:
        return None

    def step(self, state: object, symbol: str) -> object:
        if state == _DEAD:
            return _DEAD
        if state is None:
            return symbol if symbol in self._soa.initial else _DEAD
        return symbol if (state, symbol) in self._soa.edges else _DEAD

    def accepting(self, state: object) -> bool:
        if state == _DEAD:
            return False
        if state is None:
            return self._soa.accepts_empty
        return state in self._soa.final

    def alive(self, state: object) -> bool:
        return state != _DEAD


def soa_vs_regex_counterexample(
    soa: SOA, regex: Regex, alphabet: Iterable[str] | None = None
) -> tuple[str, ...] | None:
    """A shortest word in ``L(soa) \\ L(regex)``, or ``None`` if included."""
    return product_counterexample(_SOAEngine(soa, alphabet), regex_engine(regex))


def regex_vs_soa_counterexample(
    regex: Regex, soa: SOA
) -> tuple[str, ...] | None:
    """A shortest word in ``L(regex) \\ L(soa)``, or ``None`` if included."""
    return product_counterexample(regex_engine(regex), _SOAEngine(soa))


def soa_included_in_regex(soa: SOA, regex: Regex) -> bool:
    """``L(soa) ⊆ L(regex)``."""
    return soa_vs_regex_counterexample(soa, regex) is None


def regex_included_in_soa(regex: Regex, soa: SOA) -> bool:
    """``L(regex) ⊆ L(soa)``."""
    return regex_vs_soa_counterexample(regex, soa) is None


def soa_equivalent_to_regex(soa: SOA, regex: Regex) -> bool:
    """``L(soa) = L(regex)``."""
    return soa_included_in_regex(soa, regex) and regex_included_in_soa(regex, soa)

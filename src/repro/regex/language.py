"""Decision procedures on the languages denoted by regular expressions.

Every decision here is a breadth-first search over stepping engines
(:class:`Engine`).  Two of them run regular expressions:

* Inter-free expressions compile to a Glushkov automaton and run
  through an on-the-fly subset construction, which is cheap for the
  expression sizes that occur in DTDs (the paper's largest has 61
  symbols).
* Expressions containing interleaving (``&``) have no position
  automaton, so their states are Brzozowski derivative expressions in
  canonical form.  Shuffle products can blow up, so derivative-state
  exploration is bounded: past :data:`_INTER_STATE_CAP` distinct states
  a query raises :class:`InterleavingBudgetError` rather than running
  without bound — inclusion over ``&`` is decided within that budget.

:mod:`repro.automata.compare` adds a third, over a SOA read as a DFA,
and runs it through the same :func:`product_counterexample`.

Words are sequences of element names (``tuple[str, ...]`` or
``list[str]``), *not* character strings: DTD content models speak about
children element sequences.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from collections.abc import Iterator, Sequence
from typing import Protocol

from ..errors import CorpusError
from .ast import Inter, Regex
from .derivatives import EMPTY, derive, lifted_nullable, matches_by_derivatives
from .glushkov import Glushkov, glushkov
from .normalize import canonical

# A deterministic state of the on-the-fly subset construction: the
# frozen set of Glushkov positions we may be in.  ``None`` is the start
# state (no symbol consumed yet).
_State = frozenset | None

#: Distinct derivative states a single interleaving query may explore.
_INTER_STATE_CAP = 20_000


class InterleavingBudgetError(CorpusError):
    """An interleaving decision procedure exceeded its state budget.

    Shuffle languages are regular, but the derivative state space of a
    product query grows with the number of interleaved branches; rather
    than loop for minutes on adversarial expressions, queries give up
    past :data:`_INTER_STATE_CAP` distinct states.
    """


@lru_cache(maxsize=4096)
def _automaton(regex: Regex) -> Glushkov | None:
    """The Glushkov automaton of ``regex``; ``None`` if it interleaves."""
    if any(isinstance(node, Inter) for node in regex.walk()):
        return None
    return glushkov(regex)


def _step(automaton: Glushkov, state: _State, symbol: str) -> frozenset:
    labels = automaton.labels
    if state is None:
        return frozenset([p for p in automaton.first if labels[p] == symbol])
    follow = automaton.follow
    return frozenset(
        [q for p in state for q in follow[p] if labels[q] == symbol]
    )


def _accepting(automaton: Glushkov, state: _State) -> bool:
    if state is None:
        return automaton.nullable
    return not automaton.last.isdisjoint(state)


class Engine(Protocol):
    """A deterministic stepping view of a language over ``alphabet``.

    ``step`` from a state that is not ``alive`` stays not alive, and no
    such state is ``accepting``.
    """

    alphabet: list[str]

    def start(self) -> object: ...

    def step(self, state: object, symbol: str) -> object: ...

    def accepting(self, state: object) -> bool: ...

    def alive(self, state: object) -> bool: ...


class _GlushkovEngine:
    """Stepping engine over the position automaton (Inter-free input)."""

    __slots__ = ("_automaton", "alphabet")

    def __init__(self, automaton: Glushkov) -> None:
        self._automaton = automaton
        self.alphabet: list[str] = sorted(set(automaton.labels))

    def start(self) -> object:
        return None

    def step(self, state: object, symbol: str) -> object:
        assert state is None or isinstance(state, frozenset)
        return _step(self._automaton, state, symbol)

    def accepting(self, state: object) -> bool:
        assert state is None or isinstance(state, frozenset)
        return _accepting(self._automaton, state)

    def alive(self, state: object) -> bool:
        return state is None or bool(state)


class _DerivativeEngine:
    """Stepping engine over canonical derivative expressions.

    States are the lifted expressions of :mod:`repro.regex.derivatives`
    (a ``Regex``, or the ε/∅ markers).  Regex states are put in
    canonical form so that derivation-order noise (option ordering
    inside unions) does not multiply the state space.  The engine
    counts distinct states per *instance*; construct one per query.
    """

    __slots__ = ("alphabet", "_start", "_seen")

    def __init__(self, regex: Regex) -> None:
        self.alphabet: list[str] = sorted(regex.alphabet())
        self._start: object = canonical(regex)
        self._seen: set[object] = {self._start}

    def start(self) -> object:
        return self._start

    def step(self, state: object, symbol: str) -> object:
        derived = derive(state, symbol)
        if isinstance(derived, Regex):
            derived = canonical(derived)
        if derived not in self._seen:
            self._seen.add(derived)
            if len(self._seen) > _INTER_STATE_CAP:
                raise InterleavingBudgetError(
                    "interleaving query exceeded "
                    f"{_INTER_STATE_CAP} derivative states"
                )
        return derived

    def accepting(self, state: object) -> bool:
        return lifted_nullable(state)

    def alive(self, state: object) -> bool:
        return state is not EMPTY


def regex_engine(regex: Regex) -> Engine:
    """A fresh stepping engine for ``regex`` (one per query)."""
    automaton = _automaton(regex)
    if automaton is None:
        return _DerivativeEngine(regex)
    return _GlushkovEngine(automaton)


def matches(regex: Regex, word: Sequence[str]) -> bool:
    """Does ``word`` (a sequence of element names) belong to ``L(regex)``?"""
    automaton = _automaton(regex)
    if automaton is None:
        return matches_by_derivatives(regex, word)
    state: _State = None
    for symbol in word:
        state = _step(automaton, state, symbol)
        if not state:
            return False
    return _accepting(automaton, state)


class Matcher:
    """Membership in ``L(regex)`` for many words, compiled once.

    Inter-free expressions run the subset construction of
    :func:`matches` lazily and keep it: each ``(state, symbol)``
    transition is computed by :func:`_step` once and memoised, so a
    word costs one dict lookup per symbol once its transitions exist.
    For a deterministic expression every reachable state is a single
    position.  Expressions with interleaving keep the derivative
    engine, uncached.

    Not thread-safe: build one per validation run.
    """

    __slots__ = ("_regex", "_automaton", "_table")

    def __init__(self, regex: Regex) -> None:
        self._regex = regex
        self._automaton = _automaton(regex)
        self._table: dict[tuple[_State, str], frozenset[int]] = {}

    @property
    def transitions(self) -> int:
        """``(state, symbol)`` entries built so far."""
        return len(self._table)

    def accepts(self, word: Sequence[str]) -> bool:
        automaton = self._automaton
        if automaton is None:
            return matches_by_derivatives(self._regex, word)
        table = self._table
        state: _State = None
        for symbol in word:
            key = (state, symbol)
            target = table.get(key)
            if target is None:
                target = table[key] = _step(automaton, state, symbol)
            if not target:
                return False
            state = target
        return _accepting(automaton, state)


def counterexample(
    narrower: Regex, wider: Regex
) -> tuple[str, ...] | None:
    """A shortest word in ``L(narrower) \\ L(wider)``, or ``None``.

    ``None`` therefore means ``L(narrower) ⊆ L(wider)``.
    """
    return product_counterexample(regex_engine(narrower), regex_engine(wider))


def product_counterexample(
    left: Engine, right: Engine
) -> tuple[str, ...] | None:
    """A shortest word ``left`` accepts and ``right`` rejects, or ``None``.

    Breadth-first over the product of the two engines, symbols in the
    order of ``left.alphabet``, so the witness is the first such word in
    shortlex order over that alphabet.
    """
    alphabet = left.alphabet
    start = (left.start(), right.start())
    seen: set[tuple[object, object]] = {start}
    queue: deque[tuple[object, object, tuple[str, ...]]] = deque(
        [(*start, ())]
    )
    while queue:
        left_state, right_state, word = queue.popleft()
        if left.accepting(left_state) and not right.accepting(right_state):
            return word
        for symbol in alphabet:
            next_left = left.step(left_state, symbol)
            if not left.alive(next_left):
                continue  # dead on the left: nothing to witness
            next_right = right.step(right_state, symbol)
            key = (next_left, next_right)
            if key not in seen:
                seen.add(key)
                queue.append((next_left, next_right, word + (symbol,)))
    return None


@lru_cache(maxsize=16384)
def _included_cached(narrower: Regex, wider: Regex) -> bool:
    return counterexample(narrower, wider) is None


def language_included(narrower: Regex, wider: Regex) -> bool:
    """``L(narrower) ⊆ L(wider)``.

    Memoized: expression nodes are frozen and hashable, and inclusion
    queries repeat heavily during generalization search, so the verdict
    (a single bool, not the counterexample word) sits behind an LRU.
    """
    return _included_cached(narrower, wider)


def language_equivalent(first: Regex, second: Regex) -> bool:
    """``L(first) = L(second)``.  Memoized via :func:`language_included`."""
    return language_included(first, second) and language_included(second, first)


def language_cache_info() -> dict[str, dict[str, int]]:
    """Hit/miss/size statistics for the language-level LRUs.

    Keys: ``automaton`` (the Glushkov construction cache) and
    ``inclusion`` (the memoized inclusion verdicts).  The API layer
    diffs these around the calls that consult them (validation and
    diff, both through ``automaton``) to surface ``--stats`` counters
    without threading a recorder through pure functions.
    """
    info: dict[str, dict[str, int]] = {}
    for name, fn in (("automaton", _automaton), ("inclusion", _included_cached)):
        stats = fn.cache_info()
        info[name] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": stats.currsize,
            "maxsize": stats.maxsize or 0,
        }
    return info


def clear_language_caches() -> None:
    """Drop the language-level LRUs (explicit invalidation hook)."""
    _automaton.cache_clear()
    _included_cached.cache_clear()


def enumerate_words(
    regex: Regex, max_length: int, limit: int | None = None
) -> Iterator[tuple[str, ...]]:
    """Yield the words of ``L(regex)`` of length at most ``max_length``.

    Words are produced in shortlex order (shortest first, symbols in
    sorted order), which makes the output deterministic — handy as a
    brute-force oracle in tests.  ``limit`` caps the number of words
    *before* anything is yielded: ``limit=0`` yields nothing,
    ``limit=1`` yields exactly the shortest word, ``limit=None`` (the
    default) enumerates everything up to ``max_length``.
    """
    if limit is not None and limit <= 0:
        return
    engine = regex_engine(regex)
    alphabet = engine.alphabet
    produced = 0
    queue: deque[tuple[object, tuple[str, ...]]] = deque([(engine.start(), ())])
    while queue:
        state, word = queue.popleft()
        if engine.accepting(state):
            yield word
            produced += 1
            if limit is not None and produced >= limit:
                return
        if len(word) >= max_length:
            continue
        for symbol in alphabet:
            next_state = engine.step(state, symbol)
            if engine.alive(next_state):
                queue.append((next_state, word + (symbol,)))
    return

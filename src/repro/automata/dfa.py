"""Explicit DFAs: subset construction and Hopcroft minimisation.

The language machinery elsewhere works with on-the-fly subset states;
this module materialises the DFA when an explicit object is worth
having — e.g. to measure minimal automaton sizes in the conciseness
benchmarks, or to run equivalence checks through a third independent
path (Glushkov simulation vs derivatives vs minimal-DFA isomorphism).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..regex.ast import Regex
from ..regex.glushkov import glushkov


@dataclass(frozen=True)
class DFA:
    """A complete DFA over an explicit alphabet.

    States are ``0..n-1`` with ``0`` the start state; ``transitions``
    maps ``(state, symbol)`` to a state; missing keys go to the
    implicit dead state ``-1`` (which is non-accepting and absorbing).
    """

    alphabet: frozenset[str]
    transitions: dict[tuple[int, str], int]
    accepting: frozenset[int]
    state_count: int

    def step(self, state: int, symbol: str) -> int:
        if state < 0:
            return -1
        return self.transitions.get((state, symbol), -1)

    def accepts(self, word: Iterable[str]) -> bool:
        state = 0
        for symbol in word:
            state = self.step(state, symbol)
            if state < 0:
                return False
        return state in self.accepting


def from_regex(regex: Regex) -> DFA:
    """Subset construction over the Glushkov automaton.

    States are numbered in discovery order over the sorted alphabet, so
    the table does not depend on ``PYTHONHASHSEED``.
    """
    automaton = glushkov(regex)
    alphabet = frozenset(automaton.labels)
    symbols = sorted(alphabet)
    # Subset states: None is the pre-first-symbol state.
    start: frozenset[int] | None = None
    index_of: dict[object, int] = {start: 0}
    order: list[object] = [start]
    transitions: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    if automaton.nullable:
        accepting.add(0)
    frontier = [start]
    while frontier:
        state = frontier.pop()
        state_index = index_of[state]
        for symbol in symbols:
            if state is None:
                positions = frozenset(
                    p for p in automaton.first if automaton.labels[p] == symbol
                )
            else:
                positions = frozenset(
                    q
                    for p in state
                    for q in automaton.follow[p]
                    if automaton.labels[q] == symbol
                )
            if not positions:
                continue  # dead
            if positions not in index_of:
                index_of[positions] = len(order)
                order.append(positions)
                frontier.append(positions)
                if any(p in automaton.last for p in positions):
                    accepting.add(index_of[positions])
            transitions[(state_index, symbol)] = index_of[positions]
    return DFA(
        alphabet=alphabet,
        transitions=transitions,
        accepting=frozenset(accepting),
        state_count=len(order),
    )


def minimize(dfa: DFA) -> DFA:
    """Hopcroft-style partition refinement (with an explicit dead state).

    Unreachable states cannot exist by construction; the dead state is
    added for completeness and removed again at the end if no surviving
    transition needs it.
    """
    states = list(range(dfa.state_count)) + [-1]
    accepting = set(dfa.accepting)
    partition: list[set[int]] = [set(), set()]
    for state in states:
        partition[0 if state in accepting else 1].add(state)
    partition = [block for block in partition if block]
    symbols = sorted(dfa.alphabet)

    changed = True
    while changed:
        changed = False
        block_of = {
            state: index
            for index, block in enumerate(partition)
            for state in block
        }

        def signature(state: int) -> tuple:
            return tuple(
                block_of[dfa.step(state, symbol)] for symbol in symbols
            )

        refined: list[set[int]] = []
        for block in partition:
            groups: dict[tuple, set[int]] = {}
            for state in block:
                groups.setdefault(signature(state), set()).add(state)
            refined.extend(groups.values())
            if len(groups) > 1:
                changed = True
        partition = refined

    # Renumber with the start state's block first and the dead block
    # (the one absorbing -1, i.e. all states equivalent to dead)
    # dropped entirely.
    live_blocks = [block for block in partition if -1 not in block]
    start_block = next((block for block in live_blocks if 0 in block), None)
    if start_block is None:  # start equivalent to dead: empty language
        return DFA(
            alphabet=dfa.alphabet,
            transitions={},
            accepting=frozenset(),
            state_count=1,
        )
    ordered = [start_block] + sorted(
        (block for block in live_blocks if block is not start_block),
        key=min,
    )
    renumber: dict[int, int] = {}
    for index, block in enumerate(ordered):
        for state in block:
            renumber[state] = index
    transitions: dict[tuple[int, str], int] = {}
    for (state, symbol), target in dfa.transitions.items():
        if state in renumber and target in renumber:
            transitions[(renumber[state], symbol)] = renumber[target]
    accepting_blocks = frozenset(
        renumber[state] for state in dfa.accepting if state in renumber
    )
    return DFA(
        alphabet=dfa.alphabet,
        transitions=transitions,
        accepting=accepting_blocks,
        state_count=len(ordered),
    )


def minimal_dfa_size(regex: Regex) -> int:
    """Number of states of the minimal complete DFA (sans dead state)."""
    return minimize(from_regex(regex)).state_count


def isomorphic(first: DFA, second: DFA) -> bool:
    """Graph isomorphism of two minimised DFAs (= language equality)."""
    if first.alphabet != second.alphabet:
        return False
    if first.state_count != second.state_count:
        return False
    mapping: dict[int, int] = {0: 0}
    frontier = [0]
    while frontier:
        state = frontier.pop()
        mate = mapping[state]
        if (state in first.accepting) != (mate in second.accepting):
            return False
        for symbol in first.alphabet:
            target = first.step(state, symbol)
            mate_target = second.step(mate, symbol)
            if (target < 0) != (mate_target < 0):
                return False
            if target < 0:
                continue
            if target in mapping:
                if mapping[target] != mate_target:
                    return False
            else:
                mapping[target] = mate_target
                frontier.append(target)
    return True

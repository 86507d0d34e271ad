"""Re-implementation of Trang's DTD inference (Section 8.1).

James Clark's Trang is a schema converter with an inference mode; the
paper reverse-engineered its machinery: *"it uses 2T-INF to construct
an automaton, eliminates cycles by merging all nodes in the same
strongly connected component, and then transforms the obtained DAG into
a regular expression"*, noting that no target class is specified, that
its output usually coincides with CRX, and that on ``example1`` the
output depends on the order in which the examples are presented —
yielding either ``a1* a2? a3*`` or the exact ``a1+ + (a2? a3+)``.

This module follows that description:

1. 2T-INF gives the 2-gram automaton;
2. every non-trivial SCC (or self-loop) is contracted to
   ``(a1 + ... + ak)+``;
3. the remaining DAG is linearised with structural quantifiers — a
   block is optional when some accepting path avoids it;
4. when the sample's words split into alphabet-disjoint groups, each
   group becomes a disjunction branch — *if* the input presented the
   groups contiguously.  An interleaved presentation merges the groups
   into a single chain, which reproduces the reported order
   sensitivity (the behaviour the paper uses to argue for a formal
   target class).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..automata.scc import strongly_connected_components
from ..automata.soa import SOA
from ..errors import CorpusError
from ..learning.tinf import tinf
from ..regex.ast import Opt, Plus, Regex, Star, concat, disj, syms
from ..regex.normalize import simplify

Word = Sequence[str]


def _components(soa: SOA) -> list[set[str]]:
    """Connected components of the underlying undirected symbol graph."""
    neighbours: dict[str, set[str]] = {symbol: set() for symbol in soa.symbols}
    for a, b in soa.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen: set[str] = set()
    components: list[set[str]] = []
    for symbol in sorted(soa.symbols):
        if symbol in seen:
            continue
        component = {symbol}
        frontier = [symbol]
        while frontier:
            node = frontier.pop()
            for neighbour in neighbours[node]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        components.append(component)
    return components


def _contiguous_presentation(words: Sequence[Word], components: list[set[str]]) -> bool:
    """Were all words of each component presented consecutively?"""
    def component_of(word: Word) -> int | None:
        for index, component in enumerate(components):
            if word and word[0] in component:
                return index
        return None

    seen_closed: set[int] = set()
    current: int | None = None
    for word in words:
        index = component_of(word)
        if index is None or index == current:
            continue
        if index in seen_closed:
            return False
        if current is not None:
            seen_closed.add(current)
        current = index
    return True


def _chain_for_component(soa: SOA, component: set[str]) -> Regex:
    """Linearise one component's DAG of contracted SCCs."""
    edges = {(a, b) for (a, b) in soa.edges if a in component and b in component}
    successors: dict[str, set[str]] = {symbol: set() for symbol in component}
    for a, b in edges:
        successors[a].add(b)
    blocks = [
        tuple(sorted(block))
        for block in strongly_connected_components(
            sorted(component), lambda symbol: sorted(successors[symbol])
        )
    ]
    block_of = {
        symbol: index for index, members in enumerate(blocks) for symbol in members
    }
    dag: dict[int, set[int]] = {index: set() for index in range(len(blocks))}
    for a, b in edges:
        u, v = block_of[a], block_of[b]
        if u != v:
            dag[u].add(v)

    # Merge singleton blocks with identical neighbourhoods into one
    # disjunction block (mirrors Algorithm 3 steps 2-3; Trang's output
    # shows the same grouping, e.g. ``(volume | month)?`` in refinfo).
    # Loopiness is decided per original SCC: merged alternatives do not
    # repeat just because they were grouped.
    loops: dict[int, bool] = {
        index: len(members) > 1
        or any((symbol, symbol) in edges for symbol in members)
        for index, members in enumerate(blocks)
    }
    merged: dict[int, tuple[str, ...]] = dict(enumerate(blocks))
    changed = True
    while changed:
        changed = False
        predecessors = {
            index: frozenset(t for t, heads in dag.items() if index in heads)
            for index in merged
        }
        groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
        for index in sorted(merged):
            if len(merged[index]) != 1:
                continue
            key = (predecessors[index], frozenset(dag[index]))
            groups.setdefault(key, []).append(index)
        for candidates in groups.values():
            if len(candidates) < 2:
                continue
            keeper, *absorbed = candidates
            for index in absorbed:
                merged[keeper] = tuple(sorted(merged[keeper] + merged[index]))
                loops[keeper] = loops[keeper] or loops[index]
                for heads in dag.values():
                    if index in heads:
                        heads.discard(index)
                        heads.add(keeper)
                dag[keeper].update(dag[index])
                dag[keeper].discard(keeper)
                del dag[index]
                del merged[index]
            changed = True
            break

    blocks = [merged[index] for index in sorted(merged)]
    block_loops = [loops[index] for index in sorted(merged)]
    renumber = {old: new for new, old in enumerate(sorted(merged))}
    dag = {
        renumber[tail]: {renumber[head] for head in heads}
        for tail, heads in dag.items()
    }
    indegree = {index: 0 for index in range(len(blocks))}
    for heads in dag.values():
        for head in heads:
            indegree[head] += 1
    available = sorted(i for i, d in indegree.items() if d == 0)
    order: list[int] = []
    while available:
        node = available.pop(0)
        order.append(node)
        for head in sorted(dag[node]):
            indegree[head] -= 1
            if indegree[head] == 0:
                available.append(head)
        available.sort()

    factors: list[Regex] = []
    for index in order:
        members = blocks[index]
        looping = block_loops[index]
        base: Regex = disj(*syms(members))
        block = Plus(base) if looping else base
        if not self_mandatory(soa, component, set(members)):
            block = Star(base) if looping else Opt(base)
        factors.append(block)
    return concat(*factors)


def self_mandatory(soa: SOA, component: set[str], members: set[str]) -> bool:
    """Does every accepting path through the component hit ``members``?

    Structural counterpart of CRX's occurrence counting: a block is
    mandatory when no accepting path avoids it.
    """
    remaining = component - members
    if not remaining:
        return True
    start = soa.initial & remaining
    finals = soa.final & remaining
    if soa.accepts_empty:
        return False
    if not start:
        return True
    reachable = set(start)
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        if node in finals:
            return False
        for a, b in soa.edges:
            if a == node and b in remaining and b not in reachable:
                reachable.add(b)
                frontier.append(b)
    return True


class TrangInference:
    """Order-aware Trang emulation; feed words, then call :meth:`infer`."""

    def __init__(self) -> None:
        self._words: list[tuple[str, ...]] = []

    def add(self, word: Word) -> None:
        self._words.append(tuple(word))

    def infer(self) -> Regex:
        return trang(self._words)


def trang(words: Sequence[Word]) -> Regex:
    """Infer a DTD content model the way Trang does.

    Raises ``ValueError`` on an all-empty sample (like CRX/iDTD, Trang
    would emit ``EMPTY`` at the DTD layer instead of an expression).
    """
    if not any(words):
        raise CorpusError("cannot infer an expression from empty content only")
    soa = tinf(words)
    components = [c for c in _components(soa) if c]
    if len(components) > 1 and _contiguous_presentation(words, components):
        components.sort(key=lambda c: min(c))
        branches = [_chain_for_component(soa, component) for component in components]
        result: Regex = disj(*branches)
    else:
        result = _chain_for_component(soa, soa.symbols)
    if soa.accepts_empty and not result.nullable():
        result = Opt(result)
    return simplify(result)

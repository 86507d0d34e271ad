"""Repair rules for iDTD (Section 6).

When the sample behind a SOA is not representative, ``rewrite`` gets
stuck: some edges of the intended automaton are missing, so no rule
precondition holds.  iDTD then *adds* a small set of edges — which can
only grow the language, keeping Theorem 2's ``L(A) ⊆ L(iDTD(A))`` —
chosen so that a rewrite rule becomes enabled:

* **enable-disjunction** equalises the neighbourhoods of a set of
  near-interchangeable states so ``disjunction`` can merge them.  Its
  precondition (b) (mutually adjacent states) fires on the Figure 2
  automaton for ``{a, c}`` and restores exactly the edges missing
  relative to Figure 1.  Precondition (a) accepts pairs whose
  neighbourhoods differ by at most ``k`` states on each side and
  overlap.
* **enable-optional** adds all bypass edges around a state so
  ``optional`` fires (and immediately removes them again); its
  precondition (a) wants at least one bypass edge as evidence, (b)
  covers the chain case ``Pred(r) = {r'}``.

Following the paper's implementation notes, precondition (a) of
enable-disjunction is only considered for pairs and the fuzziness
parameter defaults to ``k = 2``.  Within enable-disjunction we try the
strong-evidence precondition (b) before the similarity heuristic (a);
this is what reproduces the paper's Figure 2 → Figure 1 repair (on that
automaton, (a) would prefer the pair ``{b, c}`` and derive a different
super-approximation).

Each finder ranks its candidates by the number of edges they would add,
keeps the first of the cheapest, and builds the edges of that one only
(``docs/ALGORITHMS.md`` §4 states the rule and the count identity).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from ..automata.gfa import GFA, SINK, SOURCE, Closure
from ..contracts import check_repair_count, contracts_enabled
from ..obs.recorder import NULL_RECORDER, Recorder


@dataclass(frozen=True, slots=True)
class Repair:
    """One repair action: the rule used and the edges to add."""

    rule: str  # "enable_disjunction_b" | "enable_disjunction_a" | ...
    nodes: tuple[int, ...]
    new_edges: tuple[tuple[int, int], ...]

    def apply(self, gfa: GFA) -> None:
        for tail, head in self.new_edges:
            gfa.add_edge(tail, head)


def _equalising_gaps(
    closure: Closure, members: tuple[int, ...]
) -> list[tuple[int, frozenset[int], frozenset[int]]]:
    """Per member, the closure predecessors and successors it lacks.

    Each member's neighbourhood is raised to the union of the members'
    neighbourhoods outside the set itself (never from the sink, never
    to the source).
    """
    member_set = frozenset(members)
    preds = frozenset().union(*(closure.pred[m] for m in members)) - member_set - {SINK}
    succs = frozenset().union(*(closure.succ[m] for m in members)) - member_set - {SOURCE}
    return [(m, preds - closure.pred[m], succs - closure.succ[m]) for m in members]


def _internal_edges(gfa: GFA, members: tuple[int, ...]) -> int:
    return sum(len(gfa.successors(m).intersection(members)) for m in members)


def _equalising_edges(
    gfa: GFA, closure: Closure, members: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """The minimal edge additions enabling ``disjunction`` on ``members``.

    Externally, every member's closure neighbourhood is raised to the
    union of the members' neighbourhoods (outside the set itself).
    Internally, if any graph edge runs between members, the member
    clique is completed — including self-loops — so the merged set
    lands in case (ii) of the disjunction dichotomy.  On the Figure 2
    automaton with ``members = {a, c}`` this yields exactly the seven
    edges missing relative to Figure 1.  A graph edge is always a
    closure edge, so no external addition is in the graph already.
    """
    additions = {
        edge
        for member, preds, succs in _equalising_gaps(closure, members)
        for edge in [*((p, member) for p in preds), *((member, s) for s in succs)]
    }
    if _internal_edges(gfa, members):
        additions.update(
            (tail, head)
            for tail in members
            for head in members
            if not gfa.has_edge(tail, head)
        )
    return tuple(sorted(additions))


def _equalising_count(gfa: GFA, closure: Closure, members: tuple[int, ...]) -> int:
    """``len(_equalising_edges(gfa, closure, members))``, without the edges.

    External predecessor additions, external successor additions and
    internal clique edges are disjoint, so each part counts on its own.
    """
    gaps = _equalising_gaps(closure, members)
    count = sum(len(preds) + len(succs) for _member, preds, succs in gaps)
    internal = _internal_edges(gfa, members)
    return count + len(members) ** 2 - internal if internal else count


def _cheapest(
    rule: str,
    candidates: Iterable[tuple[int, ...]],
    count: Callable[[tuple[int, ...]], int],
    build: Callable[[tuple[int, ...]], tuple[tuple[int, int], ...]],
    recorder: Recorder,
    keep_empty: bool = False,
) -> Repair | None:
    """The first candidate adding the fewest edges, whose edges alone are built.

    Candidates are ranked by ``count`` with a strict ``<``, so ties keep
    the first; one adding no edge is passed over unless ``keep_empty``.
    """
    scored = 0
    best: tuple[int, ...] | None = None
    best_count = 0
    for nodes in candidates:
        scored += 1
        added = count(nodes)
        if (added or keep_empty) and (best is None or added < best_count):
            best, best_count = nodes, added
    recorder.count("repair.candidates", scored)
    if best is None:
        return None
    edges = build(best)
    if contracts_enabled():
        check_repair_count(rule, best, edges, best_count)
    return Repair(rule, best, edges)


def find_enable_disjunction_b(
    gfa: GFA, closure: Closure, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (b): a set of mutually adjacent states.

    Every member must be a closure-predecessor *and* -successor of every
    other member.  From each mutual pair, in sorted order, we grow a
    clique greedily through the sorted common neighbours, and prefer
    the candidate needing the fewest new edges (ties keep the first).
    Since the closure's ``pred`` is the transpose of its ``succ``, ``u``
    and ``v`` are mutual exactly when ``v ∈ succ[u] ∩ pred[u]``.
    """
    adjacent = {u: (closure.succ[u] & closure.pred[u]) - {u} for u in gfa.nodes()}

    def cliques() -> Iterator[tuple[int, ...]]:
        seen: set[tuple[int, ...]] = set()
        for u in sorted(adjacent):
            for v in sorted(w for w in adjacent[u] if w > u):
                clique = [u, v]
                common = adjacent[u] & adjacent[v]
                for candidate in sorted(common):
                    if candidate in common:
                        clique.append(candidate)
                        common &= adjacent[candidate]
                members = tuple(sorted(clique))
                if members not in seen:  # an equal set scores equal: a tie
                    seen.add(members)
                    yield members

    return _cheapest(
        "enable_disjunction_b",
        cliques(),
        lambda members: _equalising_count(gfa, closure, members),
        lambda members: _equalising_edges(gfa, closure, members),
        recorder,
        keep_empty=True,  # an empty winner: the ladder moves on to (a)
    )


def find_enable_disjunction_a(
    gfa: GFA, closure: Closure, k: int, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (a) for pairs: overlapping, nearly equal neighbourhoods.

    Neighbourhoods are compared modulo the pair itself (matching the
    disjunction rule's semantics), and the pair's internal structure
    must be absent or mutual: a one-directional edge between the two
    candidates means they are sequenced, not interchangeable — merging
    them would over-generalise (e.g. folding the trailing ``a5*`` of
    Table 2's example4 into the big disjunction).
    """

    def similar(u: int, v: int) -> bool:
        pair = {u, v}
        pred_u, pred_v = closure.pred[u] - pair, closure.pred[v] - pair
        succ_u, succ_v = closure.succ[u] - pair, closure.succ[v] - pair
        if not (pred_u & pred_v) or not (succ_u & succ_v):
            return False
        if (
            len(pred_u - pred_v) > k
            or len(pred_v - pred_u) > k
            or len(succ_u - succ_v) > k
            or len(succ_v - succ_u) > k
        ):
            return False
        # a one-directional edge: sequenced, not interchangeable
        return gfa.has_edge(u, v) == gfa.has_edge(v, u)

    nodes = sorted(gfa.nodes())
    return _cheapest(
        "enable_disjunction_a",
        (
            (u, v)
            for index, u in enumerate(nodes)
            for v in nodes[index + 1 :]
            if similar(u, v)
        ),
        lambda pair: _equalising_count(gfa, closure, pair),
        lambda pair: _equalising_edges(gfa, closure, pair),
        recorder,
    )


def _bypass_edges(closure: Closure, node: int) -> tuple[tuple[int, int], ...]:
    """All missing Pred(node) × (Succ(node) \\ {node}) edges.

    A graph edge is always a closure edge, so the closure decides.
    """
    successors = closure.succ[node] - {node, SOURCE}
    return tuple(
        sorted(
            (predecessor, successor)
            for predecessor in closure.pred[node] - {node, SINK}
            for successor in successors - closure.succ[predecessor]
        )
    )


def _bypass_count(closure: Closure, node: int) -> int:
    """``len(_bypass_edges(closure, node))``, without the edges."""
    successors = closure.succ[node] - {node, SOURCE}
    return sum(
        len(successors - closure.succ[predecessor])
        for predecessor in closure.pred[node] - {node, SINK}
    )


def find_enable_optional_a(
    gfa: GFA, closure: Closure, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (a): at least one bypass edge already exists.

    Among the candidates, prefer the node whose repair adds the fewest
    edges (so removes the most relative to what it adds — the paper
    notes case (a) nets at least one removed edge).  A candidate with
    no bypass edge to add has optional enabled already; rewrite
    handles it.
    """

    def has_bypass(node: int) -> bool:
        successors = closure.succ[node] - {node}
        return any(
            gfa.has_edge(predecessor, successor)
            for predecessor in closure.pred[node]
            for successor in successors
        )

    return _cheapest(
        "enable_optional_a",
        (
            (node,)
            for node in sorted(gfa.nodes())
            if not gfa.labels[node].nullable() and has_bypass(node)
        ),
        lambda single: _bypass_count(closure, *single),
        lambda single: _bypass_edges(closure, *single),
        recorder,
    )


def find_enable_optional_b(
    gfa: GFA, closure: Closure, k: int, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (b): a chain node, ``Pred(r) = {r'}``, small fan-out."""

    def chained(node: int) -> bool:
        predecessors = closure.pred[node]
        if gfa.labels[node].nullable() or len(predecessors) != 1:
            return False
        (sole,) = predecessors
        return sole not in (SOURCE, SINK) and len(closure.succ[sole] - {node, sole}) <= k

    return _cheapest(
        "enable_optional_b",
        ((node,) for node in sorted(gfa.nodes()) if chained(node)),
        lambda single: _bypass_count(closure, *single),
        lambda single: _bypass_edges(closure, *single),
        recorder,
    )


def search_repair(
    gfa: GFA, closure: Closure, k: int, max_k: int, recorder: Recorder = NULL_RECORDER
) -> tuple[Repair | None, int]:
    """The repair ladder at ``k``, escalating ``k`` up to ``max_k``.

    The ladder tries rule 1 before rule 2, (b) before (a).  Returns the
    repair (or ``None``) and the last ``k`` tried.  Disjunction (b) and
    optional (a) ignore ``k``, so escalating (Algorithm 2, line 5) reruns
    only disjunction (a) and optional (b), on the same ``closure``, at
    every ``k``.  Only (b) may return a repair adding no edge; the ladder
    passes it over.
    """
    repair = find_enable_disjunction_b(gfa, closure, recorder)
    if repair is not None and repair.new_edges:
        return repair, k
    repair = (
        find_enable_disjunction_a(gfa, closure, k, recorder)
        or find_enable_optional_a(gfa, closure, recorder)
        or find_enable_optional_b(gfa, closure, k, recorder)
    )
    while repair is None and k < max_k:
        k += 1
        repair = find_enable_disjunction_a(gfa, closure, k, recorder) or (
            find_enable_optional_b(gfa, closure, k, recorder)
        )
    return repair, k


def find_repair(gfa: GFA, k: int) -> Repair | None:
    """The paper's repair ladder: rule 1 before rule 2, (b) before (a)."""
    return search_repair(gfa, gfa.closure(), k, k)[0]

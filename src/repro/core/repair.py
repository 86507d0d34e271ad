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

from ..automata.gfa import GFA, SINK, SOURCE, Closure, mask_nodes, node_bit
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


def _equalising_gaps(closure: Closure, members: int) -> Iterator[tuple[int, int, int]]:
    """Per member, the masks of the closure predecessors and successors it lacks.

    ``members`` is the set's mask.  Each member's neighbourhood is
    raised to the union of the members' neighbourhoods outside the set
    itself (never from the sink, never to the source).
    """
    pred, succ = closure.pred, closure.succ
    preds = succs = 0
    for member in mask_nodes(members):
        preds |= pred[member]
        succs |= succ[member]
    preds &= ~(members | node_bit(SINK))
    succs &= ~(members | node_bit(SOURCE))
    for member in mask_nodes(members):
        yield member, preds & ~pred[member], succs & ~succ[member]


def _equalising_edges(
    gfa: GFA, closure: Closure, members: int
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
        for edge in [
            *((p, member) for p in mask_nodes(preds)),
            *((member, s) for s in mask_nodes(succs)),
        ]
    }
    if gfa.edges_among(members):
        additions.update(
            (tail, head)
            for tail in mask_nodes(members)
            for head in mask_nodes(members & ~gfa.successors(tail))
        )
    return tuple(sorted(additions))


def _equalising_count(gfa: GFA, closure: Closure, members: int) -> int:
    """``len(_equalising_edges(gfa, closure, members))``, without the edges.

    External predecessor additions, external successor additions and
    internal clique edges are disjoint, so each part counts on its own.
    One pass over the members gathers their neighbourhoods and counts
    the graph edges among them; a second counts each member's gaps.
    """
    pred, succ, successors = closure.pred, closure.succ, gfa.successors
    nodes = list(mask_nodes(members))
    preds = succs = internal = 0
    for member in nodes:
        preds |= pred[member]
        succs |= succ[member]
        internal += (successors(member) & members).bit_count()
    preds &= ~(members | node_bit(SINK))
    succs &= ~(members | node_bit(SOURCE))
    count = 0
    for member in nodes:
        count += (preds & ~pred[member]).bit_count() + (succs & ~succ[member]).bit_count()
    return count + len(nodes) ** 2 - internal if internal else count


def _cheapest(
    rule: str,
    candidates: Iterable[int],
    count: Callable[[int], int],
    build: Callable[[int], tuple[tuple[int, int], ...]],
    recorder: Recorder,
    keep_empty: bool = False,
) -> Repair | None:
    """The first candidate adding the fewest edges, whose edges alone are built.

    Each candidate is a node mask.  Candidates are ranked by ``count``
    with a strict ``<``, so ties keep the first; one adding no edge is
    passed over unless ``keep_empty``.
    """
    scored = 0
    best: int | None = None
    best_count = 0
    for nodes in candidates:
        scored += 1
        added = count(nodes)
        if (added or keep_empty) and (best is None or added < best_count):
            best, best_count = nodes, added
    recorder.count("repair.candidates", scored)
    if best is None:
        return None
    members = tuple(mask_nodes(best))
    edges = build(best)
    if contracts_enabled():
        check_repair_count(rule, members, edges, best_count)
    return Repair(rule, members, edges)


def find_enable_disjunction_b(
    gfa: GFA, closure: Closure, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (b): a set of mutually adjacent states.

    Every member must be a closure-predecessor *and* -successor of every
    other member.  From each mutual pair, in sorted order, we grow a
    clique greedily through the sorted common neighbours, and prefer
    the candidate needing the fewest new edges (ties keep the first).
    Since the closure's ``pred`` is the transpose of its ``succ``, ``u``
    and ``v`` are mutual exactly when ``v ∈ succ[u] ∩ pred[u]``.  Sets
    are masks; a mask's lowest bit is its smallest node.
    """
    adjacent = {
        u: closure.succ[u] & closure.pred[u] & ~node_bit(u) for u in gfa.nodes()
    }

    def cliques() -> Iterator[int]:
        seen: set[int] = set()
        for u in sorted(adjacent):
            above_u = -node_bit(u + 1)  # the bits of the nodes after u
            for v in mask_nodes(adjacent[u] & above_u):
                clique = node_bit(u) | node_bit(v)
                common = adjacent[u] & adjacent[v]
                while common:  # the smallest common neighbour joins
                    low = common & -common
                    clique |= low
                    common &= adjacent[low.bit_length() - 3]
                if clique not in seen:  # an equal set scores equal: a tie
                    seen.add(clique)
                    yield clique

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
        pair = ~(node_bit(u) | node_bit(v))
        pred_u, pred_v = closure.pred[u] & pair, closure.pred[v] & pair
        succ_u, succ_v = closure.succ[u] & pair, closure.succ[v] & pair
        if not (pred_u & pred_v) or not (succ_u & succ_v):
            return False
        if (
            (pred_u & ~pred_v).bit_count() > k
            or (pred_v & ~pred_u).bit_count() > k
            or (succ_u & ~succ_v).bit_count() > k
            or (succ_v & ~succ_u).bit_count() > k
        ):
            return False
        # a one-directional edge: sequenced, not interchangeable
        return gfa.has_edge(u, v) == gfa.has_edge(v, u)

    nodes = sorted(gfa.nodes())
    return _cheapest(
        "enable_disjunction_a",
        (
            node_bit(u) | node_bit(v)
            for index, u in enumerate(nodes)
            for v in nodes[index + 1 :]
            if similar(u, v)
        ),
        lambda pair: _equalising_count(gfa, closure, pair),
        lambda pair: _equalising_edges(gfa, closure, pair),
        recorder,
    )


def _bypass_sides(closure: Closure, own: int) -> tuple[int, int]:
    """The masks of Pred(node) and Succ(node), less the node and endpoints.

    ``own`` is the node's bit.
    """
    node = own.bit_length() - 3
    return (
        closure.pred[node] & ~(own | node_bit(SINK)),
        closure.succ[node] & ~(own | node_bit(SOURCE)),
    )


def _bypass_edges(closure: Closure, own: int) -> tuple[tuple[int, int], ...]:
    """All missing Pred(node) × (Succ(node) \\ {node}) edges.

    A graph edge is always a closure edge, so the closure decides.
    Ascending bits in both loops list the edges sorted.
    """
    predecessors, successors = _bypass_sides(closure, own)
    return tuple(
        (predecessor, successor)
        for predecessor in mask_nodes(predecessors)
        for successor in mask_nodes(successors & ~closure.succ[predecessor])
    )


def _bypass_count(closure: Closure, own: int) -> int:
    """``len(_bypass_edges(closure, own))``, without the edges."""
    predecessors, successors = _bypass_sides(closure, own)
    return sum(
        (successors & ~closure.succ[predecessor]).bit_count()
        for predecessor in mask_nodes(predecessors)
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
        successors = closure.succ[node] & ~node_bit(node)
        return any(
            gfa.successors(predecessor) & successors
            for predecessor in mask_nodes(closure.pred[node])
        )

    return _cheapest(
        "enable_optional_a",
        (
            node_bit(node)
            for node in sorted(gfa.nodes())
            if not gfa.labels[node].nullable() and has_bypass(node)
        ),
        lambda own: _bypass_count(closure, own),
        lambda own: _bypass_edges(closure, own),
        recorder,
    )


def find_enable_optional_b(
    gfa: GFA, closure: Closure, k: int, recorder: Recorder = NULL_RECORDER
) -> Repair | None:
    """Precondition (b): a chain node, ``Pred(r) = {r'}``, small fan-out."""

    def chained(node: int) -> bool:
        predecessors = closure.pred[node]
        if gfa.labels[node].nullable() or predecessors.bit_count() != 1:
            return False
        (sole,) = mask_nodes(predecessors)
        return sole not in (SOURCE, SINK) and (
            closure.succ[sole] & ~(node_bit(node) | node_bit(sole))
        ).bit_count() <= k

    return _cheapest(
        "enable_optional_b",
        (node_bit(node) for node in sorted(gfa.nodes()) if chained(node)),
        lambda own: _bypass_count(closure, own),
        lambda own: _bypass_edges(closure, own),
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

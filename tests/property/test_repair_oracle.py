"""The repair search against the finders and ladder it replaced.

The ``reference_*`` functions are the repair finders and the repair
ladder as they stood before candidates were deduplicated and scored by
count: each builds the full edge tuple for every candidate it keeps.
``reference_search`` is iDTD's old escalation loop, which reran the
whole ladder, on a fresh closure, at every ``k`` up to ``|nodes| + 3``
(Algorithm 2, line 5).  On random samples (2T-INF over random words of
4–16 symbols) the iDTD loop is driven round by round, and at every round
each current finder must return a ``Repair`` equal to its reference's,
and ``search_repair`` must return the reference ladder's repair and
``k``, from iDTD's own ``k`` and from ``k = 0``, which forces
escalation.  For every candidate, not only the winner, the current edge
functions must build the reference's edges and the counts must equal
their size.  The references keep their set algebra on the set-valued
reference closure; the current finders read the mask closure, carried
across each repair as iDTD carries it.
"""

from hypothesis import HealthCheck, given, settings

from repro.automata.gfa import GFA, SINK, SOURCE, Closure, node_bit
from repro.contracts import contracts_active
from repro.core.idtd import _carried_closure, _contract_scc
from repro.core.repair import (
    Repair,
    _bypass_count,
    _bypass_edges,
    _equalising_count,
    _equalising_edges,
    find_enable_disjunction_a,
    find_enable_disjunction_b,
    find_enable_optional_a,
    find_enable_optional_b,
    search_repair,
)
from repro.core.rewrite import rewrite_gfa
from repro.learning.tinf import tinf

from ..conftest import wide_samples
from .test_closure_bits import SetClosure, as_sets, reference_closure

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _has_internal_edge(gfa: GFA, members: tuple[int, ...]) -> bool:
    return any(gfa.has_edge(tail, head) for tail in members for head in members)


def reference_equalising_edges(
    gfa: GFA, closure: SetClosure, members: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    member_set = set(members)
    pred_union = set().union(*(closure.pred[m] for m in members)) - member_set
    succ_union = set().union(*(closure.succ[m] for m in members)) - member_set
    additions: set[tuple[int, int]] = set()
    for member in members:
        for predecessor in pred_union - closure.pred[member]:
            if predecessor != SINK:
                additions.add((predecessor, member))
        for successor in succ_union - closure.succ[member]:
            if successor != SOURCE:
                additions.add((member, successor))
    if _has_internal_edge(gfa, members):
        for tail in members:
            for head in members:
                if not gfa.has_edge(tail, head):
                    additions.add((tail, head))
    return tuple(sorted(edge for edge in additions if not gfa.has_edge(*edge)))


def reference_bypass_edges(
    gfa: GFA, closure: SetClosure, node: int
) -> tuple[tuple[int, int], ...]:
    additions = [
        (predecessor, successor)
        for predecessor in closure.pred[node] - {node}
        for successor in closure.succ[node] - {node}
        if predecessor != SINK
        and successor != SOURCE
        and not gfa.has_edge(predecessor, successor)
        and successor not in closure.succ[predecessor]
    ]
    return tuple(sorted(set(additions)))


def reference_enable_disjunction_b(gfa: GFA, closure: SetClosure) -> Repair | None:
    """Precondition (b): a set of mutually adjacent states.

    Every member must be a closure-predecessor *and* -successor of every
    other member.  We grow a maximal clique greedily from the best pair
    and prefer candidates needing the fewest new edges.
    """
    nodes = sorted(gfa.nodes())
    mutual = {
        (u, v)
        for u in nodes
        for v in nodes
        if u < v
        and v in closure.succ[u]
        and v in closure.pred[u]
        and u in closure.succ[v]
        and u in closure.pred[v]
    }
    if not mutual:
        return None
    best: Repair | None = None
    for u, v in sorted(mutual):
        clique = [u, v]
        for candidate in nodes:
            if candidate in clique:
                continue
            if all(
                (min(candidate, member), max(candidate, member)) in mutual
                for member in clique
            ):
                clique.append(candidate)
        members = tuple(sorted(clique))
        edges = reference_equalising_edges(gfa, closure, members)
        repair = Repair("enable_disjunction_b", members, edges)
        if best is None or len(edges) < len(best.new_edges):
            best = repair
    return best


def reference_enable_disjunction_a(
    gfa: GFA, closure: SetClosure, k: int
) -> Repair | None:
    nodes = sorted(gfa.nodes())
    best: Repair | None = None
    for index, u in enumerate(nodes):
        for v in nodes[index + 1 :]:
            pair = {u, v}
            pred_u, pred_v = closure.pred[u] - pair, closure.pred[v] - pair
            succ_u, succ_v = closure.succ[u] - pair, closure.succ[v] - pair
            if not (pred_u & pred_v) or not (succ_u & succ_v):
                continue
            if (
                len(pred_u - pred_v) > k
                or len(pred_v - pred_u) > k
                or len(succ_u - succ_v) > k
                or len(succ_v - succ_u) > k
            ):
                continue
            forward = gfa.has_edge(u, v)
            backward = gfa.has_edge(v, u)
            if forward != backward:
                continue  # sequenced, not interchangeable
            edges = reference_equalising_edges(gfa, closure, (u, v))
            if not edges:
                continue
            if best is None or len(edges) < len(best.new_edges):
                best = Repair("enable_disjunction_a", (u, v), edges)
    return best


def reference_enable_optional_a(gfa: GFA, closure: SetClosure) -> Repair | None:
    best: Repair | None = None
    for node in sorted(gfa.nodes()):
        if gfa.labels[node].nullable():
            continue
        predecessors = closure.pred[node]
        successors = closure.succ[node] - {node}
        has_bypass = any(
            gfa.has_edge(predecessor, successor)
            for predecessor in predecessors
            for successor in successors
        )
        if not has_bypass:
            continue
        edges = reference_bypass_edges(gfa, closure, node)
        if not edges:
            continue  # optional is already enabled; rewrite handles it
        if best is None or len(edges) < len(best.new_edges):
            best = Repair("enable_optional_a", (node,), edges)
    return best


def reference_enable_optional_b(gfa: GFA, closure: SetClosure, k: int) -> Repair | None:
    best: Repair | None = None
    for node in sorted(gfa.nodes()):
        if gfa.labels[node].nullable():
            continue
        predecessors = closure.pred[node]
        if len(predecessors) != 1:
            continue
        (sole,) = predecessors
        if sole in (SOURCE, SINK):
            continue
        if len(closure.succ[sole] - {node, sole}) > k:
            continue
        edges = reference_bypass_edges(gfa, closure, node)
        if not edges:
            continue
        if best is None or len(edges) < len(best.new_edges):
            best = Repair("enable_optional_b", (node,), edges)
    return best


def reference_find_repair(gfa: GFA, k: int) -> Repair | None:
    closure = reference_closure(gfa)
    for finder in (
        lambda: reference_enable_disjunction_b(gfa, closure),
        lambda: reference_enable_disjunction_a(gfa, closure, k),
        lambda: reference_enable_optional_a(gfa, closure),
        lambda: reference_enable_optional_b(gfa, closure, k),
    ):
        repair = finder()
        if repair is not None and repair.new_edges:
            return repair
    return None


def reference_search(gfa: GFA, current_k: int) -> tuple[Repair | None, int]:
    """iDTD's old loop: the whole ladder again at every escalated ``k``."""
    repair = reference_find_repair(gfa, current_k)
    while repair is None and current_k <= len(gfa.nodes()) + 2:
        current_k += 1  # Algorithm 2, line 5
        repair = reference_find_repair(gfa, current_k)
    return repair, current_k


def assert_counts_match_builds(
    gfa: GFA, closure: Closure, sets: SetClosure, clique: Repair | None
) -> None:
    """Every candidate builds the reference's edges, and scores their number."""
    nodes = sorted(gfa.nodes())
    for node in nodes:
        edges = reference_bypass_edges(gfa, sets, node)
        assert _bypass_edges(closure, node_bit(node)) == edges
        assert _bypass_count(closure, node_bit(node)) == len(edges)
    candidates = [(u, v) for index, u in enumerate(nodes) for v in nodes[index + 1 :]]
    if clique is not None:
        candidates.append(clique.nodes)
    for members in candidates:
        edges = reference_equalising_edges(gfa, sets, members)
        mask = sum(node_bit(member) for member in members)
        assert _equalising_edges(gfa, closure, mask) == edges
        assert _equalising_count(gfa, closure, mask) == len(edges)


@SETTINGS
@given(wide_samples())
def test_finders_match_the_old_ladder_at_every_round(words):
    gfa = GFA.from_soa(tinf(words))
    rounds_left = 4 * len(gfa.nodes()) + 16  # idtd_from_soa's own bound
    k = 2
    result = rewrite_gfa(gfa)
    with contracts_active():  # each finder checks its winner's count
        while not gfa.is_final():
            rounds_left -= 1
            assert rounds_left >= 0
            closure = gfa.closure()
            assert result.closure == closure  # the stuck graph's closure
            sets = reference_closure(gfa)
            assert as_sets(closure) == sets
            clique = reference_enable_disjunction_b(gfa, sets)
            assert find_enable_disjunction_b(gfa, closure) == clique
            assert find_enable_disjunction_a(gfa, closure, k) == (
                reference_enable_disjunction_a(gfa, sets, k)
            )
            assert find_enable_optional_a(gfa, closure) == (
                reference_enable_optional_a(gfa, sets)
            )
            assert find_enable_optional_b(gfa, closure, k) == (
                reference_enable_optional_b(gfa, sets, k)
            )
            assert_counts_match_builds(gfa, closure, sets, clique)
            max_k = len(gfa.nodes()) + 3
            assert search_repair(gfa, closure, 0, max_k) == reference_search(gfa, 0)
            reference = reference_search(gfa, k)
            repair, k = search_repair(gfa, closure, k, max_k)
            assert (repair, k) == reference
            if repair is not None:  # carried as iDTD carries it
                repair.apply(gfa)
                result = rewrite_gfa(
                    gfa, closure=_carried_closure(gfa, closure, repair)
                )
            else:
                assert _contract_scc(gfa)
                result = rewrite_gfa(gfa)

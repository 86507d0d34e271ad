"""The mask ε-closure against the set-valued search it replaced.

``reference_closure`` is ``GFA.closure`` as it stood when the closure
held one frozenset per node: a search from every node through nullable
nodes, then a self-edge on every plus-like label, then the transpose.
``as_sets`` reads a mask closure back into that shape through
:func:`repro.automata.gfa.mask_nodes`, so the oracles that keep the old
set algebra (here and in the repair and rewrite oracles) compare like
with like.

On seeded random GFAs, with nullable and plus-like labels, a
source→sink edge, merges and node ids of 62 and more (so masks span
more than one machine word), the mask closure must equal the reference,
and adding random edges must carry it to a fresh one.  iDTD is then
driven round by round on random 2T-INF samples: after every repair the
closure it carries must equal a fresh one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata.gfa import GFA, SINK, SOURCE, Closure, mask_nodes, node_bit
from repro.core.idtd import _carried_closure, _contract_scc
from repro.core.repair import Repair, search_repair
from repro.core.rewrite import rewrite_gfa
from repro.learning.tinf import tinf
from repro.regex.ast import Opt, Plus, Regex, Sym

from ..conftest import wide_samples

#: 300 seeded GFAs, in parametrized batches of 50.
SEED_BATCHES = [range(start, start + 50) for start in range(0, 300, 50)]

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@dataclass(frozen=True)
class SetClosure:
    """The ε-closure as one frozenset of nodes per node."""

    pred: dict[int, frozenset[int]]
    succ: dict[int, frozenset[int]]


def _is_plus_like(label: Regex) -> bool:
    return isinstance(label, Plus) or (
        isinstance(label, Opt) and isinstance(label.inner, Plus)
    )


def reference_closure(gfa: GFA) -> SetClosure:
    nullable = {node for node, label in gfa.labels.items() if label.nullable()}
    succ: dict[int, set[int]] = {}
    every_node = [SOURCE, SINK, *gfa.labels]
    for start in every_node:
        reachable: set[int] = set()
        frontier = list(mask_nodes(gfa.successors(start)))
        visited_through: set[int] = set()
        while frontier:
            node = frontier.pop()
            if node not in reachable:
                reachable.add(node)
                if node in nullable and node not in visited_through:
                    visited_through.add(node)
                    frontier.extend(mask_nodes(gfa.successors(node)))
        succ[start] = reachable
    for node, label in gfa.labels.items():
        if _is_plus_like(label):
            succ[node].add(node)
    pred: dict[int, set[int]] = {node: set() for node in every_node}
    for tail, heads in succ.items():
        for head in heads:
            pred[head].add(tail)
    return SetClosure(
        pred={node: frozenset(values) for node, values in pred.items()},
        succ={node: frozenset(values) for node, values in succ.items()},
    )


def as_sets(closure: Closure) -> SetClosure:
    return SetClosure(
        pred={node: frozenset(mask_nodes(mask)) for node, mask in closure.pred.items()},
        succ={node: frozenset(mask_nodes(mask)) for node, mask in closure.succ.items()},
    )


def _label(rng: random.Random, symbol: str) -> Regex:
    """A symbol, optional, plus-like or optional plus-like."""
    return rng.choice([Sym, Opt, Plus, lambda s: Opt(Plus(s))])(Sym(symbol))


def random_gfa(seed: int) -> GFA:
    """A random GFA whose node ids may start past one machine word."""
    rng = random.Random(seed)
    gfa = GFA()
    for _ in range(rng.choice([0, 0, 60, 70])):
        gfa.remove_node(gfa.add_node(Sym("gone")))
    nodes = [gfa.add_node(_label(rng, f"s{index}")) for index in range(rng.randint(1, 9))]
    tails, heads = [SOURCE, *nodes], [*nodes, SINK]
    for tail in tails:
        for head in heads:
            if rng.random() < 0.3:
                gfa.add_edge(tail, head)
    if rng.random() < 0.3:
        gfa.add_edge(SOURCE, SINK)
    for _ in range(rng.randint(0, 2)):
        if len(nodes) < 2:
            break
        members = rng.sample(nodes, rng.randint(2, min(3, len(nodes))))
        nodes = [node for node in nodes if node not in members]
        nodes.append(gfa.merge(members, _label(rng, f"m{len(gfa.labels)}")))
    return gfa


def test_bits_ascend_like_sorted_nodes():
    nodes = [SINK, SOURCE, 0, 1, 61, 62, 63, 64, 200]
    mask = 0
    for node in reversed(nodes):
        mask |= node_bit(node)
    assert list(mask_nodes(mask)) == sorted(nodes) == nodes
    assert node_bit(SINK) == 1 and node_bit(SOURCE) == 2
    assert list(mask_nodes(0)) == []


def _batch_id(seeds: range) -> str:
    return f"{seeds.start}-{seeds.stop - 1}"


@pytest.mark.parametrize("seeds", SEED_BATCHES, ids=_batch_id)
def test_mask_closure_matches_the_set_search(seeds):
    for seed in seeds:
        gfa = random_gfa(seed)
        assert as_sets(gfa.closure()) == reference_closure(gfa), seed


def test_random_gfas_reach_past_one_machine_word():
    gfas = [random_gfa(seed) for batch in SEED_BATCHES for seed in batch]
    assert max(max(gfa.nodes()) for gfa in gfas) >= 62
    assert any(gfa.has_edge(SOURCE, SINK) for gfa in gfas)


@pytest.mark.parametrize("seeds", SEED_BATCHES, ids=_batch_id)
def test_added_edges_carry_the_closure(seeds):
    for seed in seeds:
        gfa = random_gfa(seed)
        rng = random.Random(-seed)
        closure = gfa.closure()
        tails, heads = [SOURCE, *gfa.nodes()], [*gfa.nodes(), SINK]
        edges = tuple(
            (rng.choice(tails), rng.choice(heads)) for _ in range(rng.randint(1, 4))
        )
        repair = Repair("test", (), edges)
        repair.apply(gfa)
        carried = _carried_closure(gfa, closure, repair)
        assert carried == gfa.closure(), seed
        assert as_sets(carried) == reference_closure(gfa), seed


@SETTINGS
@given(wide_samples())
def test_idtd_carries_the_closure_across_every_repair(words):
    gfa = GFA.from_soa(tinf(words))
    result = rewrite_gfa(gfa)
    k = 2
    while not gfa.is_final():
        assert result.closure == gfa.closure()
        assert as_sets(result.closure) == reference_closure(gfa)
        repair, k = search_repair(gfa, result.closure, k, len(gfa.nodes()) + 3)
        if repair is None:
            assert _contract_scc(gfa)
            result = rewrite_gfa(gfa)
            continue
        repair.apply(gfa)
        carried = _carried_closure(gfa, result.closure, repair)
        assert carried == gfa.closure()
        assert as_sets(carried) == reference_closure(gfa)
        result = rewrite_gfa(gfa, closure=carried)

"""GFA mechanics: mutation, merge semantics, ε-closure, acceptance."""

import random

import pytest

from repro.automata.gfa import GFA, SINK, SOURCE, Closure, mask_nodes, node_bit
from repro.automata.soa import SOA
from repro.regex.ast import Opt, Plus, Sym
from repro.regex.parser import parse_regex


def small_soa() -> SOA:
    return SOA(
        symbols={"a", "b"},
        initial={"a"},
        final={"b"},
        edges={("a", "b"), ("b", "b")},
    )


class TestStructure:
    def test_from_soa(self):
        gfa = GFA.from_soa(small_soa())
        assert len(gfa.nodes()) == 2
        labels = {str(label) for label in gfa.labels.values()}
        assert labels == {"a", "b"}
        assert len(gfa.edge_list()) == 4

    def test_from_soa_with_empty_adds_source_sink_edge(self):
        soa = small_soa()
        soa.accepts_empty = True
        gfa = GFA.from_soa(soa)
        assert gfa.has_edge(SOURCE, SINK)

    def test_add_remove_node(self):
        gfa = GFA()
        node = gfa.add_node(Sym("x"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, SINK)
        assert gfa.is_final()
        gfa.remove_node(node)
        assert gfa.nodes() == []
        assert gfa.edge_list() == []

    def test_relabel_rejects_endpoints(self):
        gfa = GFA()
        with pytest.raises(ValueError):
            gfa.relabel(SOURCE, Sym("x"))

    def test_unknown_edge_endpoint_rejected(self):
        gfa = GFA()
        with pytest.raises(KeyError):
            gfa.add_edge(0, 1)

    def test_merge_redirects_and_self_loops(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(a, b)
        gfa.add_edge(b, a)
        gfa.add_edge(b, c)
        gfa.add_edge(c, SINK)
        merged = gfa.merge([a, b], parse_regex("a + b"))
        assert gfa.has_edge(SOURCE, merged)
        assert gfa.has_edge(merged, merged)  # internal a<->b edges
        assert gfa.has_edge(merged, c)

    def test_merge_without_internal_edges_has_no_self_loop(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(SOURCE, b)
        gfa.add_edge(a, SINK)
        gfa.add_edge(b, SINK)
        merged = gfa.merge([a, b], parse_regex("a + b"))
        assert not gfa.has_edge(merged, merged)
        assert gfa.is_final()

    def test_is_single_occurrence(self):
        gfa = GFA.from_soa(small_soa())
        assert gfa.is_single_occurrence()
        gfa.add_node(Sym("a"))  # duplicates the symbol a
        assert not gfa.is_single_occurrence()

    def test_copy_is_independent(self):
        gfa = GFA.from_soa(small_soa())
        clone = gfa.copy()
        node = clone.nodes()[0]
        clone.remove_node(node)
        assert len(gfa.nodes()) == 2


def closure_sets(closure: Closure):
    """Per-node closure successors and predecessors, read as sets."""
    return (
        lambda node: set(mask_nodes(closure.succ[node])),
        lambda node: set(mask_nodes(closure.pred[node])),
    )


class TestClosure:
    def test_masks_hold_bit_node_plus_two(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(a, SINK)
        closure = gfa.closure()
        assert closure.succ[SOURCE] == node_bit(a) == 1 << (a + 2)
        assert closure.succ[a] == node_bit(SINK) == 1
        assert closure.pred[a] == node_bit(SOURCE) == 2
        assert closure.pred[SOURCE] == closure.succ[SINK] == 0

    def test_plus_like_nodes_get_self_edges(self):
        gfa = GFA()
        plus = gfa.add_node(Plus(Sym("a")))
        optional_plus = gfa.add_node(Opt(Plus(Sym("b"))))
        plain = gfa.add_node(Sym("c"))
        closure = gfa.closure()
        succ, pred = closure_sets(closure)
        assert plus in succ(plus)
        assert optional_plus in succ(optional_plus)
        assert plain not in succ(plain)

    def test_paths_through_nullable_nodes(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Opt(Sym("b")))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(SOURCE, a)
        gfa.add_edge(a, b)
        gfa.add_edge(b, c)
        gfa.add_edge(c, SINK)
        closure = gfa.closure()
        succ, pred = closure_sets(closure)
        assert c in succ(a)  # through nullable b
        assert a in pred(c)
        assert c in succ(b)  # direct edge
        assert SINK in succ(c)
        assert SINK not in succ(b)  # c is not nullable
        assert SOURCE in pred(a)

    def test_non_nullable_nodes_block_paths(self):
        gfa = GFA()
        a = gfa.add_node(Sym("a"))
        b = gfa.add_node(Sym("b"))
        c = gfa.add_node(Sym("c"))
        gfa.add_edge(a, b)
        gfa.add_edge(b, c)
        closure = gfa.closure()
        succ, pred = closure_sets(closure)
        assert c not in succ(a)


class TestAcceptance:
    def test_gfa_accepts_by_labels(self):
        gfa = GFA()
        node = gfa.add_node(parse_regex("a b?"))
        tail = gfa.add_node(parse_regex("c+"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, tail)
        gfa.add_edge(tail, SINK)
        assert gfa.accepts(("a", "c"))
        assert gfa.accepts(("a", "b", "c", "c"))
        assert not gfa.accepts(("a", "b"))
        assert not gfa.accepts(("b", "c"))

    def test_empty_word_via_source_sink_edge(self):
        soa = small_soa()
        soa.accepts_empty = True
        gfa = GFA.from_soa(soa)
        assert gfa.accepts(())

    def test_final_regex(self):
        gfa = GFA()
        node = gfa.add_node(parse_regex("a+"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, SINK)
        assert gfa.final_regex() == parse_regex("a+")
        gfa.add_node(Sym("z"))
        with pytest.raises(ValueError):
            gfa.final_regex()


class SetGraph:
    """The GFA's reference model: labels and one set of edge pairs."""

    def __init__(self) -> None:
        self.labels: dict[int, object] = {}
        self.edges: set[tuple[int, int]] = set()
        self.next_id = 0

    def add_node(self, label) -> int:
        node = self.next_id
        self.next_id += 1
        self.labels[node] = label
        return node

    def remove_node(self, node: int) -> None:
        del self.labels[node]
        self.edges = {edge for edge in self.edges if node not in edge}

    def merge(self, nodes: list[int], label) -> int:
        new_node = self.add_node(label)
        renamed = {node: new_node for node in nodes}
        self.edges = {
            (renamed.get(tail, tail), renamed.get(head, head)) for tail, head in self.edges
        }
        for node in nodes:
            del self.labels[node]
        return new_node

    def is_final(self) -> bool:
        if len(self.labels) != 1:
            return False
        (node,) = self.labels
        return self.edges == {(SOURCE, node), (node, SINK)}

    def closure(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """Successors and predecessors in the ε-closure, by graph search."""
        nullable = {node for node, label in self.labels.items() if label.nullable()}
        every_node = [SOURCE, SINK, *self.labels]
        succ: dict[int, set[int]] = {}
        for start in every_node:
            reached: set[int] = set()
            frontier = [head for tail, head in self.edges if tail == start]
            while frontier:
                node = frontier.pop()
                if node not in reached:
                    reached.add(node)
                    if node in nullable:
                        frontier.extend(head for tail, head in self.edges if tail == node)
            succ[start] = reached
        for node, label in self.labels.items():
            if isinstance(label, Plus) or (
                isinstance(label, Opt) and isinstance(label.inner, Plus)
            ):
                succ[node].add(node)
        pred: dict[int, set[int]] = {node: set() for node in every_node}
        for tail, heads in succ.items():
            for head in heads:
                pred[head].add(tail)
        return succ, pred


def random_label(rng, symbol: str):
    shape = rng.randrange(4)
    if shape == 0:
        return Sym(symbol)
    if shape == 1:
        return Opt(Sym(symbol))
    if shape == 2:
        return Plus(Sym(symbol))
    return Opt(Plus(Sym(symbol)))


def assert_gfa_matches(gfa: GFA, model: SetGraph, rng) -> None:
    assert sorted(gfa.nodes()) == sorted(model.labels)
    every_node = [SOURCE, SINK, *model.labels]
    for tail in every_node:
        for head in every_node:
            assert gfa.has_edge(tail, head) == ((tail, head) in model.edges)
    assert sorted(gfa.edge_list()) == sorted(model.edges)
    assert gfa.is_final() == model.is_final()
    for _ in range(3):
        members = {node for node in every_node if rng.random() < 0.5}
        mask = sum(node_bit(node) for node in members)
        expected = sum(1 for tail, head in model.edges if tail in members and head in members)
        assert gfa.edges_among(mask) == expected
    closure = gfa.closure()
    succ, pred = model.closure()
    assert {node: set(mask_nodes(mask)) for node, mask in closure.succ.items()} == succ
    assert {node: set(mask_nodes(mask)) for node, mask in closure.pred.items()} == pred


GFA_SEEDS = range(240)


@pytest.mark.parametrize("first", range(0, len(GFA_SEEDS), 40), ids=lambda s: f"{s}-{s + 39}")
def test_mask_adjacency_matches_a_set_model(first):
    """Random mutation sequences keep the masks equal to a set-valued model."""
    finals = 0
    for seed in GFA_SEEDS[first : first + 40]:
        rng = random.Random(seed)
        gfa, model = GFA(), SetGraph()
        symbols = (f"s{index}" for index in range(10_000))
        for _ in range(rng.randint(1, 5)):
            label = random_label(rng, next(symbols))
            assert gfa.add_node(label) == model.add_node(label)
        for _ in range(40):
            nodes = sorted(model.labels)
            operation = rng.randrange(10) if nodes else 9
            if operation < 5:  # add_edge, the most frequent
                tail = rng.choice([SOURCE, *nodes])
                head = rng.choice([SINK, *nodes])
                gfa.add_edge(tail, head)
                model.edges.add((tail, head))
            elif operation < 7:
                tail, head = rng.choice(sorted(model.edges) or [(SOURCE, SINK)])
                gfa.remove_edge(tail, head)
                model.edges.discard((tail, head))
            elif operation == 7:
                members = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
                label = random_label(rng, next(symbols))
                assert gfa.merge(members, label) == model.merge(members, label)
            elif operation == 8:
                node = rng.choice(nodes)
                gfa.remove_node(node)
                model.remove_node(node)
            else:
                label = random_label(rng, next(symbols))
                assert gfa.add_node(label) == model.add_node(label)
            assert_gfa_matches(gfa, model, rng)
            finals += model.is_final()
    assert finals  # both outcomes of is_final were compared

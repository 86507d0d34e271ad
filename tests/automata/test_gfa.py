"""GFA mechanics: mutation, merge semantics, ε-closure, acceptance."""

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

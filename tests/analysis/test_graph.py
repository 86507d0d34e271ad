"""Unit tests for the analyzer's graph substrate (:mod:`repro_lint.graph`).

The whole-program rules lean on three graph operations — BFS
reachability with provenance, Tarjan SCCs, and cycle extraction — so
each gets direct coverage here, including determinism across insertion
orders (rule output ordering depends on it).
"""

from __future__ import annotations

from repro_lint.graph import DiGraph


def build(edges: list[tuple[str, str]], nodes: tuple[str, ...] = ()) -> DiGraph:
    graph = DiGraph()
    for node in nodes:
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


class TestDiGraph:
    def test_nodes_sorted_and_deduped(self):
        graph = build([("b", "c"), ("a", "b"), ("a", "b")], nodes=("z",))
        assert graph.nodes() == ["a", "b", "c", "z"]
        assert len(graph) == 4

    def test_edges_deduped_and_sorted(self):
        graph = build([("a", "c"), ("a", "b"), ("a", "c")])
        assert graph.edges() == [("a", "b"), ("a", "c")]
        assert graph.edge_count == 2
        assert graph.successors("a") == ["b", "c"]

    def test_contains(self):
        graph = build([("a", "b")])
        assert "a" in graph and "b" in graph
        assert "zz" not in graph

    def test_successors_of_unknown_node_is_empty(self):
        assert build([("a", "b")]).successors("nope") == []


class TestReachability:
    def test_bfs_reaches_transitively(self):
        graph = build([("a", "b"), ("b", "c"), ("x", "y")])
        closure = graph.reachable_from(["a"])
        assert closure.reached == {"a", "b", "c"}
        assert "y" not in closure

    def test_provenance_points_at_the_root(self):
        graph = build([("r1", "m"), ("m", "leaf"), ("r2", "other")])
        closure = graph.reachable_from(["r1", "r2"])
        assert closure.root_of("r1") == "r1"
        assert closure.root_of("leaf") == "r1"
        assert closure.root_of("other") == "r2"
        assert closure.root_of("unreached") is None

    def test_roots_not_in_graph_are_ignored(self):
        # Rules register every function as a node before asking for
        # closures, so an unknown root means "not in this project" —
        # it contributes nothing rather than materializing a node.
        closure = build([("a", "b")]).reachable_from(["ghost", "a"])
        assert closure.reached == {"a", "b"}


class TestTarjan:
    def test_dag_gives_singletons(self):
        graph = build([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        components = graph.strongly_connected_components()
        assert sorted(len(c) for c in components) == [1, 1, 1, 1]

    def test_cycle_collapses_to_one_component(self):
        graph = build([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        components = [
            set(c) for c in graph.strongly_connected_components()
        ]
        assert {"a", "b", "c"} in components
        assert {"d"} in components

    def test_large_chain_does_not_recurse(self):
        # Iterative Tarjan: a 5000-node chain would blow the stack in
        # a recursive implementation.
        edges = [(f"n{i}", f"n{i + 1}") for i in range(5000)]
        graph = build(edges)
        assert len(graph.strongly_connected_components()) == 5001


class TestCycles:
    def test_acyclic_graph_has_no_cycles(self):
        assert build([("a", "b"), ("b", "c")]).cycles() == []

    def test_self_loop_is_a_cycle(self):
        cycles = build([("a", "a"), ("a", "b")]).cycles()
        assert [set(c) for c in cycles] == [{"a"}]

    def test_two_cycle_reported_once(self):
        cycles = build([("a", "b"), ("b", "a")]).cycles()
        assert [set(c) for c in cycles] == [{"a", "b"}]

    def test_deterministic_across_insertion_orders(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "x")]
        forward = build(edges)
        backward = build(list(reversed(edges)))
        assert forward.cycles() == backward.cycles()
        assert (
            forward.strongly_connected_components()
            == backward.strongly_connected_components()
        )

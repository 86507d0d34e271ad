"""The shared iterative Tarjan: components, their order, deep graphs."""

import random

import pytest

from repro.automata.scc import strongly_connected_components


def random_digraph(seed: int) -> dict[int, list[int]]:
    """Up to 14 nodes, self-loops allowed, some nodes left isolated."""
    rng = random.Random(seed)
    size = rng.randint(1, 14)
    density = rng.choice([0.05, 0.15, 0.3])
    graph: dict[int, list[int]] = {node: [] for node in range(size)}
    for tail in graph:
        if rng.random() < 0.2:
            continue  # no outgoing edges; may end up isolated
        graph[tail] = [head for head in range(size) if rng.random() < density]
    return graph


def reachable(graph: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        for head in graph[frontier.pop()]:
            if head not in seen:
                seen.add(head)
                frontier.append(head)
    return seen


def components_of(graph: dict[int, list[int]]) -> list[list[int]]:
    return strongly_connected_components(graph, lambda node: graph[node])


@pytest.mark.parametrize("seed", range(150))
def test_matches_mutual_reachability(seed):
    graph = random_digraph(seed)
    reach = {node: reachable(graph, node) for node in graph}
    expected = {
        tuple(other for other in graph if node in reach[other] and other in reach[node])
        for node in graph
    }
    found = [tuple(sorted(component)) for component in components_of(graph)]
    assert sorted(found) == sorted(expected)


@pytest.mark.parametrize("seed", range(150))
def test_components_come_before_those_that_reach_them(seed):
    graph = random_digraph(seed)
    position = {
        node: index
        for index, component in enumerate(components_of(graph))
        for node in component
    }
    for tail, heads in graph.items():
        for head in heads:
            assert position[head] <= position[tail]


def test_isolated_nodes_and_self_loops_are_singletons():
    graph = {0: [0], 1: [], 2: [2, 0]}
    assert components_of(graph) == [[0], [1], [2]]


def test_roots_are_taken_in_the_given_order():
    graph = {"a": [], "b": [], "c": []}
    order = ["c", "a", "b"]
    assert strongly_connected_components(order, lambda node: graph[node]) == [
        ["c"], ["a"], ["b"]
    ]


def test_successors_are_followed_in_the_given_order():
    # Two disjoint cycles behind one entry: whichever successor the
    # search follows first completes first.
    graph = {0: [1, 3], 1: [2], 2: [1], 3: [4], 4: [3]}
    assert components_of(graph) == [[2, 1], [4, 3], [0]]
    graph[0] = [3, 1]
    assert components_of(graph) == [[4, 3], [2, 1], [0]]


def test_members_leave_the_stack_first_visited_last():
    graph = {0: [1], 1: [2], 2: [0]}
    assert components_of(graph) == [[2, 1, 0]]


def test_successors_are_read_once_per_node():
    graph = {0: [1, 2], 1: [2, 0], 2: [0]}
    calls: list[int] = []

    def successors(node: int) -> list[int]:
        calls.append(node)
        return graph[node]

    strongly_connected_components(graph, successors)
    assert sorted(calls) == [0, 1, 2]


SIZE = 5000


def test_long_chain_needs_no_recursion():
    """Deeper than the default recursion limit: one component per node."""
    graph = {node: [node + 1] for node in range(SIZE - 1)}
    graph[SIZE - 1] = []
    found = components_of(graph)
    assert found == [[node] for node in reversed(range(SIZE))]


def test_long_cycle_needs_no_recursion():
    graph = {node: [(node + 1) % SIZE] for node in range(SIZE)}
    (component,) = components_of(graph)
    assert component == list(reversed(range(SIZE)))

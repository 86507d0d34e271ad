"""Strongly connected components, the one Tarjan the learners share.

CRX's ``≈W`` classes are the SCCs of the sibling relation (Algorithm 3),
Trang contracts the SCCs of the 2T-INF automaton (Section 8.1), and
iDTD's repair of last resort contracts an SCC of the stuck GFA.  All
three call :func:`strongly_connected_components`.  So does the repo's
development linter, which lives outside the installed package
(``src/repro_lint``): its import and lock-order graph
(``repro_lint.graph``) imports this module rather than carry a second
Tarjan.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import TypeVar

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    """Tarjan's SCCs, iterative, so deep graphs need no recursion.

    The depth-first search starts a tree at each of ``nodes`` in the
    given order and follows each node's successors in the order
    ``successors(node)`` yields them.  Components come out in Tarjan's
    order: each one before any component that reaches it.  Members are
    listed in the order they leave the stack, the first one visited last.
    Callers that want order-free output sort; iDTD contracts the first
    looping component, so for it the visiting order is the output.
    """
    index_of: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    for root in nodes:
        if root in index_of:
            continue
        index_of[root] = low[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[Node, Iterator[Node]]] = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index_of:
                    index_of[successor] = low[successor] = len(index_of)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index_of[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: list[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components

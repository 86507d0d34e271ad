"""A small deterministic directed-graph library for the analyzer.

The whole-program rules (R006-R010) all reduce to graph questions:
which functions are reachable from the async roots, does the eager
import graph have a cycle, is the lock-acquisition order consistent.
:class:`DiGraph` keeps insertion-independent deterministic ordering
(nodes and successors iterate sorted) so analyzer output is stable
across runs and platforms, which the golden-snapshot tests rely on.

Nothing here knows about Python source; it is pure graph machinery:

* :meth:`DiGraph.reachable_from` — BFS closure over a set of roots,
  returning both the closure and a ``provenance`` map from each
  reached node to the root that first reached it (rules use it to
  name the offending async root in a finding message);
* :meth:`DiGraph.strongly_connected_components` — the learners' own
  iterative Tarjan (``repro.automata.scc``), so deep import chains
  cannot blow the recursion limit;
* :meth:`DiGraph.cycles` — the non-trivial SCCs (size two or more,
  or a self-loop), which is exactly the "has a cycle" question both
  R007 (lock order) and R010 (import cycles) ask.
"""

from __future__ import annotations

from collections import deque

from repro.automata.scc import strongly_connected_components

__all__ = ["DiGraph", "Reachability"]


class Reachability:
    """A BFS closure: the reached set plus per-node provenance."""

    __slots__ = ("reached", "provenance")

    def __init__(
        self, reached: set[str], provenance: dict[str, str]
    ) -> None:
        self.reached = reached
        self.provenance = provenance

    def __contains__(self, node: str) -> bool:
        return node in self.reached

    def root_of(self, node: str) -> str | None:
        """The root that first reached ``node`` (itself for roots)."""
        return self.provenance.get(node)


class DiGraph:
    """A directed graph over string node ids with deterministic order."""

    def __init__(self) -> None:
        self._succ: dict[str, set[str]] = {}
        self._edge_count = 0

    def add_node(self, node: str) -> None:
        self._succ.setdefault(node, set())

    def add_edge(self, src: str, dst: str) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succ[src]:
            self._succ[src].add(dst)
            self._edge_count += 1

    def __contains__(self, node: str) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> list[str]:
        return sorted(self._succ)

    def successors(self, node: str) -> list[str]:
        return sorted(self._succ.get(node, ()))

    def edges(self) -> list[tuple[str, str]]:
        return [
            (src, dst)
            for src in self.nodes()
            for dst in self.successors(src)
        ]

    def reachable_from(self, roots: list[str] | set[str]) -> Reachability:
        """BFS closure of ``roots``; provenance maps node -> first root."""
        reached: set[str] = set()
        provenance: dict[str, str] = {}
        queue: deque[str] = deque()
        for root in sorted(roots):
            if root in self._succ and root not in reached:
                reached.add(root)
                provenance[root] = root
                queue.append(root)
        while queue:
            current = queue.popleft()
            origin = provenance[current]
            for nxt in self.successors(current):
                if nxt not in reached:
                    reached.add(nxt)
                    provenance[nxt] = origin
                    queue.append(nxt)
        return Reachability(reached, provenance)

    def strongly_connected_components(self) -> list[list[str]]:
        """Tarjan's SCCs (:mod:`repro.automata.scc`); components and members sorted."""
        return sorted(
            sorted(component)
            for component in strongly_connected_components(self.nodes(), self.successors)
        )

    def cycles(self) -> list[list[str]]:
        """Non-trivial SCCs: size >= 2, or a single node with a self-loop."""
        found: list[list[str]] = []
        for component in self.strongly_connected_components():
            if len(component) > 1:
                found.append(component)
            else:
                only = component[0]
                if only in self._succ.get(only, ()):
                    found.append(component)
        return found

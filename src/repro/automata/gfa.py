"""Generalized finite automata (GFAs) with SORE labels on the states.

Section 5 of the paper runs its rewrite system on automata whose states
carry regular expressions: a *generalized finite automaton* is an
``RE(Σ)``-labeled graph, and it is *single occurrence* when every label
is a SORE and every alphabet symbol occurs in at most one label.

The class here is a small mutable digraph with two distinguished
unlabeled endpoints (:data:`SOURCE` and :data:`SINK`) plus the
ε-closure of Section 5, which underlies the preconditions of the
``disjunction`` and ``optional`` rules:

* every node labelled ``s+`` or ``(s+)?`` has a closure self-edge;
* ``(r, r′)`` is a closure edge whenever some G-path from ``r`` to
  ``r′`` only crosses intermediate nodes with ε in their language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from ..errors import UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Plus, Regex, Sym
from ..regex.language import matches
from .soa import SOA

SOURCE = -1
SINK = -2


def _is_plus_like(label: Regex) -> bool:
    """Labels of the form ``s+`` or ``(s+)?`` get closure self-loops."""
    if isinstance(label, Plus):
        return True
    return isinstance(label, Opt) and isinstance(label.inner, Plus)


def node_bit(node: int) -> int:
    """The bit of ``node`` in a closure mask: bit ``node + 2``.

    The sink (−2) is bit 0, the source (−1) bit 1 and labelled node
    ``n`` bit ``n + 2``, so ascending bits are ascending node ids.
    """
    return 1 << (node + 2)


def mask_nodes(mask: int) -> Iterator[int]:
    """The nodes of ``mask`` in ascending order (that is, sorted)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 3
        mask ^= low


def _reach(direct: dict[int, int], nullable: int) -> dict[int, int]:
    """Per node, the nodes one edge away, then on through nullable ones."""
    through: dict[int, int] = {}  # what a nullable node reaches
    for node in mask_nodes(nullable):
        reach, done = direct[node], 0
        pending = reach & nullable
        while pending:
            low = pending & -pending
            done |= low
            reach |= direct[low.bit_length() - 3]
            pending = reach & nullable & ~done
        through[node] = reach
    reach_of: dict[int, int] = {}
    for node, mask in direct.items():
        reach = mask
        for hop in mask_nodes(mask & nullable):
            reach |= through[hop]
        reach_of[node] = reach
    return reach_of


@dataclass(slots=True)
class Closure:
    """The ε-closure ``G*``: predecessor and successor masks per node.

    ``succ[r]`` has the bit (:func:`node_bit`) of every ``r′`` with a
    closure edge ``(r, r′)``, ``pred[r′]`` the bit of every such ``r``.
    Masks may hold :data:`SOURCE` (in predecessors) and :data:`SINK`
    (in successors); the distinguished endpoints themselves also have
    entries.  The masks are never changed once built: a step that
    changes ``G*`` builds a new ``Closure``.  So the two indexes
    :mod:`repro.core.rewrite` fills on first use, which read the masks
    alone, hold for the object's whole life.
    """

    pred: dict[int, int]
    succ: dict[int, int]
    optional_mask: int | None = field(default=None, compare=False, repr=False)
    disjunction_pairs: list[tuple[int, int]] | None = field(
        default=None, compare=False, repr=False
    )


class GFA:
    """A mutable single occurrence GFA.

    Nodes are integer ids mapped to their :class:`Regex` labels; the
    unlabeled endpoints are the module constants ``SOURCE``/``SINK``.
    Adjacency is one mask per node in the closure's :func:`node_bit`
    layout: ``_out[r]`` has the bit of every graph successor of ``r``,
    ``_in[r]`` that of every graph predecessor.
    """

    def __init__(self) -> None:
        self.labels: dict[int, Regex] = {}
        self._out: dict[int, int] = {SOURCE: 0, SINK: 0}
        self._in: dict[int, int] = {SOURCE: 0, SINK: 0}
        self._next_id = 0
        #: Instrumentation sink; :func:`repro.core.rewrite.rewrite_gfa`
        #: attaches a live one so state merges are counted where they
        #: happen instead of being re-derived by every caller.
        self.recorder: Recorder = NULL_RECORDER

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_soa(cls, soa: SOA) -> "GFA":
        """Lift a SOA to a GFA with symbol labels (each SOA is a GFA).

        ``accepts_empty`` becomes a direct source→sink edge, which is
        how the paper's graph semantics expresses ε — the ``optional``
        rule consumes it when it makes the last mandatory part of the
        expression optional.
        """
        gfa = cls()
        by_symbol = {symbol: gfa.add_node(Sym(symbol)) for symbol in sorted(soa.symbols)}
        for symbol in soa.initial:
            gfa.add_edge(SOURCE, by_symbol[symbol])
        for symbol in soa.final:
            gfa.add_edge(by_symbol[symbol], SINK)
        for a, b in soa.edges:
            gfa.add_edge(by_symbol[a], by_symbol[b])
        if soa.accepts_empty:
            gfa.add_edge(SOURCE, SINK)
        return gfa

    def copy(self) -> "GFA":
        clone = GFA()
        clone.labels = dict(self.labels)
        clone._out = dict(self._out)
        clone._in = dict(self._in)
        clone._next_id = self._next_id
        clone.recorder = self.recorder
        return clone

    # -- mutation -------------------------------------------------------------

    def add_node(self, label: Regex) -> int:
        node = self._next_id
        self._next_id += 1
        self.labels[node] = label
        self._out[node] = 0
        self._in[node] = 0
        return node

    def remove_node(self, node: int) -> None:
        own = node_bit(node)
        for successor in mask_nodes(self._out[node]):
            self._in[successor] &= ~own
        for predecessor in mask_nodes(self._in[node]):
            self._out[predecessor] &= ~own
        del self.labels[node]
        del self._out[node]
        del self._in[node]

    def add_edge(self, tail: int, head: int) -> None:
        self._check_endpoint(tail)
        self._check_endpoint(head)
        self._out[tail] |= node_bit(head)
        self._in[head] |= node_bit(tail)

    def remove_edge(self, tail: int, head: int) -> None:
        self._out[tail] &= ~node_bit(head)
        self._in[head] &= ~node_bit(tail)

    def relabel(self, node: int, label: Regex) -> None:
        if node in (SOURCE, SINK):
            raise UsageError("the source and sink carry no label")
        self.labels[node] = label

    def merge(self, nodes: Sequence[int], label: Regex) -> int:
        """Replace ``nodes`` by a single fresh node labelled ``label``.

        All edges incident to the merged nodes are redirected to the
        new node; edges *between* merged nodes (including self-loops)
        become a self-loop on the new node.  Returns the new node id.
        """
        merged = 0
        for node in nodes:
            merged |= node_bit(node)
        if self.recorder.enabled:
            self.recorder.count("soa.states_eliminated", merged.bit_count() - 1)
        heads = tails = 0
        for node in nodes:
            del self.labels[node]
            heads |= self._out.pop(node)
            tails |= self._in.pop(node)
        new_node = self.add_node(label)
        own = node_bit(new_node)
        loop = own if heads & merged else 0
        heads &= ~merged
        tails &= ~merged
        for head in mask_nodes(heads):
            self._in[head] = self._in[head] & ~merged | own
        for tail in mask_nodes(tails):
            self._out[tail] = self._out[tail] & ~merged | own
        self._out[new_node] = heads | loop
        self._in[new_node] = tails | loop
        return new_node

    def _check_endpoint(self, node: int) -> None:
        if node not in self._out:
            # lint: allow R002 — mapping-lookup protocol, callers catch KeyError
            raise KeyError(f"unknown node {node}")

    # -- structure ------------------------------------------------------------

    def nodes(self) -> list[int]:
        """Labelled nodes only (excludes source/sink)."""
        return list(self.labels)

    def has_edge(self, tail: int, head: int) -> bool:
        return bool(self._out.get(tail, 0) & node_bit(head))

    def successors(self, node: int) -> int:
        """The mask of ``node``'s graph successors."""
        return self._out[node]

    def predecessors(self, node: int) -> int:
        """The mask of ``node``'s graph predecessors."""
        return self._in[node]

    def edges_among(self, members: int) -> int:
        """How many graph edges (self-loops included) run within the mask ``members``."""
        return sum(
            (self._out[node] & members).bit_count() for node in mask_nodes(members)
        )

    def edge_list(self) -> list[tuple[int, int]]:
        return [
            (tail, head)
            for tail, heads in self._out.items()
            for head in mask_nodes(heads)
        ]

    def is_final(self) -> bool:
        """One labelled node, connected exactly source → node → sink."""
        if len(self.labels) != 1:
            return False
        (node,) = self.labels
        own = node_bit(node)
        return (
            self._out[SOURCE] == own
            and self._in[node] == node_bit(SOURCE)
            and self._out[node] == node_bit(SINK)
            and self._in[SINK] == own
        )

    def final_regex(self) -> Regex:
        if not self.is_final():
            raise UsageError("GFA is not final")
        (label,) = self.labels.values()
        return label

    def alphabet(self) -> set[str]:
        return {
            symbol for label in self.labels.values() for symbol in label.alphabet()
        }

    def is_single_occurrence(self) -> bool:
        seen: set[str] = set()
        for label in self.labels.values():
            for symbol, count in label.symbol_occurrences().items():
                if count != 1 or symbol in seen:
                    return False
                seen.add(symbol)
        return True

    # -- ε-closure (Section 5) -------------------------------------------------

    def closure(self) -> Closure:
        """The ε-closure, computed from scratch.

        A closure edge ``(r, r′)`` is a graph edge followed by any
        number of graph edges through nullable nodes, so ``r``'s
        successors are its graph successors plus what each nullable one
        reaches in turn; predecessors are the mirror image.  Plus-like
        labels add their self-edge last: it extends no path.
        """
        nullable = 0
        for node, label in self.labels.items():
            if label.nullable():
                nullable |= node_bit(node)
        succ = _reach(self._out, nullable)
        pred = _reach(self._in, nullable)
        for node, label in self.labels.items():
            if _is_plus_like(label):
                succ[node] |= node_bit(node)
                pred[node] |= node_bit(node)
        return Closure(pred=pred, succ=succ)

    # -- language ---------------------------------------------------------------

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership by dynamic programming over (node, position) pairs.

        A configuration ``(v, i)`` means: some path from the source has
        just finished matching node ``v`` after consuming ``word[:i]``.
        Used in tests to check that rewriting preserves the language.
        """
        start: tuple[int, int] = (SOURCE, 0)
        seen = {start}
        frontier = [start]
        length = len(word)
        while frontier:
            node, index = frontier.pop()
            if index == length and self.has_edge(node, SINK):
                return True
            for successor in mask_nodes(self._out[node]):
                if successor == SINK:
                    continue
                label = self.labels[successor]
                for end in range(index, length + 1):
                    if not matches(label, word[index:end]):
                        continue
                    state = (successor, end)
                    if state not in seen:
                        seen.add(state)
                        frontier.append(state)
        return False

    def __str__(self) -> str:
        def name(node: int) -> str:
            if node == SOURCE:
                return "src"
            if node == SINK:
                return "snk"
            return str(self.labels[node])

        edges = ", ".join(
            f"{name(tail)} -> {name(head)}" for tail, head in sorted(self.edge_list())
        )
        return f"GFA({edges})"

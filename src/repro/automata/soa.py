"""Single occurrence automata (SOAs).

Following Section 3 of the paper, an automaton is a Σ-labeled graph
``(V, E, λ, s_in, s_out)`` whose labels sit on the *states*: every edge
into a state labelled ``a`` is implicitly an ``a``-edge.  A *single
occurrence automaton* assigns every alphabet symbol to at most one
state, so we can identify states with their symbols outright.

A SOA is exactly the automaton of a 2-testable language: it is fully
determined by the triple ``(I, F, S)`` of start symbols, final symbols
and allowed 2-grams (Section 4), where ``I`` is the set of symbols with
an edge from the source, ``F`` the set with an edge to the sink, and
``S`` the symbol-to-symbol edge set.

SOAs are deterministic when read as word acceptors (the state after
reading a prefix is simply its last symbol), which keeps every
operation here linear or near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

from ..errors import CorpusError, UsageError
from ..regex.ast import Regex
from ..regex.glushkov import glushkov


class NotSingleOccurrenceError(UsageError):
    """Raised when an expression with repeated symbols is given to
    a construction that requires single occurrence."""


@dataclass
class SOA:
    """A single occurrence automaton over element-name states.

    Attributes:
        symbols: the states (alphabet symbols with a state).
        initial: symbols reachable directly from the source (``I``).
        final: symbols with an edge to the sink (``F``).
        edges: the allowed 2-grams ``S`` as ``(a, b)`` pairs.
        accepts_empty: whether the empty word is in the language.  The
            paper's REs cannot denote ε; the flag records empty content
            sequences seen in a sample so the DTD layer can wrap the
            inferred expression in an outer ``?`` (or emit ``EMPTY``).
    """

    symbols: set[str] = field(default_factory=set)
    initial: set[str] = field(default_factory=set)
    final: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    accepts_empty: bool = False

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        endpoints = {a for edge in self.edges for a in edge}
        unknown = (self.initial | self.final | endpoints) - self.symbols
        if unknown:
            raise CorpusError(f"edge/initial/final symbols not in states: {unknown}")

    # -- basic structure -----------------------------------------------------

    def copy(self) -> "SOA":
        return SOA(
            symbols=set(self.symbols),
            initial=set(self.initial),
            final=set(self.final),
            edges=set(self.edges),
            accepts_empty=self.accepts_empty,
        )

    def merge(self, other: "SOA") -> None:
        """Fold ``other`` into this SOA in place (component-wise union).

        The ``(I, F, S)`` triple of a 2T-INF automaton is a union over
        the sample's words, so merging the triples of two disjoint
        sub-samples yields exactly the automaton of their union: merge
        is associative and commutative, which is what makes SOA states
        shard-safe for map-reduce inference.
        """
        self.symbols |= other.symbols
        self.initial |= other.initial
        self.final |= other.final
        self.edges |= other.edges
        self.accepts_empty = self.accepts_empty or other.accepts_empty

    def canonical_fingerprint(self) -> tuple[object, ...]:
        """A hashable digest of the ``(I, F, S)`` triple, in sorted tuples.

        Two SOAs with equal fingerprints denote the same language and,
        because :func:`repro.core.idtd.idtd_from_soa` is a deterministic
        function of the triple, produce the same SORE.  That makes the
        fingerprint a sound key for the per-element finalize step
        (:mod:`repro.runtime.cache`).  Every level is sorted, so the
        value, and any serialization or digest of it, is the same in
        every process whatever ``PYTHONHASHSEED`` is: checkpoint state
        digests and manifests (:mod:`repro.ckpt`) rely on that.
        """
        return (
            tuple(sorted(self.symbols)),
            tuple(sorted(self.initial)),
            tuple(sorted(self.final)),
            tuple(sorted(self.edges)),
            self.accepts_empty,
        )

    def successors(self, symbol: str) -> set[str]:
        return {b for (a, b) in self.edges if a == symbol}

    def predecessors(self, symbol: str) -> set[str]:
        return {a for (a, b) in self.edges if b == symbol}

    def edge_count(self) -> int:
        """Total edges including the implicit source/sink edges."""
        return len(self.edges) + len(self.initial) + len(self.final)

    # -- language ------------------------------------------------------------

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership test; linear in ``len(word)``."""
        if not word:
            return self.accepts_empty
        if word[0] not in self.initial:
            return False
        for previous, current in zip(word, word[1:], strict=False):
            if (previous, current) not in self.edges:
                return False
        return word[-1] in self.final

    def trimmed(self) -> "SOA":
        """Remove states that lie on no accepting path.

        A state is *useful* when it is reachable from the source and
        co-reachable to the sink.  Trimming does not change the
        language and makes the ``(I, F, S)`` triple canonical, so two
        trimmed SOAs are language-equal iff they are component-wise
        equal (SOAs are unique up to isomorphism, Proposition 1).
        """
        forward = self._reach(self.initial, self.successors)
        backward = self._reach(self.final, self.predecessors)
        useful = forward & backward
        return SOA(
            symbols=set(useful),
            initial=self.initial & useful,
            final=self.final & useful,
            edges={(a, b) for (a, b) in self.edges if a in useful and b in useful},
            accepts_empty=self.accepts_empty,
        )

    @staticmethod
    def _reach(seeds: Iterable[str], step: Callable[[str], Iterable[str]]) -> set[str]:
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            symbol = frontier.pop()
            for nxt in step(symbol):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def language_included(self, other: "SOA") -> bool:
        """``L(self) ⊆ L(other)``, exact and cheap.

        For 2-testable languages, inclusion of the trimmed automata is
        component-wise containment of ``(I, F, S)``.
        """
        left, right = self.trimmed(), other.trimmed()
        if left.accepts_empty and not right.accepts_empty:
            return False
        return (
            left.initial <= right.initial
            and left.final <= right.final
            and left.edges <= right.edges
        )

    def language_equal(self, other: "SOA") -> bool:
        left, right = self.trimmed(), other.trimmed()
        return (
            left.accepts_empty == right.accepts_empty
            and left.initial == right.initial
            and left.final == right.final
            and left.edges == right.edges
        )

    # -- constructions ---------------------------------------------------------

    @classmethod
    def from_regex(cls, regex: Regex) -> "SOA":
        """The unique SOA of a single occurrence RE (Proposition 1).

        The Glushkov automaton of a SORE is a SOA because positions
        coincide with symbols.  Raises
        :class:`NotSingleOccurrenceError` otherwise.
        """
        automaton = glushkov(regex)
        if not automaton.single_occurrence():
            raise NotSingleOccurrenceError(
                "expression repeats a symbol; its Glushkov automaton is not a SOA"
            )
        labels = automaton.labels
        return cls(
            symbols=set(labels),
            initial={labels[p] for p in automaton.first},
            final={labels[p] for p in automaton.last},
            edges={
                (labels[p], labels[q])
                for p in range(len(labels))
                for q in automaton.follow[p]
            },
            accepts_empty=automaton.nullable,
        )

    def __str__(self) -> str:
        initial = ",".join(sorted(self.initial))
        final = ",".join(sorted(self.final))
        edges = " ".join(f"{a}->{b}" for a, b in sorted(self.edges))
        empty = " +ε" if self.accepts_empty else ""
        return f"SOA(I={{{initial}}} F={{{final}}} E={{{edges}}}{empty})"

"""CRX — direct inference of chain regular expressions (Section 7).

CRX never builds an automaton.  From the sample it derives:

1. the *successive-sibling* pre-order ``a →W b`` (``a`` immediately
   before ``b`` in some word);
2. the equivalence classes ``≈W`` (mutual ``→*W`` reachability, i.e.
   strongly connected components) and the partial order they induce;
3. the Hasse diagram of that order, in which maximal sets of
   *singleton* classes with identical predecessor and successor sets
   are repeatedly merged (Algorithm 3, steps 2–3);
4. a topological sort of the resulting nodes, one CHARE factor each,
   with the quantifier chosen from per-word occurrence counts
   (steps 5–13): exactly one → ``(a1+...+ak)``, at most one → ``?``,
   at least one and sometimes several → ``+``, otherwise ``*``.

The state kept between words — the arrow relation plus per-word symbol
counts — is tiny compared to the XML corpus, which is what makes CRX
streamable and incrementally updatable (Section 9).

Guarantees: ``W ⊆ L(crx(W))`` for every sample (Theorem 3), and for
every CHARE ``r`` a small sample recovers an expression with
``L = L(r)`` (Theorem 4); on linearly ordered samples the result is
optimal within CHAREs (Theorem 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..automata.scc import strongly_connected_components
from ..contracts import check_emitted_chare, contracts_enabled
from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Plus, Regex, Star, concat, disj, syms

Word = Sequence[str]


def quantifier_for(minimum: int, maximum: int) -> str:
    """Algorithm 3 steps 6-13: the factor quantifier from count bounds."""
    if minimum == 1 and maximum == 1:
        return ""
    if maximum == 1:
        return "?"
    if minimum >= 1:
        return "+"
    return "*"


@dataclass
class ClassSummary:
    """Occurrence statistics of one node of the (merged) Hasse diagram."""

    members: tuple[str, ...]
    minimum: int  # fewest occurrences of any member in a single word
    maximum: int  # most occurrences of any member in a single word
    quantifier: str  # "", "?", "+", "*"


class CrxState:
    """The streaming internal representation of CRX.

    ``add`` folds one word in; ``infer`` derives the CHARE for the data
    seen so far.  Only the arrow relation and per-word symbol counters
    are retained, so the original XML never needs to stay in memory and
    new data can arrive later (the Section 9 incremental setting).
    """

    def __init__(self) -> None:
        self.arrows: set[tuple[str, str]] = set()
        self.alphabet: set[str] = set()
        #: distinct occurrence profiles with multiplicities.  Real
        #: corpora contain few distinct profiles, which keeps the state
        #: small regardless of corpus size (the Section 9 memory claim).
        self.profiles: Counter[frozenset[tuple[str, int]]] = Counter()
        self.word_count = 0

    def add(self, word: Word) -> None:
        """Fold one word (a sequence of element names) into the state."""
        self.add_counted(word, 1)

    def add_counted(self, word: Word, count: int) -> None:
        """Fold ``count`` occurrences of ``word`` in at once.

        CRX only ever looks at the arrow relation (multiplicity-blind)
        and the per-word occurrence profiles (a multiset), so a
        deduplicated sample with multiplicities carries exactly the
        evidence of the expanded one.
        """
        if count <= 0:
            return
        self.word_count += count
        counts = Counter(word)
        self.alphabet.update(counts)
        self.arrows.update(zip(word, word[1:], strict=False))
        self.profiles[frozenset(counts.items())] += count

    def add_all(self, words: Iterable[Word]) -> None:
        for word in words:
            self.add(word)

    def canonical_fingerprint(self) -> tuple[object, ...]:
        """A hashable digest of everything ``infer`` reads, in sorted tuples.

        Algorithm 3 is a deterministic function of the arrow relation,
        the alphabet and the occurrence-profile multiset, so two states
        with equal fingerprints emit the same CHARE — the soundness
        property behind the content-model cache
        (:mod:`repro.runtime.cache`).  Profile multiplicities are
        included conservatively: the current emitter only reads the
        distinct profiles, but multiplicity-sensitive extensions (e.g.
        numeric bounds) must never alias.  Every level is sorted, the
        occurrence profiles themselves included, so the value is the
        same in every process whatever ``PYTHONHASHSEED`` is, as
        checkpoint state digests and manifests (:mod:`repro.ckpt`) need.
        """
        return (
            tuple(sorted(self.alphabet)),
            tuple(sorted(self.arrows)),
            tuple(
                sorted(
                    (tuple(sorted(profile)), count)
                    for profile, count in self.profiles.items()
                )
            ),
        )

    def merge(self, other: "CrxState") -> None:
        """Fold another state into this one in place.

        Everything CRX retains is a union (arrows, alphabet) or a
        multiset sum (profiles, word count), so states built from
        disjoint corpus shards merge associatively and commutatively
        into exactly the state of the combined sample — the map-reduce
        property promised by Section 9.
        """
        self.arrows |= other.arrows
        self.alphabet |= other.alphabet
        self.profiles.update(other.profiles)
        self.word_count += other.word_count

    # -- Algorithm 3 -----------------------------------------------------------

    def _equivalence_classes(self) -> list[tuple[str, ...]]:
        """SCCs of the arrow digraph = the classes of ``≈W``."""
        graph = {symbol: set() for symbol in self.alphabet}
        for a, b in self.arrows:
            graph[a].add(b)
        components = strongly_connected_components(
            sorted(self.alphabet), lambda symbol: sorted(graph[symbol])
        )
        return [tuple(sorted(component)) for component in components]

    def _hasse(
        self, classes: list[tuple[str, ...]]
    ) -> dict[int, set[int]]:
        """Cover edges of the induced partial order on ``classes``."""
        class_of = {
            symbol: index
            for index, members in enumerate(classes)
            for symbol in members
        }
        direct: dict[int, set[int]] = {index: set() for index in range(len(classes))}
        for a, b in self.arrows:
            u, v = class_of[a], class_of[b]
            if u != v:
                direct[u].add(v)
        # Transitive reduction of the condensation DAG.
        reachable: dict[int, set[int]] = {}

        def reach(node: int) -> set[int]:
            if node not in reachable:
                reachable[node] = set()  # breaks no cycles: DAG
                closure: set[int] = set()
                for successor in direct[node]:
                    closure.add(successor)
                    closure.update(reach(successor))
                reachable[node] = closure
            return reachable[node]

        hasse: dict[int, set[int]] = {index: set() for index in direct}
        for node, successors in direct.items():
            for successor in successors:
                if not any(
                    successor in reach(other)
                    for other in successors
                    if other != successor
                ):
                    hasse[node].add(successor)
        return hasse

    @staticmethod
    def _merge_singletons(
        classes: list[tuple[str, ...]], hasse: dict[int, set[int]]
    ) -> list[tuple[str, ...]]:
        """Steps 2–3: merge maximal same-neighbourhood singleton sets."""
        merged = {index: set(members) for index, members in enumerate(classes)}
        singleton = {index for index, members in enumerate(classes) if len(members) == 1}
        changed = True
        while changed:
            changed = False
            predecessors: dict[int, frozenset[int]] = {
                index: frozenset(
                    tail for tail, heads in hasse.items() if index in heads
                )
                for index in merged
            }
            groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
            for index in sorted(singleton & merged.keys()):
                key = (predecessors[index], frozenset(hasse[index]))
                groups.setdefault(key, []).append(index)
            for members in groups.values():
                if len(members) < 2:
                    continue
                keeper, *absorbed = members
                for index in absorbed:
                    merged[keeper].update(merged[index])
                    for heads in hasse.values():
                        if index in heads:
                            heads.discard(index)
                            heads.add(keeper)
                    hasse[keeper].update(hasse[index])
                    hasse[keeper].discard(keeper)
                    del hasse[index]
                    del merged[index]
                    singleton.discard(index)
                singleton.discard(keeper)  # no longer a singleton
                changed = True
                break  # neighbourhoods changed: recompute before next merge
        return [tuple(sorted(merged[index])) for index in sorted(merged)]

    def _topological_order(
        self, classes: list[tuple[str, ...]]
    ) -> list[tuple[str, ...]]:
        """Kahn's algorithm with a lexicographic tie-break.

        The partial order leaves incomparable classes (those never
        co-occurring in a word) in arbitrary relative order; breaking
        ties by the smallest member name makes the output independent
        of the order in which the sample was presented.
        """
        hasse = self._hasse(classes)
        indegree = {index: 0 for index in range(len(classes))}
        for heads in hasse.values():
            for head in heads:
                indegree[head] += 1

        def tie_break(index: int) -> str:
            return min(classes[index])

        available = [
            index for index, degree in indegree.items() if degree == 0
        ]
        order: list[int] = []
        while available:
            node = min(available, key=tie_break)
            available.remove(node)
            order.append(node)
            for head in hasse[node]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    available.append(head)
        return [classes[index] for index in order]

    def summaries(self) -> list[ClassSummary]:
        """The ordered factor summaries (classes + quantifiers)."""
        if not self.alphabet:
            return []
        classes = self._equivalence_classes()
        hasse = self._hasse(classes)
        classes = self._merge_singletons(classes, hasse)
        ordered = self._topological_order(classes)
        # Per-class count bounds in one pass over the distinct profiles.
        class_of = {
            symbol: index
            for index, members in enumerate(ordered)
            for symbol in members
        }
        minima: list[int | None] = [None] * len(ordered)
        maxima = [0] * len(ordered)
        for profile, _multiplicity in self.profiles.items():
            totals = [0] * len(ordered)
            for symbol, count in profile:
                totals[class_of[symbol]] += count
            for index, total in enumerate(totals):
                if minima[index] is None or total < minima[index]:
                    minima[index] = total
                if total > maxima[index]:
                    maxima[index] = total
        result: list[ClassSummary] = []
        for index, members in enumerate(ordered):
            minimum = minima[index] if minima[index] is not None else 0
            maximum = maxima[index]
            result.append(
                ClassSummary(
                    members=members,
                    minimum=minimum,
                    maximum=maximum,
                    quantifier=quantifier_for(minimum, maximum),
                )
            )
        return result

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        """The CHARE for the data seen so far (Algorithm 3)."""
        summaries = self.summaries()
        if recorder.enabled:
            recorder.count("crx.classes", len(summaries))
            recorder.count("crx.arrows", len(self.arrows))
        factors: list[Regex] = []
        for summary in summaries:
            base = disj(*syms(summary.members))
            if summary.quantifier == "?":
                factors.append(Opt(base))
            elif summary.quantifier == "+":
                factors.append(Plus(base))
            elif summary.quantifier == "*":
                factors.append(Star(base))
            else:
                factors.append(base)
        if not factors:
            raise CorpusError(
                "cannot infer an expression from empty content only"
            )
        regex = concat(*factors)
        if contracts_enabled():
            check_emitted_chare(regex, context="crx")
        return regex


def crx(words: Iterable[Word], recorder: Recorder = NULL_RECORDER) -> Regex:
    """Infer a CHARE from example words, ``W ⊆ L(crx(W))`` (Theorem 3).

    Runs in ``O(m + n³)`` for data size ``m`` and alphabet size ``n``.
    Empty words are fine: the factors become optional as needed.
    """
    state = CrxState()
    state.add_all(words)
    return state.infer(recorder=recorder)

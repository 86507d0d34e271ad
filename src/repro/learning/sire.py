"""The SIRE learner: single-occurrence REs with interleaving.

Unordered, attribute-like content — every child present (or optional)
but in no fixed order — defeats both paper learners: iDTD merges the
freely-permuting symbols into one big SCC and CRX collapses them into
a single ``(a + b + ...)*`` factor, both losing the per-symbol counts.
The SIRE successor line (arXiv 1906.02074) keeps them: it factorizes
the alphabet into blocks whose relative order is consistent across the
sample, learns an ordered expression per block, and joins the blocks
with the shuffle operator ``&``.

This implementation reuses the CRX substrate per block:

* The state is an embedded :class:`~repro.core.crx.CrxState` (arrow
  relation + occurrence profiles) plus the witnessed *precedence* relation
  ``before`` (``a`` occurred somewhere before ``b`` in some word) —
  the sibling constraints of the factorization.
* A pair ordered both ways in ``before`` is a *conflict*; greedy
  graph coloring of the conflict graph partitions the alphabet into
  conflict-free blocks (the partial-order factorization — computing an
  optimal partition is the NP-hard max-clique side of the papers, and
  the greedy pass is the standard approximation).
* Each block ``B`` becomes a :class:`~repro.core.crx.CrxState` whose
  arrows are ``before ∩ B×B`` and whose profiles are the sample's
  profiles restricted to ``B`` — exactly the evidence of the words
  *projected* onto ``B`` — and Algorithm 3 emits a CHARE per block.

Soundness: a word belongs to ``L(e1 & ... & en)`` iff each projection
onto a block belongs to that block's language (blocks partition the
alphabet), the projected 2-grams are contained in ``before ∩ B×B``,
and the restricted profiles bound the projected counts, so the CRX
guarantee ``W ⊆ L(crx(W))`` lifts block-wise.  Determinism: branches
are CHAREs (always one-unambiguous) over pairwise-disjoint alphabets,
which is precisely the structural rule
:func:`repro.regex.classify.is_deterministic` accepts for ``&``.

When no conflict is witnessed there is nothing to interleave and the
learner returns the plain CHARE ("sire falls back to chare").
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from ..core.crx import CrxState
from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Regex, inter
from .incremental import Word, _payload_pairs, dehydrate_crx, hydrate_crx


def word_precedences(word: Word) -> set[tuple[str, str]]:
    """All pairs ``(a, b)`` with ``a`` strictly before ``b`` in ``word``.

    Distinct symbols only: ``(a, a)`` carries no ordering evidence.
    One pass with a seen-set keeps this ``O(len · distinct)``.
    """
    pairs: set[tuple[str, str]] = set()
    seen: set[str] = set()
    for symbol in word:
        for earlier in seen:
            if earlier != symbol:
                pairs.add((earlier, symbol))
        seen.add(symbol)
    return pairs


def _partition_blocks(
    alphabet: Iterable[str], conflicts: set[frozenset[str]]
) -> list[list[str]]:
    """Greedy-color the conflict graph into conflict-free blocks.

    Symbols are visited in sorted order and placed in the first block
    they do not conflict with, so the partition is deterministic and
    independent of sample presentation order.
    """
    blocks: list[list[str]] = []
    for symbol in sorted(alphabet):
        for block in blocks:
            if all(
                frozenset((symbol, member)) not in conflicts for member in block
            ):
                block.append(symbol)
                break
        else:
            blocks.append([symbol])
    return blocks


class IncrementalSire:
    """Mergeable, dehydratable SIRE learner state.

    Wraps a :class:`~repro.core.crx.CrxState` plus the precedence relation.
    Both components are unions / multiset sums under merge, so shard
    states combine into exactly the whole-sample state.  Every
    :meth:`infer` derives; the content-model cache
    (:mod:`repro.runtime.cache`) memoizes on :meth:`canonical_fingerprint`.
    """

    def __init__(self) -> None:
        self.crx = CrxState()
        self.before: set[tuple[str, str]] = set()

    def add(self, word: Word) -> None:
        self.add_counted(word, 1)

    def add_counted(self, word: Word, count: int) -> None:
        """Fold ``count`` occurrences of ``word`` in one call.

        Precedence pairs are a set (multiplicity-blind); only the CRX
        profiles carry the count, mirroring the batch CRX idiom so a
        batch-built state fingerprints identically to a streaming one.
        """
        if count > 0:
            self.crx.add_counted(word, count)
            self.before |= word_precedences(word)

    def add_all(self, words: Iterable[Word]) -> None:
        for word in words:
            self.add(word)

    def merge(self, other: "IncrementalSire") -> None:
        self.crx.merge(other.crx)
        self.before |= other.before

    def canonical_fingerprint(self) -> tuple[object, ...]:
        """Sorted-tuple digest, stable across ``PYTHONHASHSEED``."""
        return (
            "sire",
            self.crx.canonical_fingerprint(),
            tuple(sorted(self.before)),
        )

    def _conflicts(self) -> set[frozenset[str]]:
        return {
            frozenset((a, b))
            for a, b in self.before
            if a < b and (b, a) in self.before
        }

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        """The interleaving of per-block CHAREs.

        With no witnessed conflict the plain CHARE is returned — the
        chare degeneration the fallback ladder documents.
        """
        state = self.crx
        if not state.alphabet:
            raise CorpusError("cannot infer an expression from empty content only")
        conflicts = self._conflicts()
        if not conflicts:
            return state.infer(recorder=recorder)
        blocks = _partition_blocks(state.alphabet, conflicts)
        recorder.count("sire.blocks", len(blocks))
        branches: list[Regex] = []
        for block in blocks:
            members = set(block)
            projected = CrxState()
            projected.alphabet = set(members)
            projected.arrows = {
                (a, b) for a, b in self.before if a in members and b in members
            }
            profiles: Counter[frozenset[tuple[str, int]]] = Counter()
            for profile, multiplicity in state.profiles.items():
                restricted = frozenset(
                    (symbol, count)
                    for symbol, count in profile
                    if symbol in members
                )
                profiles[restricted] += multiplicity
            projected.profiles = profiles
            projected.word_count = state.word_count
            branches.append(projected.infer(recorder=recorder))
        return inter(*branches)

    def dehydrate(self) -> dict[str, object]:
        """CRX payload plus the sorted precedence pairs, JSON-ready."""
        return {
            "crx": dehydrate_crx(self.crx),
            "before": [list(pair) for pair in sorted(self.before)],
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "IncrementalSire":
        learner = cls()
        raw_crx = payload.get("crx")
        if not isinstance(raw_crx, Mapping):
            raise CorpusError("sire state field 'crx' is not a mapping")
        learner.crx = hydrate_crx(raw_crx)
        learner.before = set(_payload_pairs(payload, "before"))
        unknown = {
            symbol for pair in learner.before for symbol in pair
        } - learner.crx.alphabet
        if unknown:
            raise CorpusError(
                f"sire state precedence uses unknown symbols: {sorted(unknown)}"
            )
        return learner

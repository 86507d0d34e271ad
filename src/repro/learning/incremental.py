"""Incremental computation (Section 9).

When XML data trickles in — answers to queries, web-service results —
the schema should be updatable from the new data alone.  Both learners
admit this because both work from a small internal representation:

* iDTD needs only the SOA (the ``(I, F, S)`` triple), which is
  quadratic in the number of element names and monotone under new
  words;
* CRX needs the sibling pre-order plus per-word occurrence counters
  (:class:`repro.core.crx.CrxState` is already incremental).

The classes here wrap those representations behind a common
``add`` / ``infer`` interface and track whether anything changed, so
callers can skip re-deriving when new data adds no new evidence.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from ..automata.soa import SOA
from ..core.crx import CrxState, quantifier_for
from ..core.idtd import idtd_from_soa
from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Regex

Word = Sequence[str]


# -- (de)hydration helpers ----------------------------------------------------
#
# ``dehydrate`` produces plain JSON-ready values with every set sorted,
# so the bytes a checkpoint derives from them are independent of
# PYTHONHASHSEED; ``hydrate`` validates defensively because the payload
# crossed a process/disk boundary (repro.ckpt checksums whole files,
# but a version skew still deserves a typed error, not a TypeError).


def _payload_strings(payload: Mapping[str, object], key: str) -> list[str]:
    value = payload.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise CorpusError(f"learner state field {key!r} is not a string list")
    return value


def _payload_pairs(
    payload: Mapping[str, object], key: str
) -> list[tuple[str, str]]:
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise CorpusError(f"learner state field {key!r} is not a list")
    pairs: list[tuple[str, str]] = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(part, str) for part in item)
        ):
            raise CorpusError(
                f"learner state field {key!r} holds a malformed pair: {item!r}"
            )
        pairs.append((item[0], item[1]))
    return pairs


def _payload_int(payload: Mapping[str, object], key: str) -> int:
    value = payload.get(key, 0)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CorpusError(f"learner state field {key!r} is not an integer")
    return value


class IncrementalSOA:
    """Maintains the 2T-INF automaton across arriving words.

    ``add`` returns True when the word added new evidence (a new
    symbol, 2-gram, start/final symbol, or the empty word); the cached
    inferred expression is invalidated only in that case.
    """

    def __init__(self, soa: SOA | None = None) -> None:
        self.soa = soa if soa is not None else SOA()
        self._cached: Regex | None = None

    def add(self, word: Word) -> bool:
        changed = False
        soa = self.soa
        if not word:
            if not soa.accepts_empty:
                soa.accepts_empty = True
                changed = True
        else:
            for symbol in word:
                if symbol not in soa.symbols:
                    soa.symbols.add(symbol)
                    changed = True
            if word[0] not in soa.initial:
                soa.initial.add(word[0])
                changed = True
            if word[-1] not in soa.final:
                soa.final.add(word[-1])
                changed = True
            for gram in zip(word, word[1:], strict=False):
                if gram not in soa.edges:
                    soa.edges.add(gram)
                    changed = True
        if changed:
            self._cached = None
        return changed

    def add_counted(self, word: Word, count: int) -> bool:
        """Fold ``count`` occurrences: the SOA triple is multiplicity-blind."""
        return count > 0 and self.add(word)

    def add_all(self, words: Iterable[Word]) -> bool:
        changed = False
        for word in words:
            changed = self.add(word) or changed
        return changed

    def merge(self, other: "IncrementalSOA") -> bool:
        """Fold another learner (built from a disjoint shard) in.

        Returns True when the other learner carried new evidence.  The
        SOA triple is a union over words, so merge order never matters:
        learners built per shard combine into exactly the learner of
        the whole sample (map-reduce associativity).
        """
        before = (
            len(self.soa.symbols),
            len(self.soa.initial),
            len(self.soa.final),
            len(self.soa.edges),
            self.soa.accepts_empty,
        )
        self.soa.merge(other.soa)
        after = (
            len(self.soa.symbols),
            len(self.soa.initial),
            len(self.soa.final),
            len(self.soa.edges),
            self.soa.accepts_empty,
        )
        if before != after:
            self._cached = None
            return True
        return False

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        """The iDTD expression for all data seen so far (cached)."""
        if self._cached is None:
            recorder.count("cache.misses")
            if not self.soa.symbols:
                raise CorpusError("no non-empty content seen yet")
            self._cached = idtd_from_soa(self.soa, recorder=recorder).regex
        else:
            recorder.count("cache.hits")
        return self._cached

    def dehydrate(self) -> dict[str, object]:
        """The ``(I, F, S)`` triple as sorted, JSON-ready values."""
        soa = self.soa
        return {
            "symbols": sorted(soa.symbols),
            "initial": sorted(soa.initial),
            "final": sorted(soa.final),
            "edges": [list(edge) for edge in sorted(soa.edges)],
            "accepts_empty": soa.accepts_empty,
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "IncrementalSOA":
        """Rebuild a learner from :meth:`dehydrate` output."""
        return cls(
            SOA(
                symbols=set(_payload_strings(payload, "symbols")),
                initial=set(_payload_strings(payload, "initial")),
                final=set(_payload_strings(payload, "final")),
                edges=set(_payload_pairs(payload, "edges")),
                accepts_empty=bool(payload.get("accepts_empty", False)),
            )
        )


class IncrementalCRX:
    """Incremental CRX: change-tracking wrapper over CrxState.

    ``add`` returns True when the new word can change the inferred
    CHARE: it introduced a new symbol or sibling pair (the class
    structure may change), or its per-class occurrence counts flip a
    factor's quantifier.  Otherwise the cached expression stays valid.
    """

    def __init__(self) -> None:
        self.state = CrxState()
        self._cached: Regex | None = None
        self._summaries = None

    def add(self, word: Word) -> bool:
        state = self.state
        new_structure = any(symbol not in state.alphabet for symbol in word) or any(
            gram not in state.arrows for gram in zip(word, word[1:], strict=False)
        )
        state.add(word)
        if new_structure or self._summaries is None:
            self._invalidate()
            return True
        for summary in self._summaries:
            members = set(summary.members)
            count = sum(1 for symbol in word if symbol in members)
            minimum = min(summary.minimum, count)
            maximum = max(summary.maximum, count)
            if quantifier_for(minimum, maximum) != summary.quantifier:
                self._invalidate()
                return True
        return False

    def add_counted(self, word: Word, count: int) -> bool:
        """Fold ``count`` occurrences of ``word`` in one call.

        The expression depends only on distinct profiles, so after the
        first occurrence is folded through :meth:`add` (with its change
        detection) the rest go straight to the state — multiplicity
        matters only to fingerprints and to merge bookkeeping.
        """
        if count <= 0:
            return False
        changed = self.add(word)
        if count > 1:
            self.state.add_counted(word, count - 1)
        return changed

    def _invalidate(self) -> None:
        self._cached = None
        self._summaries = None

    def add_all(self, words: Iterable[Word]) -> bool:
        changed = False
        for word in words:
            changed = self.add(word) or changed
        return changed

    def merge(self, other: "IncrementalCRX") -> None:
        """Fold another learner (built from a disjoint shard) in.

        Arrow relation and occurrence profiles merge as union and
        multiset sum, so shard-local learners combine into exactly the
        learner of the whole sample.  The cache is dropped
        unconditionally: profile multiplicities always change on merge
        and recomputing the summaries costs more than re-inferring.
        """
        self.state.merge(other.state)
        self._invalidate()

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        if self._cached is None:
            recorder.count("cache.misses")
            self._summaries = self.state.summaries()
            self._cached = self.state.infer(recorder=recorder)
        else:
            recorder.count("cache.hits")
        return self._cached

    def dehydrate(self) -> dict[str, object]:
        """Arrow relation + occurrence profiles as sorted JSON values."""
        state = self.state
        return {
            "alphabet": sorted(state.alphabet),
            "arrows": [list(arrow) for arrow in sorted(state.arrows)],
            "profiles": [
                [[[symbol, count] for symbol, count in profile], multiplicity]
                for profile, multiplicity in sorted(
                    (tuple(sorted(profile)), multiplicity)
                    for profile, multiplicity in state.profiles.items()
                )
            ],
            "word_count": state.word_count,
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "IncrementalCRX":
        """Rebuild a learner from :meth:`dehydrate` output."""
        learner = cls()
        state = learner.state
        state.alphabet = set(_payload_strings(payload, "alphabet"))
        state.arrows = set(_payload_pairs(payload, "arrows"))
        state.word_count = _payload_int(payload, "word_count")
        raw_profiles = payload.get("profiles", [])
        if not isinstance(raw_profiles, list):
            raise CorpusError("learner state field 'profiles' is not a list")
        profiles: Counter[frozenset[tuple[str, int]]] = Counter()
        for entry in raw_profiles:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise CorpusError(
                    f"learner state profile entry is malformed: {entry!r}"
                )
            raw_profile, multiplicity = entry
            if not isinstance(raw_profile, list) or not isinstance(
                multiplicity, int
            ):
                raise CorpusError(
                    f"learner state profile entry is malformed: {entry!r}"
                )
            profile: list[tuple[str, int]] = []
            for pair in raw_profile:
                if (
                    not isinstance(pair, (list, tuple))
                    or len(pair) != 2
                    or not isinstance(pair[0], str)
                    or not isinstance(pair[1], int)
                ):
                    raise CorpusError(
                        f"learner state profile pair is malformed: {pair!r}"
                    )
                profile.append((pair[0], pair[1]))
            profiles[frozenset(profile)] += multiplicity
        state.profiles = profiles
        unknown = {a for pair in state.arrows for a in pair} - state.alphabet
        if unknown:
            raise CorpusError(f"learner state arrows use unknown symbols: {unknown}")
        return learner

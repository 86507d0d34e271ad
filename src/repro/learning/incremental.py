"""Incremental computation (Section 9).

When XML data trickles in — answers to queries, web-service results —
the schema should be updatable from the new data alone.  Both learners
admit this because both work from a small internal representation:

* iDTD needs only the SOA (the ``(I, F, S)`` triple), which is
  quadratic in the number of element names and monotone under new
  words — :class:`IncrementalSOA` folds words into it;
* CRX needs the sibling pre-order plus per-word occurrence counters,
  which :class:`repro.core.crx.CrxState` already is; its checkpoint
  payload is :func:`dehydrate_crx` / :func:`hydrate_crx`.

Every ``infer`` derives from the state; the fingerprint-keyed
content-model cache (:mod:`repro.runtime.cache`) is the one memo, and a
caller that needs to know whether a word changed anything compares the
state's ``canonical_fingerprint()`` before and after.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from ..automata.soa import SOA
from ..core.crx import CrxState
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
    """Maintains the 2T-INF automaton across arriving words."""

    def __init__(self, soa: SOA | None = None) -> None:
        self.soa = soa if soa is not None else SOA()

    def add(self, word: Word) -> None:
        soa = self.soa
        if not word:
            soa.accepts_empty = True
            return
        soa.symbols.update(word)
        soa.initial.add(word[0])
        soa.final.add(word[-1])
        soa.edges.update(zip(word, word[1:], strict=False))

    def add_counted(self, word: Word, count: int) -> None:
        """Fold ``count`` occurrences: the SOA triple is multiplicity-blind."""
        if count > 0:
            self.add(word)

    def add_all(self, words: Iterable[Word]) -> None:
        for word in words:
            self.add(word)

    def merge(self, other: "IncrementalSOA") -> None:
        """Fold another learner (built from a disjoint shard) in.

        The SOA triple is a union over words, so merge order never
        matters: learners built per shard combine into exactly the
        learner of the whole sample (map-reduce associativity).
        """
        self.soa.merge(other.soa)

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        """The iDTD expression for all data seen so far."""
        if not self.soa.symbols:
            raise CorpusError("no non-empty content seen yet")
        return idtd_from_soa(self.soa, recorder=recorder).regex

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


def dehydrate_crx(state: CrxState) -> dict[str, object]:
    """Arrow relation + occurrence profiles as sorted JSON values."""
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


def hydrate_crx(payload: Mapping[str, object]) -> CrxState:
    """Rebuild a CRX state from :func:`dehydrate_crx` output."""
    state = CrxState()
    state.alphabet = set(_payload_strings(payload, "alphabet"))
    state.arrows = set(_payload_pairs(payload, "arrows"))
    state.word_count = _payload_int(payload, "word_count")
    raw_profiles = payload.get("profiles", [])
    if not isinstance(raw_profiles, list):
        raise CorpusError("learner state field 'profiles' is not a list")
    profiles: Counter[frozenset[tuple[str, int]]] = Counter()
    for entry in raw_profiles:
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and isinstance(entry[0], list)
            and isinstance(entry[1], int)
        ):
            raise CorpusError(
                f"learner state profile entry is malformed: {entry!r}"
            )
        raw_profile, multiplicity = entry
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
    return state

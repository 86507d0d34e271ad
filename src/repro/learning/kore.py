"""The k-ORE learner: deterministic expressions with repeated symbols.

The paper's SORE/CHARE learners cannot express the ~1% of real content
models where a symbol occurs more than once (``a b a``, ``a a? b``).
The iDRegEx/RWR successor line (arXiv 1004.2372) closes that gap by
learning over a *k-occurrence automaton*: the i-th occurrence of a
symbol in each word is distinguished (marked ``a#1``, ``a#2``, ...), a
single-occurrence automaton is learned over the marked alphabet, the
SORE rewrite system runs unchanged, and the marks are erased at the
end — yielding a k-occurrence RE (k-ORE).

Two properties make this a drop-in sibling of the existing learners:

* **One state serves every k.**  Marking is positional, so clamping
  marks at ``kk < K_CAP`` is a symbol-to-symbol homomorphism of the
  clamp-``K_CAP`` automaton.  The learner stores a single SOA marked
  up to :data:`K_CAP` and derives candidates for k = max-duplication
  down to 1 by relabeling; the k=1 relabeling *is* the plain 2T-INF
  automaton, so the final fallback candidate is exactly the SORE the
  ``idtd`` method would have produced ("kore falls back to sore when
  k=1 suffices").
* **Soundness survives both homomorphisms.**  ``L(A) ⊆ L(r)`` over the
  marked alphabet (the iDTD guarantee), and erasing marks maps both
  sides pointwise, so every witnessed word stays inside the unmarked
  language.

The derivation walks k downward and returns the first candidate that
passes the Glushkov one-unambiguity check, so every emitted model is
deterministic by construction.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from ..automata.soa import SOA
from ..core.idtd import idtd_from_soa
from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Concat, Disj, Inter, Opt, Plus, Regex, Repeat, Star, Sym
from ..regex.ast import concat, disj, inter
from ..regex.classify import is_deterministic
from ..regex.normalize import contract_repeats, simplify
from .incremental import IncrementalSOA, Word, _payload_int

#: Occurrences beyond this index share one mark.  Real-world content
#: models rarely repeat a symbol more than twice (the paper's corpora
#: top out at 2); 4 leaves headroom without blowing up the marked
#: alphabet.
K_CAP = 4

#: Mark separator.  ``#`` cannot occur in an XML element name, so
#: marked names never collide with corpus symbols.
_MARK = "#"


def mark_word(word: Word, k: int = K_CAP) -> list[str]:
    """Distinguish occurrences: the i-th ``a`` becomes ``a#min(i, k)``."""
    seen: Counter[str] = Counter()
    marked: list[str] = []
    for symbol in word:
        seen[symbol] += 1
        marked.append(f"{symbol}{_MARK}{min(seen[symbol], k)}")
    return marked


def _clamp_name(name: str, k: int) -> str:
    base, _, index = name.rpartition(_MARK)
    return f"{base}{_MARK}{min(int(index), k)}" if k else base


def _clamp_soa(soa: SOA, k: int) -> SOA:
    """The clamp-``k`` homomorphic image of a clamp-:data:`K_CAP` SOA (``k = 0`` erases marks)."""
    return SOA(
        symbols={_clamp_name(s, k) for s in soa.symbols},
        initial={_clamp_name(s, k) for s in soa.initial},
        final={_clamp_name(s, k) for s in soa.final},
        edges={
            (_clamp_name(a, k), _clamp_name(b, k)) for a, b in soa.edges
        },
        accepts_empty=soa.accepts_empty,
    )


def _unmark(regex: Regex) -> Regex:
    """Erase occurrence marks, rebuilding with the smart constructors.

    Erasing can make disjunction options collide (``a#1 + a#2`` becomes
    ``a + a``); :func:`~repro.regex.ast.disj` collapses the duplicates,
    which only ever shrinks the expression, never the language.
    """
    if isinstance(regex, Sym):
        return Sym(regex.name.partition(_MARK)[0])
    children = [_unmark(child) for child in regex.children()]
    if isinstance(regex, Concat):
        return concat(*children)
    if isinstance(regex, Disj):
        return disj(*children)
    if isinstance(regex, Inter):
        return inter(*children)
    if isinstance(regex, Opt):
        return Opt(children[0])
    if isinstance(regex, Plus):
        return Plus(children[0])
    if isinstance(regex, Star):
        return Star(children[0])
    if isinstance(regex, Repeat):
        return Repeat(children[0], regex.low, regex.high)
    return regex


class IncrementalKore:
    """Mergeable, dehydratable k-ORE learner state.

    Wraps an :class:`IncrementalSOA` over the marked alphabet plus the
    maximum per-word duplication observed, which picks the starting k
    for derivation.  Merge is the SOA union plus ``max``, so states
    built from disjoint shards combine into exactly the state of the
    whole sample (the same map-reduce property as the other learners).
    Every :meth:`infer` derives; the content-model cache
    (:mod:`repro.runtime.cache`) memoizes on :meth:`canonical_fingerprint`.
    """

    def __init__(self) -> None:
        self.soa = IncrementalSOA()
        self.max_dup = 1

    def add(self, word: Word) -> None:
        self.soa.add(mark_word(word))
        if word:
            self.max_dup = max(self.max_dup, *Counter(word).values())

    def add_counted(self, word: Word, count: int) -> None:
        """Fold ``count`` occurrences: marked SOA and max are multiplicity-blind."""
        if count > 0:
            self.add(word)

    def add_all(self, words: Iterable[Word]) -> None:
        for word in words:
            self.add(word)

    def merge(self, other: "IncrementalKore") -> None:
        self.soa.merge(other.soa)
        self.max_dup = max(self.max_dup, other.max_dup)

    def unmarked(self) -> IncrementalSOA:
        """The plain 2T-INF state of the words folded in (marks erased)."""
        return IncrementalSOA(_clamp_soa(self.soa.soa, 0))

    def canonical_fingerprint(self) -> tuple[object, ...]:
        """Sorted-tuple digest, stable across ``PYTHONHASHSEED``."""
        return (
            "kore",
            self.soa.soa.canonical_fingerprint(),
            min(self.max_dup, K_CAP),
        )

    def infer(self, recorder: Recorder = NULL_RECORDER) -> Regex:
        """The most duplication-aware deterministic k-ORE.

        Candidates are derived for k from ``min(max_dup, K_CAP)`` down
        to 1; the first one-unambiguous expression wins.  k=1 is the
        plain SORE path and always succeeds, so the loop cannot fall
        through.
        """
        marked = self.soa.soa
        if not marked.symbols:
            raise CorpusError("no non-empty content seen yet")
        for k in range(min(self.max_dup, K_CAP), 0, -1):
            clamped = marked if k >= K_CAP else _clamp_soa(marked, k)
            candidate = idtd_from_soa(clamped, recorder=recorder).regex
            candidate = contract_repeats(simplify(_unmark(candidate)))
            if is_deterministic(candidate):
                recorder.count("kore.k_used", k)
                return candidate
        raise CorpusError(  # pragma: no cover - k=1 always succeeds
            "no deterministic k-ORE candidate; k=1 SORE path failed"
        )

    def dehydrate(self) -> dict[str, object]:
        """Marked SOA triple plus max duplication, JSON-ready."""
        return {"soa": self.soa.dehydrate(), "max_dup": self.max_dup}

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "IncrementalKore":
        learner = cls()
        raw_soa = payload.get("soa")
        if not isinstance(raw_soa, Mapping):
            raise CorpusError("kore state field 'soa' is not a mapping")
        learner.soa = IncrementalSOA.hydrate(raw_soa)
        learner.max_dup = max(_payload_int(payload, "max_dup"), 1)
        return learner

"""Re-implementation of XTRACT (Garofalakis et al., 2003).

The paper's main experimental comparator.  XTRACT works in three
stages:

1. **Generalization** — each input string is generalised into candidate
   regular expressions by folding repeated subsequences into ``+``
   terms (``a b b b c`` → ``a b+ c``, ``a b c b c`` → ``a (b c)+``);
2. **Factoring** — candidates are factored, sharing common prefixes and
   suffixes (borrowed from logic optimisation);
3. **MDL selection** — the subset of candidates minimising the Minimum
   Description Length (theory cost + cost of encoding every input
   string with the chosen candidates) becomes the final content model:
   a *disjunction* of the selected candidates.

The third step contains an NP-hard subproblem [Fernau 2004]; like the
original system we solve it greedily with a work budget, and raise
:class:`XtractCapacityError` when the budget is exceeded — standing in
for the out-of-memory crashes the paper reports beyond ~1000 distinct
strings.

The two failure modes the paper demonstrates are inherent and visible
here too: the output is a disjunction of concatenations (while real
DTDs are concatenations of disjunctions), so heterogeneous data yields
long-winded expressions, and cost grows super-linearly with the number
of distinct strings.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

from ..errors import CorpusError, InternalError
from ..regex.ast import Opt, Plus, Regex, Sym, concat, disj
from ..regex.glushkov import Glushkov, glushkov

Word = tuple[str, ...]


#: A folded sequence: plain symbols interleaved with ``("+", body)``
#: markers produced by repeat folding.
_Folded = tuple["str | tuple[str, tuple[str, ...]]", ...]


class XtractCapacityError(InternalError):
    """The MDL stage exceeded its work budget (cf. the >1000-string
    crashes reported in Section 8)."""


#: Default number of distinct strings the MDL stage accepts, matching
#: the paper's observation that XTRACT cannot handle more than ~1000.
DEFAULT_CAPACITY = 1000


# -- stage 1: generalization ---------------------------------------------------


def _fold_once(word: Word, max_period: int = 4) -> set[_Folded]:
    """All single-fold generalisations of ``word``.

    A fold replaces a maximal run ``v^k`` (k >= 2, ``|v| <= max_period``)
    by the tuple ``("+", v)``.  Items of the produced sequences are
    either symbols or ``("+", v)`` markers.
    """
    results: set[tuple] = set()
    n = len(word)
    for period in range(1, max_period + 1):
        index = 0
        while index + 2 * period <= n:
            pattern = word[index : index + period]
            repeats = 1
            while (
                index + (repeats + 1) * period <= n
                and word[index + repeats * period : index + (repeats + 1) * period]
                == pattern
            ):
                repeats += 1
            if repeats >= 2:
                folded = (
                    word[:index]
                    + (("+", pattern),)
                    + word[index + repeats * period :]
                )
                results.add(folded)
                index += repeats * period
            else:
                index += 1
    return results


def _to_regex(sequence: _Folded) -> Regex:
    parts: list[Regex] = []
    for item in sequence:
        if isinstance(item, tuple) and len(item) == 2 and item[0] == "+":
            inner = concat(*(Sym(s) for s in item[1]))
            parts.append(Plus(inner))
        else:
            parts.append(Sym(item))
    return concat(*parts)


def generalize(word: Word, rounds: int = 3) -> list[Regex]:
    """Stage 1: candidate expressions for one string.

    Folds repeats up to ``rounds`` times (folding can cascade:
    ``a b a b b`` → ``a b (a b+ ...)``), always including the literal
    string itself as a candidate.
    """
    if not word:
        return []
    sequences: set[_Folded] = {tuple(word)}
    frontier: set[_Folded] = {tuple(word)}
    for _ in range(rounds):
        new: set[_Folded] = set()
        for sequence in frontier:
            plain = all(not isinstance(item, tuple) for item in sequence)
            if plain:
                new |= _fold_once(sequence)
        new -= sequences
        if not new:
            break
        sequences |= new
        frontier = new
    return [_to_regex(sequence) for sequence in sorted(sequences, key=_seq_key)]


def _seq_key(sequence: _Folded) -> tuple[tuple[str, ...], ...]:
    return tuple(
        ("+",) + item[1] if isinstance(item, tuple) else (item,)
        for item in sequence
    )


# -- stage 3: MDL selection ----------------------------------------------------


def _theory_cost(candidate: Regex) -> float:
    """Bits to write the candidate down (≈ tokens × log |Σ|-ish)."""
    return 3.0 * candidate.token_count()


def _encoding_cost(candidate: Regex, word: Word) -> float | None:
    """Bits to encode ``word`` given ``candidate``; None if no match.

    Deterministically simulates the Glushkov automaton, charging
    ``log2`` of the number of available moves at each step (the MDL
    "data cost" of XTRACT).
    """
    automaton = glushkov(candidate)
    state: frozenset[int] | None = None
    cost = 0.0
    for symbol in word:
        if state is None:
            moves = automaton.first
        else:
            moves = frozenset(q for p in state for q in automaton.follow[p])
        choices = len({automaton.labels[q] for q in moves}) + (
            1 if _accepting(automaton, state) else 0
        )
        if choices > 1:
            cost += math.log2(choices)
        state = frozenset(
            q
            for q in moves
            if automaton.labels[q] == symbol
        )
        if not state:
            return None
    if not _accepting(automaton, state):
        return None
    return cost


def _accepting(automaton: Glushkov, state: frozenset[int] | None) -> bool:
    if state is None:
        return automaton.nullable
    return any(p in automaton.last for p in state)


def mdl_select(
    candidates: Sequence[Regex],
    words: Sequence[Word],
    budget: int,
) -> list[Regex]:
    """Stage 3: greedy MDL set cover.

    Repeatedly picks the candidate with the best (theory + data) cost
    trade-off until every word is covered.  ``budget`` bounds the
    number of (candidate, word) match evaluations.
    """
    work = 0
    coverage: dict[int, dict[int, float]] = {}
    for c_index, candidate in enumerate(candidates):
        coverage[c_index] = {}
        for w_index, word in enumerate(words):
            work += 1
            if work > budget:
                raise XtractCapacityError(
                    f"MDL budget exceeded: {len(words)} distinct strings x "
                    f"{len(candidates)} candidates"
                )
            cost = _encoding_cost(candidate, word)
            if cost is not None:
                coverage[c_index][w_index] = cost
    uncovered = set(range(len(words)))
    chosen: list[int] = []
    while uncovered:
        best_index, best_score = None, None
        for c_index, covered in coverage.items():
            if c_index in chosen:
                continue
            newly = uncovered & covered.keys()
            if not newly:
                continue
            gain = sum(
                32.0 - covered[w_index] for w_index in newly
            )  # 32 bits ~ cost of leaving a string unexplained
            score = gain - _theory_cost(candidates[c_index])
            if best_score is None or score > best_score:
                best_index, best_score = c_index, score
        if best_index is None:  # should not happen: literals cover everything
            raise XtractCapacityError("MDL selection could not cover the sample")
        chosen.append(best_index)
        uncovered -= coverage[best_index].keys()
    return [candidates[index] for index in sorted(chosen)]


# -- stage 2 (applied last, as a presentation of the selected set) -------------


def _factor(branches: list[Regex]) -> Regex:
    """Stage 2: factor common prefixes out of a candidate disjunction.

    Produces the nested shapes of the paper's Table 1 xtract column,
    e.g. ``a1((a2 a3 a4? + a3 a4) a5? + a3 a5*)``.
    """
    sequences: list[tuple[Regex, ...]] = []
    for branch in branches:
        if hasattr(branch, "parts"):
            sequences.append(tuple(branch.parts))
        else:
            sequences.append((branch,))
    return _factor_sequences(sequences)


def _factor_sequences(sequences: list[tuple[Regex, ...]]) -> Regex:
    sequences = sorted(set(sequences), key=lambda s: tuple(map(repr, s)))
    if len(sequences) == 1:
        (sequence,) = sequences
        return concat(*sequence) if sequence else _EPSILON_MARKER
    groups: dict[Regex | None, list[tuple[Regex, ...]]] = {}
    for sequence in sequences:
        head = sequence[0] if sequence else None
        groups.setdefault(head, []).append(sequence)
    if len(groups) == len(sequences) or None in groups and len(groups) == 2:
        # No shared prefixes worth factoring (or only an ε branch):
        # emit the disjunction, marking the ε branch with ``?``.
        branches = [concat(*sequence) for sequence in sequences if sequence]
        body = disj(*branches)
        return Opt(body) if any(not sequence for sequence in sequences) else body
    factored: list[Regex] = []
    epsilon_branch = False
    for head, group in sorted(
        groups.items(), key=lambda item: repr(item[0])
    ):
        if head is None:
            epsilon_branch = True
            continue
        tails = [sequence[1:] for sequence in group]
        if len(group) == 1:
            factored.append(concat(*group[0]))
        else:
            tail = _factor_sequences(tails)
            if tail is _EPSILON_MARKER:
                factored.append(head)
            elif any(not t for t in tails):
                factored.append(concat(head, Opt(_strip_opt(tail))))
            else:
                factored.append(concat(head, tail))
    body = disj(*factored)
    return Opt(body) if epsilon_branch else body


def _strip_opt(regex: Regex) -> Regex:
    return regex.inner if isinstance(regex, Opt) else regex


_EPSILON_MARKER: Regex = None  # type: ignore[assignment]


def xtract(
    words: Iterable[Sequence[str]],
    capacity: int = DEFAULT_CAPACITY,
) -> Regex:
    """Run the XTRACT pipeline on a sample.

    ``capacity`` bounds the number of *distinct* strings the MDL stage
    accepts; exceeding it raises :class:`XtractCapacityError` (the
    re-implementation's analogue of the original's crashes on corpora
    beyond ~1000 strings).
    """
    distinct: list[Word] = []
    seen: set[Word] = set()
    multiplicity: Counter[Word] = Counter()
    for word in words:
        key = tuple(word)
        multiplicity[key] += 1
        if key and key not in seen:
            seen.add(key)
            distinct.append(key)
    if not distinct:
        raise CorpusError("cannot infer an expression from empty content only")
    if len(distinct) > capacity:
        raise XtractCapacityError(
            f"{len(distinct)} distinct strings exceed the capacity of {capacity}"
        )
    candidates: list[Regex] = []
    known: set[Regex] = set()
    for word in distinct:
        for candidate in generalize(word):
            if candidate not in known:
                known.add(candidate)
                candidates.append(candidate)
    budget = capacity * max(64, len(candidates))
    selected = mdl_select(candidates, distinct, budget)
    result = _factor(selected)
    if () in multiplicity and not result.nullable():
        result = Opt(result)
    return result

"""The SOA → SORE rewrite system of Section 5 (Algorithm 1).

``rewrite`` transforms a single occurrence automaton into an equivalent
SORE whenever one exists, in time O(n⁴), and reports failure otherwise
(Theorem 1).  Unlike classical state elimination it never copies
subexpressions: each rule *merges* a set of states into one state or
only deletes edges, so the result is linear in the alphabet.

The four rules, with preconditions over the ε-closure ``G*``:

1. **disjunction** — a set of ≥2 states with identical predecessor and
   successor sets collapses to ``r1 + ... + rn``; if any graph edges
   ran between the members the merged state keeps a self-loop.
2. **concatenation** — a maximal chain whose interior has unique
   in/out edges collapses to ``r1 ... rn``; a back edge ``rn → r1``
   becomes a self-loop.
3. **self-loop** — ``(r, r)`` is deleted and ``r`` becomes ``r+``.
4. **optional** — if every predecessor of ``r`` already reaches every
   successor of ``r`` directly, ``r`` becomes ``r?`` and the bypass
   edges are deleted.

The Kleene star never appears during rewriting; ``r*`` is represented
as ``(r+)?`` and contracted only in the final expression (the paper's
post-processing step).  Claim 2 (confluence) guarantees that any rule
order reaches a SORE whenever one exists; the default priority below
(`optional` first) reproduces the run of Figure 3 and hence the exact
expressions reported in the paper's tables.

The loop computes the ε-closure once per call and carries it across the
rules: ``optional`` and ``self_loop`` leave it unchanged, and a merge
only renames its members.  ``docs/ALGORITHMS.md`` §3 proves both, and
the bucket index behind the ``disjunction`` finder.
"""

from __future__ import annotations

import random
from itertools import combinations
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from ..automata.gfa import GFA, SINK, SOURCE, Closure
from ..automata.soa import SOA
from ..contracts import (
    check_carried_closure,
    check_emitted_sore,
    check_gfa,
    contracts_enabled,
)
from ..errors import InternalError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Plus, Regex, disj
from ..regex.normalize import contract_stars, simplify
from ..regex.printer import to_paper_syntax

#: Default rule priority.  ``optional`` before ``disjunction`` matches
#: the execution of Figure 3 (step (1) applies optional to ``b``) and
#: yields ``((b? (a + c))+ d)+ e`` rather than the equally correct but
#: one-token-larger ``((b? (a + c)+)+ d)+ e``.
DEFAULT_ORDER: tuple[str, ...] = (
    "optional",
    "disjunction",
    "concatenation",
    "self_loop",
)


@dataclass(frozen=True, slots=True)
class Application:
    """One enabled rewrite rule: which rule, on which nodes."""

    rule: str
    nodes: tuple[int, ...]


@dataclass
class RewriteResult:
    """Outcome of running the rewrite loop to exhaustion.

    ``regex`` is set iff the GFA became final.  ``gfa`` is the (possibly
    stuck) automaton — iDTD resumes from it with repair rules.  ``steps``
    records the rule applications for tracing and the ablation benches.
    ``closure`` is the ε-closure of ``gfa`` as it was left, from the last
    rule search (``None`` under ``rng``); iDTD's repair search reuses it.
    """

    regex: Regex | None
    gfa: GFA
    steps: list[Application] = field(default_factory=list)
    closure: Closure | None = None

    @property
    def succeeded(self) -> bool:
        return self.regex is not None


def normalize_label(label: Regex) -> Regex:
    """Keep labels in the paper's star-free normal form, at the top node.

    Every label a rule builds wraps labels that are already in normal
    form (``check_gfa``'s ``gfa-normal-form`` invariant), so only the
    new top node can be superfluous: ``r?? → r?``, ``(r+)+ → r+`` and
    ``(r?)+ → (r+)?``.  The result equals
    ``expand_stars(normalize(label))`` without rebuilding the tree.
    """
    if isinstance(label, Opt) and isinstance(label.inner, Opt):
        return label.inner
    if isinstance(label, Plus):
        inner = label.inner
        if isinstance(inner, Plus):
            return inner
        if isinstance(inner, Opt):
            # ((s+)?)+ is (s+)?: the inner Plus absorbs the outer one.
            return Opt(normalize_label(Plus(inner.inner)))
    return label


# -- rule detection ----------------------------------------------------------


def _find_self_loop(gfa: GFA, closure: Closure) -> Application | None:
    for node in sorted(gfa.nodes()):
        if gfa.has_edge(node, node):
            return Application("self_loop", (node,))
    return None


def _find_optional(gfa: GFA, closure: Closure) -> Application | None:
    for node in sorted(gfa.nodes()):
        nullable = gfa.labels[node].nullable()
        if nullable:
            # Re-applying ``?`` is a no-op on the label (``r??`` is not
            # normalized), so for progress the step must remove at
            # least one direct bypass edge.  This arises after repairs
            # re-introduce bypass edges around an optional state.
            direct_succ = gfa.successors(node) - {node}
            has_bypass = any(
                gfa.has_edge(predecessor, successor)
                for predecessor in gfa.predecessors(node) - {node}
                for successor in direct_succ
            )
            if not has_bypass:
                continue
        predecessors = closure.pred[node]
        if not predecessors:
            continue
        successors = closure.succ[node]
        if all(
            successors <= closure.succ[predecessor]
            for predecessor in predecessors
        ):
            return Application("optional", (node,))
    return None


def _disjunction_case(
    gfa: GFA, closure: Closure, members: Sequence[int]
) -> bool | None:
    """The paper's case dichotomy for a candidate disjunction set.

    Returns ``False`` for case (i) — no graph edges between members,
    merge without a self-loop; ``True`` for case (ii) — every ordered
    member pair (including a member with itself) is closure-adjacent,
    merge with a self-loop; ``None`` when neither holds, in which case
    the rule is not applicable.
    """
    internal = any(
        gfa.has_edge(tail, head) for tail in members for head in members
    )
    if not internal:
        return False
    if all(head in closure.succ[tail] for tail in members for head in members):
        return True
    return None


def _neighbourhoods_match(
    closure: Closure, members: set[int], first: int, second: int
) -> bool:
    """Equal predecessor/successor sets, compared modulo the set itself.

    Members are excluded from the comparison because closure self-edges
    (a ``s+`` label, rule (i) of the ε-closure) and intra-set edges
    otherwise make the sets trivially unequal; the case dichotomy of
    :func:`_disjunction_case` accounts for the intra-set structure.
    """
    return (
        closure.pred[first] - members == closure.pred[second] - members
        and closure.succ[first] - members == closure.succ[second] - members
    )


def _matching_pairs(nodes: Sequence[int], closure: Closure) -> list[tuple[int, int]]:
    """The pairs whose neighbourhoods match modulo the pair, sorted.

    With ``A(x) = pred[x] − {x}``, ``pred[f] − {f, s} == pred[s] − {f, s}``
    exactly when ``{A(f), A(f) ∪ {f}}`` and ``{A(s), A(s) ∪ {s}}``
    share a set, and likewise for ``succ`` (``docs/ALGORITHMS.md`` §3).
    So each node is indexed under its four (pred, succ) key
    combinations; one of each side's two keys is the closure's own set.
    Two nodes share at most one bucket, so no pair is listed twice.
    """
    buckets: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
    for node in nodes:
        own = (node,)
        pred, succ = closure.pred[node], closure.succ[node]
        other_pred = pred.difference(own) if node in pred else pred.union(own)
        other_succ = succ.difference(own) if node in succ else succ.union(own)
        for key in (
            (pred, succ),
            (pred, other_succ),
            (other_pred, succ),
            (other_pred, other_succ),
        ):
            buckets.setdefault(key, []).append(node)
    return sorted(
        pair
        for bucket in buckets.values()
        if len(bucket) > 1
        for pair in combinations(bucket, 2)
    )


def _find_disjunction(gfa: GFA, closure: Closure) -> Application | None:
    nodes = sorted(gfa.nodes())
    for first, second in _matching_pairs(nodes, closure):
        if _disjunction_case(gfa, closure, (first, second)) is None:
            continue
        group = [first, second]
        for candidate in nodes:
            if candidate in group:
                continue
            extended = set(group) | {candidate}
            if all(
                _neighbourhoods_match(closure, extended, member, candidate)
                and _neighbourhoods_match(closure, extended, group[0], member)
                for member in group
            ) and _disjunction_case(gfa, closure, tuple(extended)) is not None:
                group.append(candidate)
        return Application("disjunction", tuple(group))
    return None


def _find_concatenation(gfa: GFA, closure: Closure) -> Application | None:
    def unique_out(node: int) -> int | None:
        successors = gfa.successors(node)
        if len(successors) == 1:
            (successor,) = successors
            if successor not in (SOURCE, SINK):
                return successor
        return None

    def unique_in(node: int) -> int | None:
        predecessors = gfa.predecessors(node)
        if len(predecessors) == 1:
            (predecessor,) = predecessors
            if predecessor not in (SOURCE, SINK):
                return predecessor
        return None

    def chainable(tail: int, head: int) -> bool:
        return (
            tail != head
            and unique_out(tail) == head
            and unique_in(head) == tail
        )

    for start in sorted(gfa.nodes()):
        follower = unique_out(start)
        if follower is None or not chainable(start, follower):
            continue
        # Extend left to make the chain maximal.
        head = start
        chain = [start]
        while True:
            previous = unique_in(head)
            if previous is None or previous in chain or not chainable(previous, head):
                break
            chain.insert(0, previous)
            head = previous
        # Extend right.
        tail = chain[-1]
        while True:
            nxt = unique_out(tail)
            if nxt is None or nxt in chain or not chainable(tail, nxt):
                break
            chain.append(nxt)
            tail = nxt
        if len(chain) >= 2:
            return Application("concatenation", tuple(chain))
    return None


_FINDERS: dict[str, Callable[[GFA, Closure], Application | None]] = {
    "self_loop": _find_self_loop,
    "optional": _find_optional,
    "disjunction": _find_disjunction,
    "concatenation": _find_concatenation,
}


def find_application(
    gfa: GFA,
    order: Sequence[str] = DEFAULT_ORDER,
    closure: Closure | None = None,
) -> Application | None:
    """The first enabled rule in ``order`` priority, or ``None``."""
    if closure is None:
        closure = gfa.closure()
    for rule in order:
        application = _FINDERS[rule](gfa, closure)
        if application is not None:
            return application
    return None


def all_applications(gfa: GFA) -> list[Application]:
    """Every currently enabled rule application (for confluence tests)."""
    closure = gfa.closure()
    found: list[Application] = []
    for rule, finder in _FINDERS.items():
        application = finder(gfa, closure)
        if application is not None:
            found.append(application)
    return found


# -- rule application --------------------------------------------------------


def apply_application(gfa: GFA, application: Application) -> int | None:
    """Mutate ``gfa`` by performing one rule application.

    Returns the merged node of a ``disjunction`` or ``concatenation``,
    and ``None`` for the rules that keep their node.
    """
    rule, nodes = application.rule, application.nodes
    if rule == "self_loop":
        (node,) = nodes
        gfa.remove_edge(node, node)
        gfa.relabel(node, normalize_label(Plus(gfa.labels[node])))
    elif rule == "optional":
        (node,) = nodes
        # Remove the *direct* bypass edges (p, s) with p a graph
        # predecessor and s a graph successor of the node.  Each removed
        # edge is rerouted as p → node? → s, and both of those edges are
        # excluded from removal, so the ε-closure of the GFA is exactly
        # preserved — the invariant behind the paper's observation that
        # applying optional never disables a disjunction candidate set.
        # (Removing closure-level bypasses instead is unsound: a removed
        # pair's justification path can itself have been removed.)
        bypass_targets = gfa.successors(node) - {node}
        for predecessor in gfa.predecessors(node) - {node}:
            for successor in bypass_targets:
                gfa.remove_edge(predecessor, successor)
        gfa.relabel(node, normalize_label(Opt(gfa.labels[node])))
    elif rule == "disjunction":
        labels = sorted(
            (gfa.labels[node] for node in nodes), key=to_paper_syntax
        )
        return gfa.merge(list(nodes), normalize_label(disj(*labels)))
    elif rule == "concatenation":
        from ..regex.ast import concat

        label = concat(*(gfa.labels[node] for node in nodes))
        # Interior chain edges must disappear (they are *consumed* by
        # the concatenation), while a back edge rn -> r1, if present,
        # becomes a self-loop — which merge() produces from any
        # remaining internal edge.
        for tail, head in zip(nodes, nodes[1:], strict=False):
            gfa.remove_edge(tail, head)
        return gfa.merge(list(nodes), normalize_label(label))
    else:  # pragma: no cover - rule names are internal
        raise InternalError(f"unknown rule {rule!r}")
    return None


def _merged_closure(
    gfa: GFA, closure: Closure, members: Sequence[int], merged: int
) -> Closure:
    """The ε-closure after ``members`` were merged into ``merged``.

    Between the other nodes every closure edge stays as it was
    (``docs/ALGORITHMS.md`` §3), so each set that held a member now
    holds ``merged`` instead.  ``merged`` reaches what any member
    reached, and is reached from where any member was.  It has a
    closure self-edge iff it has a graph self-loop or a nullable
    successor reaches it back: a disjunction or concatenation label is
    never plus-like.
    """
    gone = frozenset(members)
    own = frozenset((merged,))

    def substituted(sets: dict[int, frozenset[int]]) -> dict[int, frozenset[int]]:
        return {
            node: values if values.isdisjoint(gone) else (values - gone) | own
            for node, values in sets.items()
            if node not in gone
        }

    succ, pred = substituted(closure.succ), substituted(closure.pred)
    merged_succ = frozenset().union(*(closure.succ[node] for node in members)) - gone
    merged_pred = frozenset().union(*(closure.pred[node] for node in members)) - gone
    if gfa.has_edge(merged, merged) or any(
        merged in succ[successor] and gfa.labels[successor].nullable()
        for successor in gfa.successors(merged) - {merged, SINK}
    ):
        merged_succ, merged_pred = merged_succ | own, merged_pred | own
    succ[merged], pred[merged] = merged_succ, merged_pred
    return Closure(pred=pred, succ=succ)


# -- the driver ---------------------------------------------------------------


def rewrite_gfa(
    gfa: GFA,
    order: Sequence[str] = DEFAULT_ORDER,
    rng: random.Random | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> RewriteResult:
    """Run rewrite rules on ``gfa`` (mutated in place) to exhaustion.

    With ``rng`` given, each step picks uniformly among *all* enabled
    rules instead of following ``order`` — the Claim 2 confluence
    experiments use this to show any order reaches an equivalent SORE.
    """
    if recorder.enabled:
        gfa.recorder = recorder
    steps: list[Application] = []
    closure: Closure | None = None
    while True:
        if rng is None:
            if closure is None:
                closure = gfa.closure()
                if recorder.enabled:
                    recorder.count("rewrite.closure_computed")
            application = find_application(gfa, order, closure)
        else:
            candidates = all_applications(gfa)
            application = rng.choice(candidates) if candidates else None
        if application is None:
            break
        merged = apply_application(gfa, application)
        steps.append(application)
        # optional and self_loop leave the closure as it was; a merge
        # only renames its members (docs/ALGORITHMS.md §3).
        if closure is not None and merged is not None:
            closure = _merged_closure(gfa, closure, application.nodes, merged)
        if contracts_enabled():
            context = f"rewrite.{application.rule}"
            check_gfa(gfa, context=context)
            if closure is not None:
                check_carried_closure(gfa, closure, context=context)
        if recorder.enabled:
            recorder.count("rewrite.steps")
            recorder.count(f"rewrite.{application.rule}")
            if closure is not None:
                carried = "updated" if merged is not None else "reused"
                recorder.count(f"rewrite.closure_{carried}")
    regex = None
    if gfa.is_final():
        regex = contract_stars(simplify(gfa.final_regex()))
        if contracts_enabled():
            check_emitted_sore(regex, context="rewrite")
    return RewriteResult(regex=regex, gfa=gfa, steps=steps, closure=closure)


def rewrite(
    soa: SOA,
    order: Sequence[str] = DEFAULT_ORDER,
    rng: random.Random | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> RewriteResult:
    """Algorithm 1: SOA → equivalent SORE, or failure.

    The input SOA is not mutated.  ``result.succeeded`` tells whether an
    equivalent SORE exists *and* was found; per Theorem 1 the rewrite
    system is complete, so failure means no equivalent SORE exists —
    typically because the sample behind the SOA was not representative
    (that is iDTD's cue to repair, Section 6).
    """
    return rewrite_gfa(GFA.from_soa(soa), order=order, rng=rng, recorder=recorder)

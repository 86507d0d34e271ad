"""The incremental rewrite loop against the recomputing one it replaced.

``reference_find_disjunction`` is the ``disjunction`` finder as it stood
before candidates were bucketed by neighbourhood: it compares every
node pair, with the set algebra of the set-valued closure
(``reference_neighbourhoods_match``, ``reference_disjunction_case``).
``reference_find_optional`` is the ``optional`` finder as it stood
before the closure half of its test was indexed once per closure: it
checks every node in turn.  ``reference_normalize_label`` is the full
label normaliser that ran after every rule before only the new top node
was normalised.  On random samples (2T-INF over random words of 4–16
symbols) iDTD runs with its repairs, and at every rule search of every
``rewrite_gfa`` call the closure the loop hands to the finders (carried
across rules and repairs) must equal a fresh ``gfa.closure()`` and the
set-valued reference closure; the indexes it carries from an earlier
search (the ``optional`` mask and the disjunction pairs) must equal
those of a fresh closure; both finders must return the reference's
``Application``, and the bucketed one must pick its candidates from
exactly the pairs the pairwise test accepts; every label a rule or an
SCC contraction builds must equal its full normalisation.  A table of
unary wrappings pins the top-node normaliser on shapes random samples
rarely reach.
"""

import importlib
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata.gfa import GFA, mask_nodes
from repro.core.idtd import idtd_from_soa
from repro.core.rewrite import (
    Application,
    _find_disjunction,
    _find_optional,
    _matching_pairs,
    _optional_mask,
)
from repro.learning.tinf import tinf
from repro.regex.ast import Opt, Plus, Regex
from repro.regex.normalize import expand_stars, normalize
from repro.regex.parser import parse_regex

from ..conftest import wide_samples
from .test_closure_bits import SetClosure, as_sets, reference_closure

# repro.core re-exports the functions ``idtd`` and ``rewrite``, which
# shadow the submodule attributes; patch the modules themselves.
idtd_module = importlib.import_module("repro.core.idtd")
rewrite_module = importlib.import_module("repro.core.rewrite")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_disjunction_case(
    gfa: GFA, closure: SetClosure, members: tuple[int, ...]
) -> bool | None:
    internal = any(
        gfa.has_edge(tail, head) for tail in members for head in members
    )
    if not internal:
        return False
    if all(head in closure.succ[tail] for tail in members for head in members):
        return True
    return None


def reference_neighbourhoods_match(
    closure: SetClosure, members: set[int], first: int, second: int
) -> bool:
    return (
        closure.pred[first] - members == closure.pred[second] - members
        and closure.succ[first] - members == closure.succ[second] - members
    )


def reference_find_disjunction(gfa: GFA, closure: SetClosure) -> Application | None:
    nodes = sorted(gfa.nodes())
    for index, first in enumerate(nodes):
        for second in nodes[index + 1 :]:
            members = {first, second}
            if not reference_neighbourhoods_match(closure, members, first, second):
                continue
            if reference_disjunction_case(gfa, closure, (first, second)) is None:
                continue
            group = [first, second]
            for candidate in nodes:
                if candidate in group:
                    continue
                extended = set(group) | {candidate}
                if all(
                    reference_neighbourhoods_match(closure, extended, member, candidate)
                    and reference_neighbourhoods_match(
                        closure, extended, group[0], member
                    )
                    for member in group
                ) and reference_disjunction_case(
                    gfa, closure, tuple(extended)
                ) is not None:
                    group.append(candidate)
            return Application("disjunction", tuple(group))
    return None


def reference_find_optional(gfa: GFA, closure: SetClosure) -> Application | None:
    for node in sorted(gfa.nodes()):
        if gfa.labels[node].nullable():
            direct_succ = set(mask_nodes(gfa.successors(node))) - {node}
            if not any(
                gfa.has_edge(predecessor, successor)
                for predecessor in set(mask_nodes(gfa.predecessors(node))) - {node}
                for successor in direct_succ
            ):
                continue
        predecessors = closure.pred[node]
        if predecessors and all(
            closure.succ[node] <= closure.succ[predecessor]
            for predecessor in predecessors
        ):
            return Application("optional", (node,))
    return None


def reference_normalize_label(label: Regex) -> Regex:
    return expand_stars(normalize(label))


@contextmanager
def checked_rewrite_loop():
    """Patch the rewrite loop's rule search and normaliser with oracles.

    Yields a list that collects one entry per checked rule search, one
    per search that found indexes on its closure and one per checked
    label, so a test can tell the checks really ran.
    """
    checked: list[str] = []
    find_application = rewrite_module.find_application
    normalize_label = rewrite_module.normalize_label

    def checked_find(gfa, order, closure=None):
        assert closure is not None
        fresh = gfa.closure()
        assert closure == fresh
        sets = reference_closure(gfa)
        assert as_sets(closure) == sets
        nodes = sorted(gfa.nodes())
        pairwise = [
            (first, second)
            for index, first in enumerate(nodes)
            for second in nodes[index + 1 :]
            if reference_neighbourhoods_match(sets, {first, second}, first, second)
        ]
        assert _matching_pairs(nodes, fresh) == pairwise
        if closure.optional_mask is not None:
            checked.append("carried")
        # The finders run on the loop's closure, so they read any index
        # an earlier search built on it; it must equal a fresh one.
        assert _find_optional(gfa, closure) == reference_find_optional(gfa, sets)
        assert _find_disjunction(gfa, closure) == reference_find_disjunction(
            gfa, sets
        )
        assert closure.optional_mask == _optional_mask(fresh)
        assert closure.disjunction_pairs == pairwise
        checked.append("search")
        return find_application(gfa, order, closure)

    def checked_normalize(label):
        normal = normalize_label(label)
        assert normal == reference_normalize_label(label)
        checked.append("label")
        return normal

    with mock.patch.object(rewrite_module, "find_application", checked_find), \
            mock.patch.object(rewrite_module, "normalize_label", checked_normalize), \
            mock.patch.object(idtd_module, "normalize_label", checked_normalize):
        yield checked


@SETTINGS
@given(wide_samples())
def test_incremental_rewrite_matches_the_recomputing_one(words):
    with checked_rewrite_loop() as checked:
        result = idtd_from_soa(tinf(words))
    # One search per step plus the failed one ending each rewrite_gfa
    # call; one label per step plus one per SCC contraction.  optional
    # and self_loop keep the closure, so the search after each of them
    # reads the indexes the search before it built.
    assert checked.count("search") > len(result.steps)
    assert checked.count("carried") == sum(
        step.rule in ("optional", "self_loop") for step in result.steps
    )
    assert checked.count("label") >= len(result.steps)


#: Labels in normal form, of every top-node shape a rule can wrap.
NORMAL_LABELS = [
    "a", "a?", "a+", "(a+)?", "a b", "a + b", "(a b)?", "(a b)+",
    "((a b)+)?", "(a + b?)+", "a? b?", "(a? b?)+", "((a? b?)+)?",
]


@pytest.mark.parametrize("text", NORMAL_LABELS)
@pytest.mark.parametrize("outer", [Opt, Plus])
@pytest.mark.parametrize("inner", [None, Opt, Plus])
def test_top_node_normaliser_matches_the_full_one(text, outer, inner):
    """Every unary wrapping of a normal label, once or twice over.

    A self-loop on an ``(s+)?`` node, for one, is rare in random
    samples; this pins ``((s+)?)+ → (s+)?`` and its siblings directly.
    """
    normalize_label = rewrite_module.normalize_label
    child = parse_regex(text)
    assert reference_normalize_label(child) == child
    if inner is not None:
        child = normalize_label(inner(child))
        assert child == reference_normalize_label(child)
    label = outer(child)
    assert normalize_label(label) == reference_normalize_label(label)

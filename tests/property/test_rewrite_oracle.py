"""The incremental rewrite loop against the recomputing one it replaced.

``reference_find_disjunction`` is the ``disjunction`` finder as it stood
before candidates were bucketed by neighbourhood: it compares every
node pair.  ``reference_normalize_label`` is the full label normaliser
that ran after every rule before only the new top node was normalised.
On random samples (2T-INF over random words of 4–16 symbols) iDTD runs
with its repairs, and at every rule search of every ``rewrite_gfa``
call the closure the loop hands to the finders must equal a fresh
``gfa.closure()``, the bucketed finder must return the reference's
``Application`` and pick its candidates from exactly the pairs the
pairwise test accepts; every label a rule or an SCC contraction builds
must equal its full normalisation.  A table of unary wrappings pins the
top-node normaliser on shapes random samples rarely reach.
"""

import importlib
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata.gfa import GFA, Closure
from repro.core.idtd import idtd_from_soa
from repro.core.rewrite import (
    Application,
    _disjunction_case,
    _find_disjunction,
    _matching_pairs,
    _neighbourhoods_match,
)
from repro.learning.tinf import tinf
from repro.regex.ast import Opt, Plus, Regex
from repro.regex.normalize import expand_stars, normalize
from repro.regex.parser import parse_regex

from .test_repair_oracle import wide_samples

# repro.core re-exports the functions ``idtd`` and ``rewrite``, which
# shadow the submodule attributes; patch the modules themselves.
idtd_module = importlib.import_module("repro.core.idtd")
rewrite_module = importlib.import_module("repro.core.rewrite")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_find_disjunction(gfa: GFA, closure: Closure) -> Application | None:
    nodes = sorted(gfa.nodes())
    for index, first in enumerate(nodes):
        for second in nodes[index + 1 :]:
            members = {first, second}
            if not _neighbourhoods_match(closure, members, first, second):
                continue
            if _disjunction_case(gfa, closure, (first, second)) is None:
                continue
            group = [first, second]
            for candidate in nodes:
                if candidate in group:
                    continue
                extended = set(group) | {candidate}
                if all(
                    _neighbourhoods_match(closure, extended, member, candidate)
                    and _neighbourhoods_match(
                        closure, extended, group[0], member
                    )
                    for member in group
                ) and _disjunction_case(gfa, closure, tuple(extended)) is not None:
                    group.append(candidate)
            return Application("disjunction", tuple(group))
    return None


def reference_normalize_label(label: Regex) -> Regex:
    return expand_stars(normalize(label))


@contextmanager
def checked_rewrite_loop():
    """Patch the rewrite loop's rule search and normaliser with oracles.

    Yields a list that collects one entry per checked rule search and
    one per checked label, so a test can tell the checks really ran.
    """
    checked: list[str] = []
    find_application = rewrite_module.find_application
    normalize_label = rewrite_module.normalize_label

    def checked_find(gfa, order, closure=None):
        assert closure is not None
        assert closure == gfa.closure()
        nodes = sorted(gfa.nodes())
        pairwise = [
            (first, second)
            for index, first in enumerate(nodes)
            for second in nodes[index + 1 :]
            if _neighbourhoods_match(closure, {first, second}, first, second)
        ]
        assert _matching_pairs(nodes, closure) == pairwise
        assert _find_disjunction(gfa, closure) == reference_find_disjunction(
            gfa, closure
        )
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
    # call; one label per step plus one per SCC contraction.
    assert checked.count("search") > len(result.steps)
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

"""API-level rewrite helpers: explicit and carried closures, enumeration."""

from hypothesis import given, settings

from repro.automata.gfa import GFA
from repro.core.numeric import annotate_numeric
from repro.core.rewrite import (
    all_applications,
    apply_application,
    find_application,
    rewrite_gfa,
)
from repro.learning.tinf import tinf
from repro.obs.recorder import StatsRecorder
from repro.regex.language import matches

from ..conftest import sores

FIGURE1_WORDS = [tuple(w) for w in ["bacacdacde", "cbacdbacde", "abccaadcde"]]


class TestFindApplication:
    def test_explicit_closure_reuse(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        closure = gfa.closure()
        first = find_application(gfa, closure=closure)
        second = find_application(gfa)  # computes its own closure
        assert first == second

    def test_given_closure_is_carried_not_computed(self):
        computed, carried = StatsRecorder(), StatsRecorder()
        fresh = rewrite_gfa(GFA.from_soa(tinf(FIGURE1_WORDS)), recorder=computed)
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        given = rewrite_gfa(gfa, recorder=carried, closure=gfa.closure())
        assert given.regex == fresh.regex and given.steps == fresh.steps
        assert given.closure == gfa.closure()
        assert computed.snapshot()["counters"]["rewrite.closure_computed"] == 1
        counters = carried.snapshot()["counters"]
        assert counters["rewrite.closure_carried"] == 1
        assert "rewrite.closure_computed" not in counters

    def test_custom_priority_changes_first_rule(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        application = find_application(gfa, order=("self_loop", "optional"))
        assert application.rule == "self_loop"

    def test_all_applications_lists_each_enabled_rule_once(self):
        gfa = GFA.from_soa(tinf(FIGURE1_WORDS))
        enabled = all_applications(gfa)
        rules = [application.rule for application in enabled]
        assert len(rules) == len(set(rules))
        assert "optional" in rules
        assert "self_loop" in rules  # a->a exists

    def test_none_when_final(self):
        gfa = GFA.from_soa(tinf([("a",)]))
        while (application := find_application(gfa)) is not None:
            apply_application(gfa, application)
        assert gfa.is_final()
        assert all_applications(gfa) == []


class TestNumericProperty:
    @settings(max_examples=30, deadline=None)
    @given(sores(max_symbols=5))
    def test_annotated_expression_accepts_the_sample(self, expression):
        """Numeric tightening never rejects the data it came from."""
        from repro.datagen.strings import representative_sample

        sample = representative_sample(expression)
        annotated = annotate_numeric(expression, sample)
        for word in sample:
            assert matches(annotated, word), (word, annotated)

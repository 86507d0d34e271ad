"""Glushkov construction: first/last/follow sets and derived notions."""

from hypothesis import given, settings

from repro.regex.glushkov import glushkov
from repro.regex.language import Matcher, matches
from repro.regex.parser import parse_regex

from ..conftest import sores


class TestConstruction:
    def test_positions_count_symbol_occurrences(self):
        automaton = glushkov(parse_regex("a (a + b)*"))
        assert sorted(automaton.labels) == ["a", "a", "b"]

    def test_first_and_last_symbols(self):
        automaton = glushkov(parse_regex("(a + b)? c d*"))
        assert automaton.first_symbols() == {"a", "b", "c"}
        assert automaton.last_symbols() == {"c", "d"}

    def test_two_grams_of_paper_expression(self):
        # (a + b)+c has 2-grams {ab, aa, ba, bb, ac, bc} (Section 4).
        automaton = glushkov(parse_regex("(a + b)+ c"))
        assert automaton.two_grams() == {
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
            ("a", "c"),
            ("b", "c"),
        }

    def test_nullable_flag(self):
        assert glushkov(parse_regex("a?")).nullable
        assert not glushkov(parse_regex("a")).nullable

    def test_repeat_desugaring(self):
        expression = parse_regex("a{2,3}")
        assert not matches(expression, ("a",))
        assert matches(expression, ("a", "a"))
        assert matches(expression, ("a", "a", "a"))
        assert not matches(expression, ("a", "a", "a", "a"))

    def test_repeat_unbounded(self):
        expression = parse_regex("a{2,}")
        assert not matches(expression, ("a",))
        assert matches(expression, tuple("a" * 7))


class TestAcceptance:
    def test_accepts_examples(self):
        # The same words through the one-word simulation and through a
        # compiled matcher reused across words.
        expression = parse_regex("((b? (a + c))+ d)+ e")
        matcher = Matcher(expression)
        for word in ["bacacdacde", "cbacdbacde", "abccaadcde", "ade"]:
            assert matches(expression, tuple(word)), word
            assert matcher.accepts(tuple(word)), word
        for word in ["", "e", "ae", "adde"]:
            assert not matches(expression, tuple(word)), word
            assert not matcher.accepts(tuple(word)), word


class TestSingleOccurrence:
    @settings(max_examples=40, deadline=None)
    @given(sores())
    def test_sores_give_single_occurrence_automata(self, expression):
        assert glushkov(expression).single_occurrence()

    def test_repeated_symbols_break_single_occurrence(self):
        assert not glushkov(parse_regex("a b a")).single_occurrence()


class TestDeterminismCriterion:
    def test_deterministic(self):
        assert glushkov(parse_regex("a (b + c)")).is_deterministic()

    def test_nondeterministic_firsts(self):
        assert not glushkov(parse_regex("(a b) + (a c)")).is_deterministic()

    def test_nondeterministic_follows(self):
        assert not glushkov(parse_regex("(a + b)* a")).is_deterministic()

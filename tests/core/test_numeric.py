"""Numerical predicates (Section 9)."""

import pytest

from repro.core.numeric import annotate_numeric
from repro.regex.ast import Repeat, Sym
from repro.regex.language import matches
from repro.regex.parser import parse_regex
from repro.regex.printer import to_paper_syntax


class TestPaperExample:
    def test_aabb_plus(self):
        """The paper's 'a=2 b>=2' example."""
        regex = parse_regex("a+ b+")
        words = [tuple("aabb"), tuple("aabbb"), tuple("aabbbb")]
        annotated = annotate_numeric(regex, words)
        assert annotated == parse_regex("a{2} b{2,}")
        assert to_paper_syntax(annotated) == "a{2,2} b{2,}"


class TestPolicies:
    def test_constant_count_becomes_exact(self):
        annotated = annotate_numeric(
            parse_regex("x+"), [tuple("xxx"), tuple("xxx")]
        )
        assert annotated == Repeat(Sym("x"), 3, 3)

    def test_varying_counts_with_min_two_become_at_least(self):
        annotated = annotate_numeric(
            parse_regex("x+"), [tuple("xx"), tuple("xxxx")]
        )
        assert annotated == Repeat(Sym("x"), 2, None)

    def test_min_one_stays_plus(self):
        annotated = annotate_numeric(parse_regex("x+"), [tuple("x"), tuple("xxx")])
        assert annotated == parse_regex("x+")

    def test_star_with_zero_stays_star(self):
        annotated = annotate_numeric(
            parse_regex("a x*"), [tuple("a"), tuple("axx")]
        )
        assert annotated == parse_regex("a x*")

    def test_star_never_empty_tightens(self):
        annotated = annotate_numeric(
            parse_regex("a x*"), [tuple("axx"), tuple("axxx")]
        )
        assert annotated == parse_regex("a x{2,}")

    def test_max_exact_cap(self):
        words = [tuple("x" * 30)]
        annotated = annotate_numeric(parse_regex("x+"), words, max_exact=16)
        assert annotated == Repeat(Sym("x"), 30, None)

    def test_nested_loops(self):
        regex = parse_regex("(a b+)+")
        words = [tuple("abbabb"), tuple("abbabb")]
        annotated = annotate_numeric(regex, words)
        # outer loop: always 2; inner loop: always 2
        assert to_paper_syntax(annotated) == "(a b{2,2}){2,2}"


class TestRobustness:
    def test_rejected_words_contribute_nothing(self):
        annotated = annotate_numeric(
            parse_regex("x+"), [tuple("yy"), tuple("xx"), tuple("xx")]
        )
        assert annotated == Repeat(Sym("x"), 2, 2)

    def test_no_accepted_words_returns_original(self):
        regex = parse_regex("x+")
        assert annotate_numeric(regex, [tuple("zz")]) is regex

    def test_non_single_occurrence_rejected(self):
        with pytest.raises(ValueError):
            annotate_numeric(parse_regex("a (a + b)*"), [tuple("ab")])

    def test_annotated_language_still_accepts_sample(self):
        regex = parse_regex("a? (x + y)+ b")
        words = [tuple("axxb"), tuple("xyb"), tuple("ayyb")]
        annotated = annotate_numeric(regex, words)
        for word in words:
            assert matches(annotated, word)

"""Normal forms: the Claim 1 transformations, simplify laws, canonical."""

import pytest
from hypothesis import given, settings

from repro.datagen.corpora import TABLE2
from repro.regex.ast import Concat, Opt, Plus, Star, Sym
from repro.regex.language import language_equivalent
from repro.regex.normalize import (
    canonical,
    contract_repeats,
    contract_stars,
    expand_stars,
    normalize,
    simplify,
    syntactically_equal,
)
from repro.regex.parser import parse_regex
from repro.regex.printer import to_paper_syntax

from ..conftest import sores
from ..property.test_rewrite_oracle import NORMAL_LABELS

#: The rewrite loop's normal labels and every Table 2 expression.
IDENTITY_LABELS = [
    *NORMAL_LABELS,
    *(
        text
        for row in TABLE2
        for text in (row.original_dtd, row.expected_crx, row.expected_idtd)
    ),
]


class TestOperatorNormalForm:
    @pytest.mark.parametrize(
        "given_text,expected_text",
        [
            ("a??", "a?"),
            ("(a+)+", "a+"),
            ("(a*)*", "a*"),
            ("(a?)+", "a*"),
            ("(a+)?", "a*"),
            ("(a*)?", "a*"),
            ("(a?)*", "a*"),
            ("(a+)*", "a*"),
            ("(a*)+", "a*"),
            ("((a?)+)?", "a*"),
        ],
    )
    def test_normalize(self, given_text, expected_text):
        assert normalize(parse_regex(given_text)) == parse_regex(expected_text)

    def test_normalize_recurses(self):
        assert normalize(parse_regex("(b?? c)+ d")) == parse_regex("(b? c)+ d")

    def test_expand_and_contract_stars_are_inverse_on_star_forms(self):
        expression = parse_regex("a* (b c*)+")
        assert contract_stars(expand_stars(expression)) == expression

    def test_expand_stars_removes_all_stars(self):
        expanded = expand_stars(parse_regex("a* (b c*)+"))
        assert not any(isinstance(node, Star) for node in expanded.walk())


class TestSimplify:
    @pytest.mark.parametrize(
        "given_text,expected_text",
        [
            ("(a? + b)", "(a + b)?"),
            ("(a+ + b)+", "(a + b)+"),
            ("(a* + b)+", "(a + b)*"),
            ("(a+ + b + c+)+", "(a + b + c)+"),
            ("(a? + b+)+", "(a + b)*"),
            ("((a+ + c + e)+ + d+)+", "(a + c + e + d)+"),
        ],
    )
    def test_simplify(self, given_text, expected_text):
        assert simplify(parse_regex(given_text)) == parse_regex(expected_text)

    def test_simplify_leaves_plain_disjunction_alone(self):
        # (a+ + b) is NOT (a + b): simplification only under +/*.
        expression = parse_regex("a+ + b")
        assert simplify(expression) == expression

    @settings(max_examples=60, deadline=None)
    @given(sores())
    def test_simplify_preserves_language(self, expression):
        assert language_equivalent(simplify(expression), expression)

    @settings(max_examples=60, deadline=None)
    @given(sores())
    def test_normalize_preserves_language(self, expression):
        assert language_equivalent(normalize(expression), expression)


class TestCanonical:
    def test_commutative_equality(self):
        assert syntactically_equal(
            parse_regex("(a|b|c) d"), parse_regex("(c|a|b) d")
        )

    def test_distinguishes_different_structures(self):
        assert not syntactically_equal(parse_regex("a b"), parse_regex("b a"))
        assert not syntactically_equal(parse_regex("a?"), parse_regex("a"))

    def test_canonical_is_idempotent(self):
        expression = parse_regex("((c|a)+ b?)+")
        assert canonical(canonical(expression)) == canonical(expression)

    def test_canonical_sorts_nested_disjunctions(self):
        left = canonical(parse_regex("(b|a) (d|c)?"))
        right = canonical(parse_regex("(a|b) (c|d)?"))
        assert left == right


class TestContractRepeats:
    """Adjacent same-symbol factor runs collapse into counted factors.

    ``contract_repeats`` only fires when every factor's count set is a
    contiguous interval *and* the concatenation of those intervals is
    again an interval — otherwise rewriting would change the language.
    """

    @pytest.mark.parametrize(
        ("before", "after"),
        [
            ("a a? a? b", "a{1,3} b"),
            ("a a+", "a{2,}"),
            ("a a*", "a+"),
            ("a a", "a{2,2}"),
            ("a? a?", "a{0,2}"),
            ("a* a*", "a*"),
            ("b a a? c", "b a{1,2} c"),
        ],
    )
    def test_contractions(self, before, after):
        contracted = contract_repeats(parse_regex(before))
        assert to_paper_syntax(contracted) == after
        assert language_equivalent(contracted, parse_regex(before))

    @pytest.mark.parametrize(
        "text",
        [
            "a b a",  # different symbols between the run
            "a (a + b)",  # factor is not a pure same-symbol interval
            "a? b?",  # runs of length one are left untouched
        ],
    )
    def test_non_contractible_left_alone(self, text):
        expression = parse_regex(text)
        assert contract_repeats(expression) == expression

    def test_single_factor_runs_never_rewritten(self):
        # Opt(Plus(a)) is interval-shaped, but a run of one factor must
        # not be restyled (a+? is not made a*): only genuine runs fuse.
        expression = Opt(Plus(Sym("a")))
        assert contract_repeats(expression) == expression

    def test_recurses_below_the_surface(self):
        contracted = contract_repeats(parse_regex("(a a? + b) c"))
        assert to_paper_syntax(contracted) == "(a{1,2} + b) c"

    @settings(max_examples=60, deadline=None)
    @given(sores())
    def test_language_preserved_on_random_sores(self, expression):
        assert language_equivalent(contract_repeats(expression), expression)


class TestUnchangedSubtreesAreKept:
    """A normaliser returns a node itself when it changes nothing below it."""

    @pytest.mark.parametrize("text", IDENTITY_LABELS)
    def test_normal_label_comes_back_itself(self, text):
        # NORMAL_LABELS spell r* as (r+)?; normalize contracts that.
        regex = contract_stars(parse_regex(text))
        assert normalize(regex) is regex
        assert contract_stars(regex) is regex
        simplified = simplify(regex)
        if simplified == regex:
            assert simplified is regex
        assert simplify(simplified) is simplified
        contracted = contract_repeats(regex)
        if contracted == regex:
            assert contracted is regex

    @pytest.mark.parametrize("text", IDENTITY_LABELS)
    def test_changed_child_yields_a_new_node(self, text):
        superfluous = Opt(Opt(contract_stars(parse_regex(text))))
        regex = Concat((Sym("zz"), superfluous))
        normal = normalize(regex)
        assert normal is not regex
        assert normal == Concat((Sym("zz"), normalize(superfluous)))
        assert normal.parts[0] is regex.parts[0]

    def test_changed_grandchild_rebuilds_only_its_path(self):
        regex = parse_regex("(b?? c)+ d")
        normal = normalize(regex)
        assert normal == parse_regex("(b? c)+ d")
        assert normal.parts[0] is not regex.parts[0]
        assert normal.parts[0].inner.parts[1] is regex.parts[0].inner.parts[1]
        assert normal.parts[1] is regex.parts[1]

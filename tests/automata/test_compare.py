"""Cross-representation language comparison (SOA vs RE)."""

import pytest
from hypothesis import given, settings

from repro.automata.compare import (
    regex_included_in_soa,
    regex_vs_soa_counterexample,
    soa_equivalent_to_regex,
    soa_included_in_regex,
    soa_vs_regex_counterexample,
)
from repro.automata.soa import SOA
from repro.regex.parser import parse_regex

from ..conftest import sores


class TestInclusion:
    def test_soa_in_regex(self):
        soa = SOA.from_regex(parse_regex("a b"))
        assert soa_included_in_regex(soa, parse_regex("a b?"))
        assert not soa_included_in_regex(soa, parse_regex("a"))

    def test_regex_in_soa(self):
        soa = SOA.from_regex(parse_regex("a b?"))
        assert regex_included_in_soa(parse_regex("a b"), soa)
        assert not regex_included_in_soa(parse_regex("a b b"), soa)

    def test_counterexamples_are_witnesses(self):
        soa = SOA.from_regex(parse_regex("a+"))
        witness = soa_vs_regex_counterexample(soa, parse_regex("a"))
        assert witness == ("a", "a")
        witness = regex_vs_soa_counterexample(
            parse_regex("a*"), SOA.from_regex(parse_regex("a+"))
        )
        assert witness == ()

    def test_empty_word_handling(self):
        soa = SOA.from_regex(parse_regex("a?"))
        assert soa.accepts_empty
        assert soa_included_in_regex(soa, parse_regex("a?"))
        assert not soa_included_in_regex(soa, parse_regex("a"))


#: ``(soa expression, regex, alphabet) -> witness`` of
#: :func:`soa_vs_regex_counterexample`: the first word of
#: ``L(soa) \\ L(regex)`` in shortlex order over the sorted alphabet.
SOA_VS_REGEX_PINS = [
    ("(a + b)* c", "a* b* c", None, ("b", "a", "c")),
    ("a (b + c)+ d?", "a b+ c* d?", None, ("a", "c")),
    ("(a b)+ c?", "a b (a b)? c", None, ("a", "b")),
    ("a? b* (c + d)", "a? b? (c + d)", None, ("b", "b", "c")),
    ("(a + b + c)* d e? f", "(a + b)* c? d e? f", None, ("c", "a", "d", "f")),
    ("(a + b)* c", "(a + b)* c", None, None),
    ("(a + b)* c", "c", ["c"], None),
    ("(a + b)* c", "a* c", ["b", "c"], ("b", "c")),
]

#: ``(regex, soa expression) -> witness`` of :func:`regex_vs_soa_counterexample`.
REGEX_VS_SOA_PINS = [
    ("(a b)+ c?", "a b c?", ("a", "b", "a", "b")),
    ("a* b* c", "(a + b)* c", None),
    ("a (b c)* d", "a (b + c)* d", None),
    ("a (b c)* d", "a b c d", ("a", "d")),
    ("(a + b)+ c", "a+ b* c", ("b", "c")),
    ("a? b?", "a b", ()),
    ("a & b", "a b", ("b", "a")),  # interleaving: the derivative engine
]


class TestWitnessPins:
    """Both directions run one product search; the witnesses are pinned."""

    @pytest.mark.parametrize(("soa", "regex", "alphabet", "witness"), SOA_VS_REGEX_PINS)
    def test_soa_vs_regex(self, soa, regex, alphabet, witness):
        automaton = SOA.from_regex(parse_regex(soa))
        assert (
            soa_vs_regex_counterexample(automaton, parse_regex(regex), alphabet)
            == witness
        )

    @pytest.mark.parametrize(("regex", "soa", "witness"), REGEX_VS_SOA_PINS)
    def test_regex_vs_soa(self, regex, soa, witness):
        automaton = SOA.from_regex(parse_regex(soa))
        assert regex_vs_soa_counterexample(parse_regex(regex), automaton) == witness


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(sores(max_symbols=6))
    def test_sore_equivalent_to_its_soa(self, expression):
        """Proposition 1, cross-checked via the product construction."""
        soa = SOA.from_regex(expression)
        assert soa_equivalent_to_regex(soa, expression)

    def test_inequivalent(self):
        soa = SOA.from_regex(parse_regex("a b"))
        assert not soa_equivalent_to_regex(soa, parse_regex("a b?"))

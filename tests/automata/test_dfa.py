"""Explicit DFAs: subset construction, minimisation, isomorphism."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings

from repro.automata.dfa import from_regex, isomorphic, minimal_dfa_size, minimize
from repro.regex.language import matches
from repro.regex.parser import parse_regex

from ..conftest import sores

_REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Print the transition tables of a DFA and its minimisation, built in a
#: fresh interpreter, for comparison across hash seeds.
_TABLE_SCRIPT = """
from repro.automata.dfa import from_regex, minimize
from repro.regex.parser import parse_regex

dfa = from_regex(parse_regex("(a + b + c)* d e? f"))
print(sorted(dfa.transitions.items()), sorted(dfa.accepting))
minimal = minimize(dfa)
print(sorted(minimal.transitions.items()), sorted(minimal.accepting))
"""


def _tables_under_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_REPO_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _TABLE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


class TestConstruction:
    def test_state_numbering_is_independent_of_the_hash_seed(self):
        # Discovery order follows the sorted alphabet, not frozenset
        # iteration, so both tables are equal under any PYTHONHASHSEED.
        assert _tables_under_seed("0") == _tables_under_seed("1")

    def test_accepts_agrees_with_matcher(self):
        expression = parse_regex("a (b + c)* d?")
        dfa = from_regex(expression)
        for length in range(5):
            for word in itertools.product("abcd", repeat=length):
                assert dfa.accepts(word) == matches(expression, word), word

    def test_nondeterministic_expression_determinised(self):
        expression = parse_regex("(a + b)* a")  # classic non-1-unambiguous
        dfa = from_regex(expression)
        for length in range(6):
            for word in itertools.product("ab", repeat=length):
                assert dfa.accepts(word) == matches(expression, word), word

    @settings(max_examples=40, deadline=None)
    @given(sores(max_symbols=5))
    def test_dfa_equals_matcher_on_random_sores(self, expression):
        dfa = from_regex(expression)
        alphabet = sorted(expression.alphabet())
        for word in itertools.islice(
            itertools.chain.from_iterable(
                itertools.product(alphabet, repeat=k) for k in range(4)
            ),
            80,
        ):
            assert dfa.accepts(word) == matches(expression, word)


class TestMinimisation:
    def test_redundant_states_merged(self):
        # (a b) + (a c) determinises to 4 live states; minimisation
        # cannot shrink below... b,c targets merge: accepts {ab, ac}:
        # states: start, after-a, after-ab/ac (merged) => 3
        dfa = minimize(from_regex(parse_regex("(a b) + (a c)")))
        assert dfa.state_count == 3

    def test_language_preserved(self):
        expression = parse_regex("(a + b)+ c?")
        minimal = minimize(from_regex(expression))
        for length in range(5):
            for word in itertools.product("abc", repeat=length):
                assert minimal.accepts(word) == matches(expression, word)

    def test_minimal_size_of_equivalent_expressions_equal(self):
        assert minimal_dfa_size(parse_regex("(a?)+")) == minimal_dfa_size(
            parse_regex("a*")
        )

    def test_star_has_one_state(self):
        assert minimal_dfa_size(parse_regex("a*")) == 1

    @settings(max_examples=30, deadline=None)
    @given(sores(max_symbols=5))
    def test_minimisation_never_grows(self, expression):
        dfa = from_regex(expression)
        assert minimize(dfa).state_count <= dfa.state_count


class TestIsomorphism:
    def test_equivalent_expressions_isomorphic(self):
        first = minimize(from_regex(parse_regex("(a + b)*")))
        second = minimize(from_regex(parse_regex("(a* b*)*")))
        assert isomorphic(first, second)

    def test_inequivalent_not_isomorphic(self):
        first = minimize(from_regex(parse_regex("a+")))
        second = minimize(from_regex(parse_regex("a*")))
        assert not isomorphic(first, second)

    def test_different_alphabets_not_isomorphic(self):
        first = minimize(from_regex(parse_regex("a")))
        second = minimize(from_regex(parse_regex("b")))
        assert not isomorphic(first, second)

    @settings(max_examples=30, deadline=None)
    @given(sores(max_symbols=5))
    def test_isomorphism_agrees_with_language_equivalence(self, expression):
        """Third independent equivalence path: Prop 1 meets Hopcroft."""
        from repro.automata.soa import SOA
        from repro.core.rewrite import rewrite

        result = rewrite(SOA.from_regex(expression))
        assert result.succeeded
        assert isomorphic(
            minimize(from_regex(expression)),
            minimize(from_regex(result.regex)),
        )

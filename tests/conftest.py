"""Shared fixtures and hypothesis strategies.

The strategies build *structured* inputs: random SOREs and CHAREs over
fresh symbols (each symbol used once, by construction), and random word
samples.  They are deliberately small — the algorithms are polynomial,
but language-equivalence oracles in the tests are exponential in the
worst case.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from repro.regex.ast import Opt, Plus, Regex, Star, Sym, chain_factor, concat, disj
from repro.regex.normalize import normalize

SYMBOLS = [f"x{i}" for i in range(12)]


def build_random_sore(rng: random.Random, symbols: list[str]) -> Regex:
    """A random SORE using each of ``symbols`` exactly once."""
    if len(symbols) == 1:
        expression: Regex = Sym(symbols[0])
    else:
        split = rng.randint(1, len(symbols) - 1)
        left = build_random_sore(rng, symbols[:split])
        right = build_random_sore(rng, symbols[split:])
        expression = (
            concat(left, right) if rng.random() < 0.55 else disj(left, right)
        )
    roll = rng.random()
    if roll < 0.20:
        expression = Opt(expression)
    elif roll < 0.33:
        expression = Plus(expression)
    elif roll < 0.42:
        expression = Star(expression)
    return expression


@st.composite
def sores(draw: st.DrawFn, max_symbols: int = 7) -> Regex:
    """Hypothesis strategy: a normalized random SORE."""
    count = draw(st.integers(min_value=1, max_value=max_symbols))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return normalize(build_random_sore(rng, SYMBOLS[:count]))


@st.composite
def chares(draw: st.DrawFn, max_symbols: int = 8) -> Regex:
    """Hypothesis strategy: a random CHARE."""
    count = draw(st.integers(min_value=1, max_value=max_symbols))
    symbols = SYMBOLS[:count]
    factors: list[Regex] = []
    index = 0
    while index < count:
        width = draw(st.integers(min_value=1, max_value=min(3, count - index)))
        quantifier = draw(st.sampled_from(["", "?", "+", "*"]))
        factors.append(chain_factor(symbols[index : index + width], quantifier))
        index += width
    return concat(*factors)


@st.composite
def word_samples(draw: st.DrawFn) -> list[tuple[str, ...]]:
    """Random word samples over a small alphabet (may include ε)."""
    alphabet_size = draw(st.integers(min_value=1, max_value=5))
    alphabet = SYMBOLS[:alphabet_size]
    words = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), max_size=8).map(tuple),
            min_size=1,
            max_size=12,
        )
    )
    return words


@st.composite
def wide_samples(draw: st.DrawFn) -> list[tuple[str, ...]]:
    """Random words over an alphabet of 4 to 16 symbols.

    Too few words for 2T-INF to be representative, so iDTD repairs.
    """
    size = draw(st.integers(min_value=4, max_value=16))
    alphabet = [f"s{index}" for index in range(size)]
    return draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=12).map(tuple),
            min_size=2,
            max_size=20,
        )
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20060912)  # the paper's conference date


@pytest.fixture
def two_cpus(monkeypatch: pytest.MonkeyPatch) -> None:
    """Report two CPUs, so that a run of at least
    :data:`~repro.runtime.parallel.PROCESS_CORPUS_FLOOR` documents and
    ``jobs=2`` folds on the warm process pool on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

"""Noise injection for the Section 9 experiments.

The paper's XHTML study found a dozen disallowed element names inside
``<p>`` content, each in a handful of the 30 000+ occurrences.  To
reproduce that scenario we corrupt a clean sample with low-rate
intruder symbols, with exact bookkeeping of which words were touched
so the support threshold's precision/recall can be measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Sequence

Word = tuple[str, ...]


@dataclass
class NoisyCorpus:
    """A corrupted sample plus ground truth about the corruption."""

    words: list[Word]
    corrupted_indexes: set[int]
    intruder_symbols: tuple[str, ...]

    @property
    def noise_rate(self) -> float:
        if not self.words:
            return 0.0
        return len(self.corrupted_indexes) / len(self.words)


def inject_intruders(
    words: Sequence[Word],
    intruders: Sequence[str],
    rate: float,
    rng: random.Random,
) -> NoisyCorpus:
    """Insert intruder symbols into a fraction ``rate`` of the words.

    Mirrors the XHTML scenario: a foreign element (``table`` inside a
    paragraph) shows up at a random position in a few words.
    """
    corrupted: list[Word] = []
    touched: set[int] = set()
    for index, word in enumerate(words):
        word = tuple(word)
        if rng.random() < rate:
            position = rng.randint(0, len(word))
            intruder = rng.choice(list(intruders))
            word = word[:position] + (intruder,) + word[position:]
            touched.add(index)
        corrupted.append(word)
    return NoisyCorpus(
        words=corrupted,
        corrupted_indexes=touched,
        intruder_symbols=tuple(intruders),
    )


"""Noise injection bookkeeping."""

import random

from repro.datagen.noise import inject_intruders


class TestIntruders:
    def test_rate_respected_roughly(self):
        rng = random.Random(0)
        words = [("a", "b")] * 1000
        noisy = inject_intruders(words, ["z"], rate=0.1, rng=rng)
        assert 0.06 < noisy.noise_rate < 0.14

    def test_corrupted_words_contain_an_intruder(self):
        rng = random.Random(1)
        words = [("a", "b")] * 100
        noisy = inject_intruders(words, ["z", "w"], rate=0.2, rng=rng)
        for index in noisy.corrupted_indexes:
            assert set(noisy.words[index]) & {"z", "w"}

    def test_untouched_words_identical(self):
        rng = random.Random(2)
        words = [("a", "b")] * 50
        noisy = inject_intruders(words, ["z"], rate=0.3, rng=rng)
        for index, word in enumerate(noisy.words):
            if index not in noisy.corrupted_indexes:
                assert word == ("a", "b")

    def test_zero_rate_changes_nothing(self):
        rng = random.Random(3)
        words = [("a",)] * 10
        noisy = inject_intruders(words, ["z"], rate=0.0, rng=rng)
        assert noisy.words == words
        assert noisy.noise_rate == 0.0


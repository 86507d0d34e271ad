"""Incremental computation (Section 9)."""

import random

from repro.core.crx import CrxState, crx
from repro.core.idtd import idtd
from repro.learning.incremental import IncrementalSOA
from repro.learning.tinf import tinf
from repro.regex.language import language_equivalent


def random_words(seed, alphabet, count, min_len=0, max_len=6):
    """Random sample with empty words interleaved mid-stream."""
    rng = random.Random(seed)
    words = [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(count)
    ]
    if not any(words):
        words.append(tuple(alphabet[:1]))
    return words


class TestIncrementalSOA:
    def test_matches_batch_inference(self):
        words = [tuple(w) for w in ["ab", "abb", "b", "aab"]]
        incremental = IncrementalSOA()
        incremental.add_all(words)
        assert incremental.infer() == idtd(words)

    def test_soa_is_quadratic_not_corpus_sized(self):
        incremental = IncrementalSOA()
        for _ in range(1000):
            incremental.add(("a", "b"))
        assert len(incremental.soa.edges) == 1

    def test_streaming_matches_batch_on_random_data(self):
        rng = random.Random(8)
        alphabet = ["x", "y", "z"]
        words = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            for _ in range(40)
        ]
        incremental = IncrementalSOA()
        incremental.add_all(words)
        assert incremental.soa.language_equal(tinf(words))


class TestIncrementalCrxState:
    def test_matches_batch_inference(self):
        words = [tuple(w) for w in ["abccde", "cccad", "bfegg", "bfehi"]]
        incremental = CrxState()
        incremental.add_all(words)
        assert incremental.infer() == crx(words)

    def test_quantifier_flip(self):
        incremental = CrxState()
        incremental.add(("a", "b"))
        incremental.infer()
        # b's count profile changes 1 -> 2 (and (b, b) is a new arrow): b becomes b+
        incremental.add(("a", "b", "b"))
        incremental.infer()
        incremental.add(("a", "b", "b"))
        result = incremental.infer()
        assert result == crx([("a", "b"), ("a", "b", "b"), ("a", "b", "b")])

    def test_incremental_equals_batch_on_random_data(self):
        rng = random.Random(13)
        alphabet = ["p", "q", "r", "s"]
        words = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            for _ in range(30)
        ]
        if not any(words):
            words.append(("p",))
        incremental = CrxState()
        for word in words:
            incremental.add(word)
        assert incremental.infer() == crx(words)


class TestRandomizedEquivalence:
    """Satellite: streamed, shard-merged and batch learners agree.

    Every comparison is on the *language*, not just structural regex
    equality, and every seed interleaves empty words mid-stream (the
    Section 9 trickle setting where ε-content arrives between real
    sequences)."""

    def test_incremental_soa_equivalent_to_batch(self):
        for seed in range(12):
            words = random_words(seed, ["a", "b", "c"], 25)
            incremental = IncrementalSOA()
            incremental.add_all(words)
            assert language_equivalent(incremental.infer(), idtd(words))

    def test_incremental_crx_equivalent_to_batch(self):
        for seed in range(12):
            words = random_words(100 + seed, ["p", "q", "r", "s"], 25)
            incremental = CrxState()
            incremental.add_all(words)
            assert language_equivalent(incremental.infer(), crx(words))

    def test_merged_soa_shards_equivalent_to_batch(self):
        for seed in range(12):
            words = random_words(200 + seed, ["a", "b", "c", "d"], 30)
            cut = len(words) // 3
            shards = [words[:cut], words[cut : 2 * cut], words[2 * cut :]]
            merged = IncrementalSOA()
            for shard in shards:
                part = IncrementalSOA()
                part.add_all(shard)
                merged.merge(part)
            assert merged.soa == tinf(words)
            assert language_equivalent(merged.infer(), idtd(words))

    def test_merged_crx_shards_equivalent_to_batch(self):
        for seed in range(12):
            words = random_words(300 + seed, ["x", "y", "z"], 30)
            cut = len(words) // 2
            merged = CrxState()
            for shard in (words[:cut], words[cut:]):
                part = CrxState()
                part.add_all(shard)
                merged.merge(part)
            assert merged.infer() == crx(words)
            assert language_equivalent(merged.infer(), crx(words))

    def test_merge_order_is_immaterial(self):
        words = random_words(7, ["a", "b"], 20)
        cut = len(words) // 2
        forward, backward = CrxState(), CrxState()
        first, second = CrxState(), CrxState()
        first.add_all(words[:cut])
        second.add_all(words[cut:])
        forward.merge(first)
        forward.merge(second)
        backward.merge(second)
        backward.merge(first)
        assert forward.infer() == backward.infer()


class TestMerge:
    def test_soa_merge_folds_new_evidence(self):
        left, right = IncrementalSOA(), IncrementalSOA()
        left.add(("a", "b"))
        right.add(("a", "b"))
        left.merge(right)
        right.add(("b", "c"))
        left.merge(right)
        assert left.soa.accepts(("a", "b", "c"))

    def test_crx_state_counted_add_equals_repetition(self):
        counted, repeated = CrxState(), CrxState()
        counted.add_counted(("a", "b"), 5)
        counted.add_counted((), 2)
        for _ in range(5):
            repeated.add(("a", "b"))
        for _ in range(2):
            repeated.add(())
        assert counted.profiles == repeated.profiles
        assert counted.word_count == repeated.word_count
        assert counted.infer() == repeated.infer()

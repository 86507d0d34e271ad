"""The SIRE learner: precedences, factorization, merge, dehydration."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.crx import crx
from repro.datagen.occurrences import shuffled_corpus
from repro.errors import CorpusError
from repro.learning.sire import (
    IncrementalSire,
    _partition_blocks,
    word_precedences,
)
from repro.regex.ast import Inter
from repro.regex.classify import is_deterministic
from repro.regex.language import language_equivalent, matches
from repro.regex.printer import to_paper_syntax


def learner_for(words):
    learner = IncrementalSire()
    learner.add_all(words)
    return learner


class TestPrecedences:
    def test_somewhere_before_pairs(self):
        assert word_precedences(("a", "b", "c")) == {
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        }

    def test_self_pairs_excluded(self):
        assert word_precedences(("a", "a")) == set()

    def test_non_adjacent_order_counts(self):
        assert ("a", "c") in word_precedences(("a", "b", "c"))


class TestPartition:
    def test_conflict_free_symbols_share_a_block(self):
        assert _partition_blocks(["a", "b", "c"], set()) == [["a", "b", "c"]]

    def test_conflicting_symbols_split(self):
        conflicts = {frozenset(("a", "b"))}
        assert _partition_blocks(["a", "b"], conflicts) == [["a"], ["b"]]

    def test_partition_is_presentation_order_independent(self):
        conflicts = {frozenset(("a", "c")), frozenset(("b", "c"))}
        assert _partition_blocks(["c", "a", "b"], conflicts) == _partition_blocks(
            ["b", "c", "a"], conflicts
        )


class TestInference:
    def test_recovers_interleaved_target(self):
        target, words = shuffled_corpus(
            ("a b?", "c", "d+"), 30, random.Random(11)
        )
        inferred = learner_for(words).infer()
        assert isinstance(inferred, Inter)
        assert is_deterministic(inferred)
        assert language_equivalent(inferred, target), to_paper_syntax(inferred)
        # CHARE alone collapses the shuffled symbols into one starred
        # disjunction and cannot stay equivalent to the target.
        assert not language_equivalent(crx(words), target)

    def test_accepts_every_permutation_it_saw(self):
        words = [tuple(p) for p in itertools.permutations(("a", "b", "c"))]
        inferred = learner_for(words).infer()
        assert is_deterministic(inferred)
        assert all(matches(inferred, word) for word in words)

    def test_degenerates_to_the_chare_without_conflicts(self):
        words = [("a", "b"), ("a", "b", "b")]
        learner = learner_for(words)
        assert learner.infer() == crx(words)

    def test_empty_state_raises(self):
        with pytest.raises(CorpusError):
            IncrementalSire().infer()


class TestMergeMonoid:
    def test_merge_equals_batch(self):
        _, words = shuffled_corpus(("a+", "b c?"), 24, random.Random(3))
        whole = learner_for(words)
        left = learner_for(words[:7])
        right = learner_for(words[7:])
        left.merge(right)
        assert left.canonical_fingerprint() == whole.canonical_fingerprint()
        assert left.infer() == whole.infer()

    def test_conflicts_can_emerge_only_at_merge_time(self):
        left = learner_for([("a", "b")])
        right = learner_for([("b", "a")])
        assert not left._conflicts()
        left.merge(right)
        assert left._conflicts() == {frozenset(("a", "b"))}

    def test_add_counted_matches_repeated_add(self):
        counted = IncrementalSire()
        counted.add_counted(("a", "b"), 3)
        repeated = IncrementalSire()
        for _ in range(3):
            repeated.add(("a", "b"))
        assert (
            counted.canonical_fingerprint() == repeated.canonical_fingerprint()
        )


class TestDehydration:
    def test_round_trip_preserves_fingerprint_and_output(self):
        _, words = shuffled_corpus(("a b?", "c"), 20, random.Random(5))
        learner = learner_for(words)
        revived = IncrementalSire.hydrate(learner.dehydrate())
        assert (
            revived.canonical_fingerprint() == learner.canonical_fingerprint()
        )
        assert revived.infer() == learner.infer()

    def test_hydrate_rejects_non_mapping_crx(self):
        with pytest.raises(CorpusError):
            IncrementalSire.hydrate({"crx": 3, "before": []})

    def test_hydrate_rejects_unknown_precedence_symbols(self):
        payload = learner_for([("a", "b")]).dehydrate()
        payload["before"] = [["a", "ghost"]]
        with pytest.raises(CorpusError):
            IncrementalSire.hydrate(payload)

"""The k-ORE learner: marking, clamping, inference, merge, dehydration."""

from __future__ import annotations

import random

import pytest

from repro.core.idtd import idtd
from repro.datagen.occurrences import repeated_symbol_corpus
from repro.errors import CorpusError
from repro.learning.tinf import tinf
from repro.learning.kore import (
    K_CAP,
    IncrementalKore,
    _clamp_soa,
    mark_word,
)
from repro.regex.classify import is_deterministic
from repro.regex.language import language_equivalent, matches
from repro.regex.printer import to_paper_syntax


def learner_for(words):
    learner = IncrementalKore()
    learner.add_all(words)
    return learner


class TestMarking:
    def test_positional_marks(self):
        assert mark_word(("a", "b", "a")) == ["a#1", "b#1", "a#2"]

    def test_marks_clamp_at_k(self):
        assert mark_word(("a",) * 5, k=2) == [
            "a#1",
            "a#2",
            "a#2",
            "a#2",
            "a#2",
        ]

    def test_clamp_soa_is_a_homomorphic_image(self):
        learner = learner_for([("a", "a", "a")])
        clamped = _clamp_soa(learner.soa.soa, 2)
        assert clamped.symbols == {"a#1", "a#2"}
        assert ("a#2", "a#2") in clamped.edges

    def test_unmarked_is_the_plain_2tinf_soa(self):
        words = [("a", "b", "a"), ("b",), (), ("a", "a", "a", "a", "a", "c")]
        assert learner_for(words).unmarked().soa == tinf(words)


class TestInference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_recovers_repeated_symbol_targets(self, k):
        target, words = repeated_symbol_corpus(
            ("a", "b", "c"), 30, random.Random(7), k=k
        )
        inferred = learner_for(words).infer()
        assert is_deterministic(inferred)
        assert language_equivalent(inferred, target), to_paper_syntax(inferred)
        # The plain SORE learner merges the repeated anchor into a star
        # soup — the separation the kore method exists for.
        assert not language_equivalent(idtd(words), target)

    def test_degenerates_to_the_sore_for_single_occurrence_data(self):
        words = [("a", "b"), ("a",), ("b",)]
        assert learner_for(words).infer() == idtd(words)

    def test_soundness_every_witness_accepted(self):
        _, words = repeated_symbol_corpus(
            ("a", "b"), 25, random.Random(3), k=3
        )
        inferred = learner_for(words).infer()
        assert all(matches(inferred, word) for word in words)

    def test_duplication_beyond_cap_still_sound(self):
        words = [("a",) * (K_CAP + 3), ("a",)]
        inferred = learner_for(words).infer()
        assert is_deterministic(inferred)
        assert all(matches(inferred, word) for word in words)

    def test_empty_state_raises(self):
        with pytest.raises(CorpusError):
            IncrementalKore().infer()


class TestMergeMonoid:
    def test_merge_equals_batch(self):
        _, words = repeated_symbol_corpus(
            ("a", "b", "c"), 24, random.Random(11), k=3
        )
        whole = learner_for(words)
        left = learner_for(words[:9])
        right = learner_for(words[9:])
        left.merge(right)
        assert left.canonical_fingerprint() == whole.canonical_fingerprint()
        assert left.infer() == whole.infer()

    def test_merge_tracks_max_duplication(self):
        left = learner_for([("a",)])
        right = learner_for([("a", "a", "a")])
        left.merge(right)
        assert left.max_dup == 3

    def test_fingerprint_distinguishes_duplication(self):
        assert (
            learner_for([("a", "a")]).canonical_fingerprint()
            != learner_for([("a",), ("a",)]).canonical_fingerprint()
        )


class TestDehydration:
    def test_round_trip_preserves_fingerprint_and_output(self):
        _, words = repeated_symbol_corpus(
            ("a", "b"), 20, random.Random(5), k=2
        )
        learner = learner_for(words)
        revived = IncrementalKore.hydrate(learner.dehydrate())
        assert (
            revived.canonical_fingerprint() == learner.canonical_fingerprint()
        )
        assert revived.infer() == learner.infer()

    def test_hydrate_rejects_non_mapping_soa(self):
        with pytest.raises(CorpusError):
            IncrementalKore.hydrate({"soa": [], "max_dup": 1})

    def test_hydrate_rejects_non_integer_max_dup(self):
        payload = IncrementalKore().dehydrate()
        payload["max_dup"] = "two"
        with pytest.raises(CorpusError):
            IncrementalKore.hydrate(payload)

    def test_hydrate_tolerates_missing_max_dup(self):
        # _payload_int treats an absent key as 0, which clamps to the
        # neutral duplication of 1 — a conservative, never-worse state.
        payload = learner_for([("a",)]).dehydrate()
        del payload["max_dup"]
        assert IncrementalKore.hydrate(payload).max_dup == 1

    def test_hydrate_clamps_degenerate_max_dup(self):
        payload = learner_for([("a",)]).dehydrate()
        payload["max_dup"] = 0
        assert IncrementalKore.hydrate(payload).max_dup == 1

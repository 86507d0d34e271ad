"""Tests for the debug-mode invariant contracts (:mod:`repro.contracts`).

Two halves: the *positive* direction (the live pipeline satisfies every
contract with checks enabled — a tier-1 slice runs under
``contracts_active()``), and the *mutation* direction (corrupted
structures are rejected, proving the checks actually look at what they
claim to look at).
"""

from __future__ import annotations

import pytest

from repro.api import InferenceConfig, infer
from repro.automata.gfa import GFA, SINK, SOURCE
from repro.automata.soa import SOA
from repro.contracts import (
    ContractViolation,
    check_carried_closure,
    check_content_model,
    check_emitted_chare,
    check_emitted_sore,
    check_gfa,
    check_merge_commutative,
    check_soa,
    contracts_active,
    contracts_enabled,
    set_contracts,
)
from repro.core.crx import crx
from repro.core.idtd import _contract_scc, idtd
from repro.regex.ast import Opt, Plus, Star, Sym, concat, disj
from repro.regex.parser import parse_regex
from repro.learning.evidence import StreamingEvidence
from repro.xmlio.parser import parse_document

DOCS = [
    "<r><a/><a/><b/></r>",
    "<r><a/><c/></r>",
    "<r><b/></r>",
]


def streaming_evidence(texts):
    evidence = StreamingEvidence()
    for text in texts:
        evidence.add_document(parse_document(text))
    return evidence


@pytest.fixture(autouse=True)
def _known_toggle_state():
    """Start each test from the disabled state and restore afterwards,
    so the suite behaves identically under ``REPRO_CHECKS=1`` (where
    the module-level default is *enabled*)."""
    previous = contracts_enabled()
    set_contracts(False)
    yield
    set_contracts(previous)


class TestToggles:
    def test_default_follows_environment(self, monkeypatch):
        from repro.contracts import _env_enabled

        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        assert not _env_enabled()
        monkeypatch.setenv("REPRO_CHECKS", "0")
        assert not _env_enabled()
        monkeypatch.setenv("REPRO_CHECKS", "1")
        assert _env_enabled()

    def test_set_contracts_round_trip(self):
        set_contracts(True)
        try:
            assert contracts_enabled()
        finally:
            set_contracts(False)
        assert not contracts_enabled()

    def test_contracts_active_restores(self):
        with contracts_active():
            assert contracts_enabled()
        assert not contracts_enabled()

    def test_contracts_active_restores_on_error(self):
        with pytest.raises(RuntimeError):  # noqa: SIM117
            with contracts_active():
                raise RuntimeError("boom")
        assert not contracts_enabled()


class TestPipelineSatisfiesContracts:
    """A tier-1 slice of real inference runs clean with checks on."""

    def test_batch_inference(self):
        with contracts_active():
            result = infer(DOCS)
        assert "r" in result.dtd.elements

    def test_streaming_inference(self):
        with contracts_active():
            result = infer(DOCS, config=InferenceConfig(streaming=True))
        assert "r" in result.dtd.elements

    def test_both_learners(self):
        words = [("a", "b"), ("b", "a"), ("a",)]
        with contracts_active():
            idtd(words)
            crx(words)

    def test_merge_passes_on_real_evidence(self):
        left = streaming_evidence(DOCS[:2])
        right = streaming_evidence(DOCS[2:])
        check_merge_commutative(left, right)


class TestSoaMutations:
    def test_well_formed_soa_passes(self):
        soa = SOA(
            symbols={"a", "b"},
            initial={"a"},
            final={"b"},
            edges={("a", "b")},
        )
        check_soa(soa)

    def test_ghost_edge_symbol_rejected(self):
        soa = SOA(
            symbols={"a", "b"},
            initial={"a"},
            final={"b"},
            edges={("a", "b")},
        )
        soa.edges.add(("b", "ghost"))
        with pytest.raises(ContractViolation, match="soa-well-formed"):
            check_soa(soa)

    def test_ghost_initial_symbol_rejected(self):
        soa = SOA(symbols={"a"}, initial={"a"}, final={"a"}, edges=set())
        soa.initial.add("ghost")
        with pytest.raises(ContractViolation, match="soa-well-formed"):
            check_soa(soa)


class TestGfaMutations:
    @staticmethod
    def make_gfa():
        gfa = GFA()
        node = gfa.add_node(Sym("a"))
        gfa.add_edge(SOURCE, node)
        gfa.add_edge(node, SINK)
        return gfa, node

    def test_well_formed_gfa_passes(self):
        gfa, _ = self.make_gfa()
        check_gfa(gfa)

    def test_broken_adjacency_mirror_rejected(self):
        gfa, node = self.make_gfa()
        gfa._out[node].add(node)  # bypass add_edge: _in not updated
        with pytest.raises(ContractViolation, match="gfa-adjacency"):
            check_gfa(gfa)

    def test_edge_into_source_rejected(self):
        gfa, node = self.make_gfa()
        gfa._out[node].add(SOURCE)
        gfa._in[SOURCE].add(node)
        with pytest.raises(ContractViolation, match="gfa-endpoints"):
            check_gfa(gfa)

    def test_duplicate_symbol_rejected(self):
        gfa, node = self.make_gfa()
        other = gfa.add_node(Sym("a"))
        gfa.add_edge(SOURCE, other)
        gfa.add_edge(other, SINK)
        with pytest.raises(ContractViolation, match="single-occurrence"):
            check_gfa(gfa)

    def test_star_label_rejected_mid_rewrite(self):
        gfa, node = self.make_gfa()
        gfa.relabel(node, Star(Sym("a")))
        with pytest.raises(ContractViolation, match="star-free"):
            check_gfa(gfa)

    @pytest.mark.parametrize("label", ["(a+)+", "(a?)?", "(a?)+", "b (a+)+"])
    def test_label_outside_normal_form_rejected(self, label):
        gfa, node = self.make_gfa()
        gfa.relabel(node, parse_regex(label))
        with pytest.raises(ContractViolation, match="gfa-normal-form"):
            check_gfa(gfa)

    def test_scc_contraction_of_a_plus_label_stays_normal(self):
        """A lone ``a+`` with a self-loop contracts to ``a+``, not ``(a+)+``."""
        gfa, node = self.make_gfa()
        gfa.relabel(node, Plus(Sym("a")))
        gfa.add_edge(node, node)
        check_gfa(gfa)
        assert _contract_scc(gfa)
        assert list(gfa.labels.values()) == [Plus(Sym("a"))]
        check_gfa(gfa)

    def test_scc_contraction_with_a_plus_member_passes(self):
        gfa = GFA()
        first, second = gfa.add_node(Plus(Sym("a"))), gfa.add_node(Sym("b"))
        for tail, head in [(SOURCE, first), (first, second), (second, first), (second, SINK)]:
            gfa.add_edge(tail, head)
        assert _contract_scc(gfa)
        assert list(gfa.labels.values()) == [parse_regex("(a+ + b)+")]
        check_gfa(gfa)

    def test_stale_carried_closure_rejected(self):
        gfa, node = self.make_gfa()
        closure = gfa.closure()
        check_carried_closure(gfa, closure, context="rewrite.optional")
        gfa.relabel(node, Opt(Sym("a")))  # now nullable: source reaches sink
        with pytest.raises(ContractViolation, match="optional.closure-carried"):
            check_carried_closure(gfa, closure, context="rewrite.optional")


class TestEmittedExpressionMutations:
    def test_sore_in_normal_form_passes(self):
        check_emitted_sore(parse_regex("(a+ b)?"))

    def test_non_sore_rejected(self):
        duplicated = concat(Sym("a"), Sym("b"), Sym("a"))
        with pytest.raises(ContractViolation, match="emitted-sore"):
            check_emitted_sore(duplicated)

    def test_non_normal_form_rejected(self):
        with pytest.raises(ContractViolation, match="normal-form"):
            check_emitted_sore(Opt(Opt(Sym("a"))))

    def test_chare_passes(self):
        check_emitted_chare(concat(Plus(disj(Sym("a"), Sym("b"))), Sym("c")))

    def test_non_chare_rejected(self):
        nested = Plus(concat(Sym("a"), Sym("b")))
        with pytest.raises(ContractViolation, match="emitted-chare"):
            check_emitted_chare(nested)

    def test_nondeterministic_content_model_rejected(self):
        ambiguous = disj(concat(Sym("a"), Sym("b")), Sym("a"))
        with pytest.raises(ContractViolation, match="deterministic"):
            check_content_model(ambiguous, "r")

    def test_deterministic_content_model_passes(self):
        check_content_model(parse_regex("(a + b)+ c?"), "r")


class TestMergeMutations:
    def test_corrupted_merge_rejected(self, monkeypatch):
        left = streaming_evidence(DOCS[:2])
        right = streaming_evidence(DOCS[2:])

        original = StreamingEvidence.merge

        def biased_merge(self, other):
            bigger_first = self.document_count > other.document_count
            original(self, other)
            # Corrupt the fold asymmetrically (only when the left
            # operand was the bigger shard), so the two merge orders
            # genuinely disagree.
            if bigger_first:
                for element in self.elements.values():
                    if element.child_sequences.counts:
                        element.child_sequences.counts.popitem()
                        break

        monkeypatch.setattr(StreamingEvidence, "merge", biased_merge)
        with pytest.raises(ContractViolation, match="commutativity"):
            check_merge_commutative(left, right)

    def test_inputs_left_untouched(self):
        left = streaming_evidence(DOCS[:2])
        right = streaming_evidence(DOCS[2:])
        before = (left.document_count, right.document_count)
        check_merge_commutative(left, right)
        assert (left.document_count, right.document_count) == before


class TestWiring:
    """The pipeline call sites really consult the toggle."""

    def test_rewrite_checks_fire_on_corrupt_emission(self, monkeypatch):
        import importlib

        # repro.core re-exports a `rewrite` *function*, shadowing the
        # submodule attribute; go through importlib for the module.
        rewrite_module = importlib.import_module("repro.core.rewrite")

        # Force the final normalization to emit a non-normal-form
        # expression; with contracts on the wired check must trip.
        monkeypatch.setattr(
            rewrite_module,
            "contract_stars",
            lambda regex: Opt(Opt(Sym("a"))),
        )
        with contracts_active(), pytest.raises(ContractViolation):
            idtd([("a",), ("a", "a")])

    def test_same_corruption_passes_silently_when_disabled(self, monkeypatch):
        import importlib

        rewrite_module = importlib.import_module("repro.core.rewrite")
        monkeypatch.setattr(
            rewrite_module,
            "contract_stars",
            lambda regex: Opt(Opt(Sym("a"))),
        )
        assert not contracts_enabled()
        idtd([("a",), ("a", "a")])

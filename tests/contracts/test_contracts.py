"""Tests for the debug-mode invariant contracts (:mod:`repro.contracts`).

Two halves: the *positive* direction (the live pipeline satisfies every
contract with checks enabled — a tier-1 slice runs under
``contracts_active()``), and the *mutation* direction (corrupted
structures are rejected, proving the checks actually look at what they
claim to look at).
"""

from __future__ import annotations

import pytest

from repro.api import InferenceConfig, infer, validate
from repro.automata.gfa import GFA, SINK, SOURCE, node_bit
from repro.automata.soa import SOA
from repro.contracts import (
    ContractViolation,
    check_carried_closure,
    check_content_model,
    check_emitted_chare,
    check_emitted_sore,
    check_gfa,
    check_merge_commutative,
    check_scanned_fold,
    check_soa,
    contracts_active,
    contracts_enabled,
    set_contracts,
)
from repro.core.crx import crx
from repro.core.idtd import _contract_scc, idtd
from repro.regex.ast import Opt, Plus, Star, Sym, concat, disj
from repro.regex.language import Matcher
from repro.regex.parser import parse_regex
from repro.learning.evidence import StreamingEvidence
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import parse_document, read_document, scan_document
from repro.xmlio.tree import ElementRecords
from repro.xmlio.validate import CompiledDtd

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
            result = infer(DOCS, config=InferenceConfig(jobs=2))
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
        gfa._out[node] |= node_bit(node)  # bypass add_edge: _in not updated
        with pytest.raises(ContractViolation, match="gfa-adjacency") as caught:
            check_gfa(gfa)
        assert f"edges [({node}, {node})]" in str(caught.value)
        gfa, node = self.make_gfa()
        gfa._in[SINK] |= node_bit(SOURCE)  # bypass add_edge: _out not updated
        with pytest.raises(ContractViolation, match="gfa-adjacency") as caught:
            check_gfa(gfa)
        assert f"edges [({SOURCE}, {SINK})]" in str(caught.value)

    def test_edge_into_source_rejected(self):
        gfa, node = self.make_gfa()
        gfa._out[node] |= node_bit(SOURCE)
        gfa._in[SOURCE] |= node_bit(node)
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

    def test_closure_not_carried_across_a_repair_rejected(self):
        gfa, node = self.make_gfa()
        closure = gfa.closure()
        gfa.add_edge(node, node)  # a repair's self-loop, closure left as it was
        with pytest.raises(
            ContractViolation, match=r"enable_disjunction_b\.closure-carried"
        ):
            check_carried_closure(
                gfa, closure, context="repair.enable_disjunction_b"
            )


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


class TestValidationMutations:
    DTD = "<!ELEMENT r (a, b?)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
    DOCUMENT = "<r><a/><b/></r>"

    def corrupted(self):
        """A compiled DTD whose transition on ``b`` leads to the dead state."""
        compiled = CompiledDtd(parse_dtd(self.DTD))
        document = parse_document(self.DOCUMENT)
        assert compiled.violations(document) == []
        table = compiled._rules["r"].matcher._table
        (key,) = [key for key in table if key[1] == "b"]
        table[key] = frozenset()
        return compiled, document

    def test_corrupted_transition_rejected(self):
        compiled, document = self.corrupted()
        with contracts_active(), pytest.raises(ContractViolation, match="compiled-verdict"):
            compiled.violations(document)

    def test_same_corruption_passes_silently_when_disabled(self):
        compiled, document = self.corrupted()
        assert not contracts_enabled()
        assert [v.kind for v in compiled.violations(document)] == ["bad-content"]

    @pytest.mark.parametrize("form", ["path", "literal", "document"])
    def test_wrong_verdicts_rejected_on_every_input_form(self, form, monkeypatch, tmp_path):
        # Paths and literals are checked from their scan records, a
        # Document from the records it is walked into: the contract
        # must see the verdicts of all three.
        accepts = Matcher.accepts
        monkeypatch.setattr(Matcher, "accepts", lambda self, word: not accepts(self, word))
        source = {"literal": self.DOCUMENT, "document": parse_document(self.DOCUMENT)}
        path = tmp_path / "doc.xml"
        path.write_text(self.DOCUMENT, encoding="utf-8")
        source["path"] = str(path)
        assert [v.kind for v in validate(source[form], self.DTD).documents[0].violations] == [
            "bad-content"
        ]
        with contracts_active(), pytest.raises(ContractViolation, match="compiled-verdict"):
            validate(source[form], self.DTD)

    def test_live_validation_satisfies_the_contract(self):
        dtd = parse_dtd(self.DTD + "<!ELEMENT s (a & b?)>")
        compiled = CompiledDtd(dtd)
        with contracts_active():
            for text in ("<r><a/><b/></r>", "<r><b/></r>", "<r/>", "<s><b/><a/></s>"):
                compiled.violations(parse_document(text))


class TestScannedFoldMutations:
    TEXT = '<r k="v"><a>one</a><a/><b>two<![CDATA[ three]]></b></r>'

    @staticmethod
    def without_text(records: ElementRecords) -> ElementRecords:
        """The same records with every text chunk dropped."""
        return ElementRecords(
            [(name, attributes, kids, [], parent)
             for name, attributes, kids, _, parent in records.records],
            records.doctype_name,
            records.internal_subset,
        )

    @pytest.mark.parametrize("bounded", [False, True])
    def test_scanned_records_pass(self, bounded, tmp_path):
        check_scanned_fold(scan_document(self.TEXT), self.TEXT, bounded)
        path = tmp_path / "doc.xml"
        path.write_text(self.TEXT, encoding="utf-8")
        check_scanned_fold(scan_document(self.TEXT), str(path), bounded)

    def test_records_of_another_document_rejected(self):
        with pytest.raises(ContractViolation, match="scanned-fold"):
            check_scanned_fold(scan_document("<r><a/></r>"), self.TEXT, False)

    def test_lost_text_rejected(self):
        records = self.without_text(scan_document(self.TEXT))
        with pytest.raises(ContractViolation, match="scanned-fold"):
            check_scanned_fold(records, self.TEXT, True)

    def test_live_runner_checks_scanned_documents(self, monkeypatch):
        import importlib

        resilience = importlib.import_module("repro.runtime.resilience")
        monkeypatch.setattr(
            resilience,
            "read_document",
            lambda item, index, recorder: self.without_text(
                read_document(item, index, recorder)
            ),
        )
        with contracts_active(), pytest.raises(ContractViolation, match="scanned-fold"):
            infer([self.TEXT])
        assert not contracts_enabled()
        assert "#PCDATA" not in infer([self.TEXT]).dtd.render()


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

    def test_idtd_checks_the_closure_it_carries_across_a_repair(self, monkeypatch):
        import importlib

        idtd_module = importlib.import_module("repro.core.idtd")
        # ab and ba: one repair adds a self-loop on each symbol.
        words = [("a", "b"), ("b", "a")]
        monkeypatch.setattr(
            idtd_module, "_carried_closure", lambda gfa, closure, repair: closure
        )
        with contracts_active(), pytest.raises(
            ContractViolation, match=r"repair\.enable_disjunction_b\.closure-carried"
        ):
            idtd(words)

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

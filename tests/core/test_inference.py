"""The end-to-end DTD inferencer."""

import random

import pytest

from repro.api import InferenceConfig, infer
from repro.core.inference import DTDInferencer
from repro.datagen.xmlgen import XmlGenerator
from repro.learning.evidence import extract_evidence
from repro.obs.recorder import StatsRecorder
from repro.regex.normalize import syntactically_equal
from repro.regex.parser import parse_regex
from repro.xmlio.dtd import Children, Empty, Mixed, parse_dtd
from repro.xmlio.parser import parse_document
from repro.xmlio.validate import validate


def docs(*texts: str):
    return [parse_document(text) for text in texts]


def learn(documents, **options):
    return infer(documents, InferenceConfig(**options)).dtd


class TestContentModels:
    def test_element_content(self):
        dtd = learn(
            docs("<r><a/><b/></r>", "<r><a/></r>", "<r><a/><b/><b/></r>")
        )
        model = dtd.elements["r"]
        assert isinstance(model, Children)
        assert syntactically_equal(model.regex, parse_regex("a b*"))

    def test_empty_elements(self):
        dtd = learn(docs("<r><a/></r>"))
        assert isinstance(dtd.elements["a"], Empty)

    def test_text_only_elements(self):
        dtd = learn(docs("<r><a>hello</a></r>"))
        assert dtd.elements["a"] == Mixed(names=())

    def test_mixed_content(self):
        dtd = learn(docs("<r>text <a/> more <b/> text</r>"))
        model = dtd.elements["r"]
        assert isinstance(model, Mixed)
        assert set(model.names) == {"a", "b"}

    def test_sometimes_empty_children_become_optional(self):
        dtd = learn(docs("<r><a/></r>", "<r></r>"))
        model = dtd.elements["r"]
        assert isinstance(model, Children)
        assert model.regex.nullable()

    def test_root_detection(self):
        dtd = learn(docs("<r><a/></r>", "<r><a/></r>"))
        assert dtd.start == "r"


class TestMethods:
    def test_auto_uses_crx_on_sparse_data(self):
        config = InferenceConfig(method="auto", sparse_threshold=50)
        result = infer(docs("<r><a/><b/></r>"), config)
        assert result.report.method_used["r"] == "crx"

    def test_auto_uses_idtd_on_abundant_data(self):
        config = InferenceConfig(method="auto", sparse_threshold=2)
        result = infer(
            docs("<r><a/></r>", "<r><a/><a/></r>", "<r><a/></r>"), config
        )
        assert result.report.method_used["r"] == "idtd"

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            DTDInferencer(method="bogus")  # type: ignore[arg-type]

    def test_numeric_mode(self):
        dtd = learn(
            docs("<r><a/><a/></r>", "<r><a/><a/></r>"), method="idtd", numeric=True
        )
        model = dtd.elements["r"]
        assert isinstance(model, Children)
        assert "{2" in model.render()


class TestSupportFilter:
    """Section 9's noise handling: ``support_threshold`` drops element
    names mentioned in too few parent sequences."""

    def test_threshold_one_keeps_every_child(self):
        documents = docs("<r><a/><b/></r>", "<r><a/></r>", "<r><b/><a/></r>")
        assert (
            learn(documents, support_threshold=1).render()
            == learn(documents).render()
        )

    def test_support_counts_parent_sequences_not_occurrences(self):
        # b occurs in two parent sequences here, so it has support 2 ...
        kept = learn(docs("<r><a><b/></a><a><b/></a></r>"), support_threshold=2)
        assert "b" in kept.elements
        # ... and here in one, however often it repeats there.
        dropped = learn(
            docs("<r><a><b/><b/><b/></a></r>", "<r><a/></r>"), support_threshold=2
        )
        assert "b" not in dropped.elements
        assert isinstance(dropped.elements["a"], Empty)

    def test_dropped_name_is_cut_from_every_word(self):
        documents = docs(*["<r><a/><b/></r>"] * 10, "<r><a/><z/><b/></r>")
        dtd = learn(documents, method="idtd", support_threshold=2)
        assert "z" not in dtd.elements
        model = dtd.elements["r"]
        assert isinstance(model, Children)
        assert syntactically_equal(model.regex, parse_regex("a b"))

    def test_every_child_below_threshold_leaves_start_empty(self):
        dtd = learn(docs("<r><a/></r>"), support_threshold=10)
        assert dtd.start == "r"
        assert set(dtd.elements) == {"r"}
        assert isinstance(dtd.elements["r"], Empty)

    def test_finalize_leaves_evidence_untouched(self):
        evidence = extract_evidence(
            docs(*["<r><a/><b/></r>"] * 10, "<r><a/><z/><b/></r>")
        )
        unfiltered = DTDInferencer().finalize(evidence).render()
        filtered = DTDInferencer(support_threshold=2).finalize(evidence)
        assert "z" not in filtered.elements
        assert DTDInferencer().finalize(evidence).render() == unfiltered
        assert "z" in unfiltered

    def test_dropped_names_are_counted(self):
        recorder = StatsRecorder()
        documents = docs(*["<r><a/></r>"] * 5, "<r><y/><z/></r>")
        learn(documents, support_threshold=2, recorder=recorder)
        assert recorder.counters["filter.dropped_names"] == 2


class TestAttributes:
    def test_required_vs_implied(self):
        dtd = learn(
            docs('<r><a id="1" x="y"/><a id="2"/></r>')
        )
        attributes = {a.name: a for a in dtd.attributes["a"]}
        assert attributes["id"].default == "#REQUIRED"
        assert attributes["x"].default == "#IMPLIED"
        assert attributes["id"].attribute_type == "NMTOKEN"

    def test_attribute_inference_can_be_disabled(self):
        dtd = learn(docs('<r><a id="1"/></r>'), infer_attributes=False)
        assert not dtd.attributes


class TestRoundTrip:
    """Generate from a DTD, re-infer, and revalidate — the full loop."""

    def test_generated_corpus_revalidates(self):
        source = parse_dtd(
            """
            <!ELEMENT library (book+, staff?)>
            <!ELEMENT book (title, author+, note?)>
            <!ELEMENT staff (person*)>
            <!ELEMENT person (#PCDATA)>
            <!ELEMENT title (#PCDATA)>
            <!ELEMENT author (#PCDATA)>
            <!ELEMENT note (#PCDATA)>
            """
        )
        generator = XmlGenerator(source, random.Random(11))
        corpus = generator.corpus(40)
        learned = learn(corpus, method="idtd")
        for document in corpus:
            assert not validate(document, learned)

    def test_learned_model_matches_source_shape(self):
        source = parse_dtd(
            "<!ELEMENT r (a, b?, c+)>"
            "<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        )
        corpus = XmlGenerator(source, random.Random(2)).corpus(60)
        learned = learn(corpus, method="idtd")
        model = learned.elements["r"]
        assert isinstance(model, Children)
        assert syntactically_equal(model.regex, parse_regex("a b? c+"))

"""Integration: the full corpus → DTD → validation → XSD loop."""

import random

from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.regex.normalize import syntactically_equal
from repro.regex.parser import parse_regex
from repro.xmlio.dtd import Children, parse_dtd
from repro.xmlio.parser import parse_document
from repro.xmlio.validate import validate
from repro.xmlio.xsd import dtd_to_xsd

SOURCE_DTD = parse_dtd(
    """
    <!ELEMENT catalog (product+, vendor*)>
    <!ELEMENT product (name, price, (tag | note)?, review*)>
    <!ELEMENT vendor (name, country?)>
    <!ELEMENT review (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
    <!ELEMENT tag (#PCDATA)>
    <!ELEMENT note (#PCDATA)>
    <!ELEMENT country (#PCDATA)>
    <!ATTLIST product id NMTOKEN #REQUIRED>
    """
)


def generated_corpus(count=80, seed=7):
    generator = XmlGenerator(
        SOURCE_DTD,
        random.Random(seed),
        text_makers={"price": lambda r: f"{r.randint(1, 999)}.{r.randint(0,99):02d}"},
    )
    return generator.corpus(count)


class TestFullLoop:
    def test_xml_roundtrip_through_serializer(self):
        corpus = generated_corpus(10)
        for document in corpus:
            reparsed = parse_document(serialize(document))
            assert reparsed.root.child_names() == document.root.child_names()

    def test_learned_dtd_validates_corpus(self):
        corpus = generated_corpus()
        learned = infer(corpus, InferenceConfig(method="idtd")).dtd
        for document in corpus:
            assert not validate(document, learned)

    def test_learned_content_models_match_source(self):
        corpus = generated_corpus(200, seed=13)
        learned = infer(corpus, InferenceConfig(method="idtd")).dtd
        product = learned.elements["product"]
        assert isinstance(product, Children)
        assert syntactically_equal(
            product.regex, parse_regex("name price (tag + note)? review*")
        )

    def test_price_datatype_sniffed(self):
        corpus = generated_corpus(60, seed=3)
        result = infer(corpus)
        assert result.report.text_types["price"] == "xs:decimal"

    def test_xsd_generation_from_learned_dtd(self):
        corpus = generated_corpus(40, seed=5)
        result = infer(corpus)
        xsd = dtd_to_xsd(result.dtd, text_types=result.report.text_types)
        assert xsd.startswith("<?xml")
        assert '<xs:element name="catalog">' in xsd
        assert 'type="xs:decimal"' in xsd

    def test_schema_cleaning_detects_overly_loose_model(self):
        """The paper's motivating scenario: the data is stricter than
        the published DTD, and inference reveals it."""
        corpus = generated_corpus(100, seed=21)
        learned = infer(corpus, InferenceConfig(method="idtd")).dtd
        from repro.automata.compare import (
            regex_included_in_soa,
        )
        from repro.regex.language import language_included

        source_model = SOURCE_DTD.content_regex("product")
        learned_model = learned.content_regex("product")
        # learned ⊆ source: everything we admit, the old schema admits
        assert language_included(learned_model, source_model)

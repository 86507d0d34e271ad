"""XML 1.0 conformance: the bulk tokenizer against the letter of the spec.

Four historical bugs of the character-at-a-time tokenizer, now fixed
in :mod:`repro.xmlio.scan`, each get a section:

* §2.11 end-of-line handling (CRLF / lone CR → LF);
* §2.2 character references must name ``Char`` code points;
* §2.3 the ``S`` production is space/tab/CR/LF only — not
  ``str.isspace``;
* §2.8 the DOCTYPE internal subset ends at its *matching* ``]``, not
  the first one.

Plus a differential fuzz harness cross-checking :func:`parse_document`
against the stdlib expat parser (``xml.etree``) on generated
well-formed corpora: tree shape, attributes and character data must
agree document-for-document.  The stdlib parser appears here *only*
as a test oracle; the library itself stays dependency-free.
"""

import random
import xml.etree.ElementTree as ET

import pytest

from repro.xmlio.parser import XmlSyntaxError, parse_document
from repro.xmlio.scan import normalize_newlines


class TestLineEndingNormalization:
    """XML 1.0 §2.11: \\r\\n and lone \\r become \\n before parsing."""

    def test_crlf_and_cr_in_text(self):
        document = parse_document("<r>a\r\nb\rc\nd</r>")
        assert document.root.text() == "a\nb\nc\nd"

    def test_crlf_in_attribute_value(self):
        """§2.11 folds CRLF/CR to LF, then §3.3.3 folds the LF (and any
        literal tab) to a space — same two-stage pipeline as expat."""
        document = parse_document('<r a="x\r\ny\rz"/>')
        assert document.root.attributes["a"] == "x y z"
        document = parse_document('<r a="x\ty"/>')
        assert document.root.attributes["a"] == "x y"

    def test_attribute_character_references_keep_whitespace(self):
        """§3.3.3 exempts character references: &#10;/&#9; are the
        spec-blessed way to keep a newline or tab in a value."""
        document = parse_document('<r a="x&#10;y&#9;z"/>')
        assert document.root.attributes["a"] == "x\ny\tz"

    def test_crlf_in_cdata(self):
        document = parse_document("<r><![CDATA[a\r\nb\rc]]></r>")
        assert document.root.text() == "a\nb\nc"

    def test_crlf_vs_lf_checkouts_agree(self):
        """The motivating bug: one corpus, two checkouts, one tree."""
        lf = "<r>\n  <item>line1\nline2</item>\n</r>"
        crlf = lf.replace("\n", "\r\n")
        lf_doc, crlf_doc = parse_document(lf), parse_document(crlf)
        assert lf_doc.root.text_chunks == crlf_doc.root.text_chunks
        assert (
            lf_doc.root.children[0].text_chunks
            == crlf_doc.root.children[0].text_chunks
        )

    def test_character_reference_cr_survives(self):
        """&#13; expands *after* normalization — the one spec-blessed
        way to put a literal carriage return in content."""
        document = parse_document("<r>&#13;&#xD;</r>")
        assert document.root.text() == "\r\r"

    def test_crlf_line_counting_in_errors(self):
        with pytest.raises(XmlSyntaxError) as info:
            parse_document("<r>\r\n  <a></b>\r\n</r>")
        assert info.value.line == 2

    def test_normalize_newlines_is_zero_copy_for_lf(self):
        text = "<r>already clean</r>"
        assert normalize_newlines(text) is text


class TestCharacterReferenceValidity:
    """XML 1.0 §2.2: references must name Char code points."""

    @pytest.mark.parametrize(
        "reference",
        [
            "&#0;",        # NUL
            "&#8;",        # backspace, below #x20
            "&#x1F;",      # unit separator
            "&#xD800;",    # high surrogate
            "&#xDFFF;",    # low surrogate
            "&#xFFFE;",    # non-character
            "&#xFFFF;",    # non-character
            "&#x110000;",  # beyond Unicode
            "&#99999999999;",  # far beyond Unicode
        ],
    )
    def test_non_char_references_rejected(self, reference):
        with pytest.raises(XmlSyntaxError, match="character reference"):
            parse_document(f"<r>{reference}</r>")

    @pytest.mark.parametrize("reference", ["&#0;", "&#xD800;"])
    def test_non_char_references_rejected_in_attributes(self, reference):
        with pytest.raises(XmlSyntaxError, match="character reference"):
            parse_document(f'<r a="{reference}"/>')

    def test_boundary_chars_accepted(self):
        document = parse_document(
            "<r>&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10FFFF;</r>"
        )
        assert document.root.text() == (
            "\t\n\r ퟿�\U0010ffff"
        )

    def test_malformed_digits_still_rejected(self):
        with pytest.raises(XmlSyntaxError, match="character reference"):
            parse_document("<r>&#xZZ;</r>")


class TestXmlWhitespaceOnly:
    """XML 1.0 §2.3: S ::= (#x20 | #x9 | #xD | #xA)+ — nothing else."""

    @pytest.mark.parametrize("space", [" ", " ", " ", "\x0b", "\x0c"])
    def test_unicode_whitespace_rejected_between_attributes(self, space):
        with pytest.raises(XmlSyntaxError):
            parse_document(f'<a{space}b="1"/>')

    @pytest.mark.parametrize("space", [" ", " "])
    def test_unicode_whitespace_rejected_around_equals(self, space):
        with pytest.raises(XmlSyntaxError):
            parse_document(f'<a b{space}="1"/>')
        with pytest.raises(XmlSyntaxError):
            parse_document(f'<a b={space}"1"/>')

    def test_xml_whitespace_accepted_everywhere(self):
        document = parse_document("<a \t\n b = '1' \t />")
        assert document.root.attributes == {"b": "1"}

    def test_unicode_whitespace_fine_inside_text_and_values(self):
        document = parse_document("<r a='x y'> </r>")
        assert document.root.attributes["a"] == "x y"
        assert document.root.text() == " "


class TestInternalSubsetScanning:
    """XML 1.0 §2.8: the subset ends at its matching ``]``."""

    def test_bracket_inside_attlist_literal(self):
        document = parse_document(
            '<!DOCTYPE a [<!ATTLIST a b CDATA "x]y">]><a/>'
        )
        assert document.internal_subset == '<!ATTLIST a b CDATA "x]y">'

    def test_bracket_inside_single_quoted_literal(self):
        document = parse_document(
            "<!DOCTYPE a [<!ENTITY e 'v]al'>]><a/>"
        )
        assert document.internal_subset == "<!ENTITY e 'v]al'>"

    def test_bracket_inside_comment(self):
        document = parse_document(
            "<!DOCTYPE a [<!-- see [7] in the spec --><!ELEMENT a EMPTY>]><a/>"
        )
        assert "<!ELEMENT a EMPTY>" in document.internal_subset
        assert "[7]" in document.internal_subset

    def test_bracket_inside_processing_instruction(self):
        document = parse_document(
            "<!DOCTYPE a [<?pi data ] more?><!ELEMENT a EMPTY>]><a/>"
        )
        assert "<!ELEMENT a EMPTY>" in document.internal_subset

    def test_remainder_not_reparsed_as_garbage(self):
        """The old failure mode: everything after the first ``]`` leaked
        back into the document and broke the parse entirely."""
        document = parse_document(
            '<!DOCTYPE r [<!ATTLIST r k CDATA "a]b"><!ELEMENT r (#PCDATA)>]>'
            "<r>ok</r>"
        )
        assert document.root.text() == "ok"
        assert document.internal_subset.endswith("<!ELEMENT r (#PCDATA)>")

    def test_unterminated_subset_still_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unterminated internal subset"):
            parse_document("<!DOCTYPE a [<!ELEMENT a EMPTY> <a/>")

    def test_unterminated_literal_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unterminated"):
            parse_document('<!DOCTYPE a [<!ENTITY e "unclosed]><a/>')


# -- differential fuzzing against expat ---------------------------------------


def _shape(element):
    """(name, attrs, direct text, child shapes) from our Element."""
    return (
        element.name,
        dict(element.attributes),
        element.text(),
        tuple(_shape(child) for child in element.children),
    )


def _et_shape(element):
    """The same shape from an ``xml.etree`` element.

    Direct character data in ElementTree is the element's ``text``
    plus every child's ``tail`` — concatenated, matching how
    ``Element.text()`` joins ``text_chunks``.
    """
    text = element.text or ""
    for child in element:
        text += child.tail or ""
    return (
        element.tag,
        dict(element.attrib),
        text,
        tuple(_et_shape(child) for child in element),
    )


# No prefixed names here: we treat ``x:y`` as an opaque name (DTDs
# predate namespaces) while the expat oracle rejects unbound prefixes.
_NAMES = ["a", "b", "item", "list_", "n-1", "_meta"]
_TEXTS = [
    "plain",
    "two &amp; three",
    "&lt;tag&gt;",
    "line1\nline2",
    "line1\r\nline2\rline3",
    "  spaced  ",
    "num&#x41;ref&#66;",
    "quote &quot;q&quot; and &apos;a&apos;",
    "",
]
_ATTR_VALUES = [
    "v",
    "a &amp; b",
    "x\r\ny",
    "12.50",
    "&#x2603;",
]


def _generate(rng, depth=0):
    """One random well-formed element as markup text."""
    name = rng.choice(_NAMES)
    parts = [f"<{name}"]
    for index in range(rng.randint(0, 3)):
        quote = rng.choice(["'", '"'])
        value = rng.choice(_ATTR_VALUES).replace(quote, "")
        parts.append(f" at{index}={quote}{value}{quote}")
    if depth >= 3 or rng.random() < 0.3:
        parts.append("/>")
        return "".join(parts)
    parts.append(">")
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(rng.choice(_TEXTS))
        elif roll < 0.55:
            parts.append("<!-- comment ] with & tricks -->")
        elif roll < 0.65:
            parts.append("<![CDATA[raw <markup> & data]]>")
        else:
            parts.append(_generate(rng, depth + 1))
    parts.append(f"</{name}>")
    return "".join(parts)


class TestDifferentialFuzz:
    """Our parser and expat must see the same tree, text and attributes."""

    def test_generated_corpus_agrees_with_expat(self):
        rng = random.Random(20060912)  # VLDB 2006 conference date
        for index in range(200):
            markup = _generate(rng)
            ours = parse_document(markup)
            theirs = ET.fromstring(markup)
            assert _shape(ours.root) == _et_shape(theirs), (
                f"document {index} diverged from expat:\n{markup}"
            )

    def test_datagen_corpus_agrees_with_expat(self):
        """The project's own generator, serialize() and all."""
        from repro.datagen.xmlgen import XmlGenerator, serialize
        from repro.xmlio.dtd import parse_dtd

        dtd = parse_dtd(
            "<!ELEMENT r (meta?, item+)>"
            "<!ELEMENT meta (#PCDATA)>"
            "<!ELEMENT item (name, price?, tag*)>"
            "<!ELEMENT name (#PCDATA)>"
            "<!ELEMENT price (#PCDATA)>"
            "<!ELEMENT tag EMPTY>"
        )
        generator = XmlGenerator(dtd, random.Random(7))
        for document in generator.corpus(50):
            markup = serialize(document)
            ours = parse_document(markup)
            theirs = ET.fromstring(markup)
            assert _shape(ours.root) == _et_shape(theirs)

    def test_crlf_corpus_agrees_with_expat(self):
        """Expat performs §2.11 normalization; now so do we."""
        rng = random.Random(42)
        for _ in range(50):
            markup = _generate(rng).replace("\n", "\r\n")
            ours = parse_document(markup)
            theirs = ET.fromstring(markup)
            assert _shape(ours.root) == _et_shape(theirs)

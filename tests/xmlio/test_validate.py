"""DTD validation."""

from repro import api
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import parse_document
from repro.xmlio.tree import Document, Element
from repro.xmlio.validate import is_valid, validate

DTD = parse_dtd(
    """
    <!ELEMENT library (book+)>
    <!ELEMENT book (title, author*)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT stamp EMPTY>
    <!ATTLIST book id NMTOKEN #REQUIRED>
    """
)


def doc(text: str):
    return parse_document(text)


class TestValid:
    def test_conforming_document(self):
        document = doc(
            '<library><book id="b1"><title>T</title>'
            "<author>A</author><author>B</author></book></library>"
        )
        assert is_valid(document, DTD)


class TestViolations:
    def test_bad_child_order(self):
        document = doc(
            '<library><book id="b"><author>A</author><title>T</title></book>'
            "</library>"
        )
        kinds = [v.kind for v in validate(document, DTD)]
        assert "bad-content" in kinds

    def test_missing_required_child(self):
        document = doc('<library><book id="b"/></library>')
        assert any(
            v.kind == "bad-content" and v.element == "book"
            for v in validate(document, DTD)
        )

    def test_undeclared_element(self):
        document = doc('<library><magazine/></library>')
        kinds = {v.kind for v in validate(document, DTD)}
        assert "undeclared-element" in kinds

    def test_empty_element_with_content(self):
        document = doc(
            '<library><book id="b"><title>T</title></book></library>'
        )
        extended = doc("<stamp>oops</stamp>")
        violations = validate(extended, DTD)
        assert any(v.kind == "bad-content" for v in violations)

    def test_unexpected_text_in_element_content(self):
        document = doc(
            '<library>stray<book id="b"><title>T</title></book></library>'
        )
        assert any(v.kind == "unexpected-text" for v in validate(document, DTD))

    def test_missing_required_attribute(self):
        document = doc(
            "<library><book><title>T</title></book></library>"
        )
        assert any(
            v.kind == "missing-attribute" for v in validate(document, DTD)
        )

    def test_wrong_root(self):
        document = doc("<book><title>T</title></book>")
        violations = validate(document, DTD)
        assert violations[0].kind == "bad-root"

    def test_all_violations_reported_not_just_first(self):
        document = doc(
            "<library><magazine/><magazine/></library>"
        )
        undeclared = [
            v for v in validate(document, DTD) if v.kind == "undeclared-element"
        ]
        assert len(undeclared) == 2

    def test_violation_paths(self):
        document = doc('<library><book id="b"/></library>')
        violation = [
            v for v in validate(document, DTD) if v.element == "book"
        ][0]
        assert violation.path == "/library/book[0]"


class TestDeepTrees:
    def test_deep_document_validates_without_recursion(self):
        # Parsed documents are capped at 256 levels, but api.validate
        # also takes Documents built in code; the walk is iterative.
        depth = 5_000
        root = node = Element("a")
        for _ in range(depth - 2):
            node = node.append(Element("a"))
        node.append(Element("b"))
        dtd = parse_dtd("<!ELEMENT a (a?)>")
        result = api.validate(Document(root), dtd)
        (verdict,) = result.documents
        assert [v.kind for v in verdict.violations] == [
            "bad-content",
            "undeclared-element",
        ]
        deepest = verdict.violations[-1]
        assert deepest.element == "b"
        assert deepest.path == "/a" + "/a[0]" * (depth - 2) + "/b[0]"
        assert deepest.path.count("/") == depth

"""The record scan against the recursive parser and tree fold it replaced.

``reference_parse`` is :func:`~repro.xmlio.parser.parse_document` as it
stood before the scan loop: recursive descent over
``_parse_element``/``_parse_content``, one Python frame per nesting
level, building :class:`Element` objects as it goes.  It reuses the
tokenizer of :mod:`repro.xmlio.scan`, which did not change.
``reference_fold`` is ``StreamingEvidence.add_document`` as it stood
then: a pre-order walk that observes each element of the tree.

On hypothesis documents — nested same-name elements, text, CDATA,
comments, processing instructions, predefined and unknown entities,
character references, attributes in both quotes, self-closing tags,
non-ASCII names, a DOCTYPE and a byte-order mark — and on mutations and
depth bombs of them:

* the trees are equal;
* folding scanned records gives the same ``dehydrate()`` bytes as the
  reference fold of the reference tree, with whole bags, bounded bags,
  and a ``WORD_CAP`` low enough to spill;
* malformed inputs raise the same :class:`XmlSyntaxError` message at
  the same position;
* in skip mode a malformed document is quarantined with that message
  and leaves nothing in the evidence.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ckpt.codec import encode_state
from repro.learning import evidence as evidence_module
from repro.learning.evidence import SAMPLE_CAP, StreamingEvidence
from repro.runtime.parallel import parallel_evidence
from repro.runtime.resilience import DegradationReport
from repro.xmlio.parser import (
    MAX_ELEMENT_DEPTH,
    is_xml_text,
    parse_document,
    scan_document,
)
from repro.xmlio.scan import (
    Scanner,
    XmlSyntaxError,
    decode_entities,
    normalize_newlines,
    scan_end_tag,
    scan_internal_subset,
    scan_start_tag,
)
from repro.xmlio.tree import Document, Element

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the oracle: the recursive-descent parser --------------------------------


def _parse_doctype(scanner: Scanner) -> tuple[str, str | None]:
    scanner.expect("<!DOCTYPE")
    scanner.skip_whitespace()
    name = scanner.read_name()
    subset: str | None = None
    while True:
        scanner.skip_whitespace()
        if scanner.eof():
            raise scanner.error("unterminated DOCTYPE")
        char = scanner.peek()
        if char == ">":
            scanner.pos += 1
            return name, subset
        if char == "[":
            scanner.pos += 1
            subset = scan_internal_subset(scanner)
        elif char in ("'", '"'):
            scanner.pos += 1
            scanner.read_until(char, "unterminated system/public literal")
        else:
            scanner.read_name()


def _skip_misc(scanner: Scanner) -> None:
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<!--"):
            scanner.pos += 4
            scanner.read_until("-->", "unterminated comment")
        elif scanner.startswith("<?"):
            scanner.pos += 2
            scanner.read_until("?>", "unterminated processing instruction")
        else:
            return


def _parse_element(scanner: Scanner, depth: int = 0) -> Element:
    if depth >= MAX_ELEMENT_DEPTH:
        raise scanner.error(
            f"element nesting deeper than {MAX_ELEMENT_DEPTH} levels"
        )
    name, attributes, self_closed = scan_start_tag(scanner)
    element = Element(name=name, attributes=attributes)
    if self_closed:
        return element
    _parse_content(scanner, element, depth)
    return element


def _parse_content(scanner: Scanner, element: Element, depth: int = 0) -> None:
    text = scanner.text
    length = scanner.length
    chunks = element.text_chunks
    children_append = element.children.append
    child_depth = depth + 1
    while True:
        pos = scanner.pos
        if pos >= length:
            raise scanner.error(f"unterminated element <{element.name}>")
        if text[pos] != "<":
            next_tag = text.find("<", pos)
            if next_tag < 0:
                raise scanner.error(f"unterminated element <{element.name}>")
            raw = text[pos:next_tag]
            scanner.pos = next_tag
            if "&" in raw:
                raw = decode_entities(raw, scanner)
            if raw:
                chunks.append(raw)
            continue
        marker = text[pos + 1] if pos + 1 < length else ""
        if marker == "/":
            scan_end_tag(scanner, element.name)
            return
        if marker == "!":
            if text.startswith("<!--", pos):
                scanner.pos = pos + 4
                scanner.read_until("-->", "unterminated comment")
            elif text.startswith("<![CDATA[", pos):
                scanner.pos = pos + 9
                chunks.append(
                    scanner.read_until("]]>", "unterminated CDATA section")
                )
            else:
                children_append(_parse_element(scanner, child_depth))
            continue
        if marker == "?":
            scanner.pos = pos + 2
            scanner.read_until("?>", "unterminated processing instruction")
            continue
        if child_depth >= MAX_ELEMENT_DEPTH:
            raise scanner.error(
                f"element nesting deeper than {MAX_ELEMENT_DEPTH} levels"
            )
        name, attributes, self_closed = scan_start_tag(scanner)
        child = Element(name=name, attributes=attributes)
        children_append(child)
        if not self_closed:
            _parse_content(scanner, child, child_depth)


def reference_parse(text: str) -> Document:
    scanner = Scanner(normalize_newlines(text))
    if scanner.startswith("\ufeff"):
        scanner.pos += 1
    _skip_misc(scanner)
    doctype_name: str | None = None
    internal_subset: str | None = None
    if scanner.startswith("<!DOCTYPE"):
        doctype_name, internal_subset = _parse_doctype(scanner)
        _skip_misc(scanner)
    if not scanner.startswith("<"):
        raise scanner.error("expected the root element")
    root = _parse_element(scanner)
    _skip_misc(scanner)
    if not scanner.eof():
        raise scanner.error("content after the root element")
    return Document(
        root=root, doctype_name=doctype_name, internal_subset=internal_subset
    )


# -- the oracle: the tree fold --------------------------------------------------


def reference_fold(evidence: StreamingEvidence, document: Document) -> None:
    evidence.document_count += 1
    evidence.root_counts[document.root.name] += 1
    cap = evidence_module.WORD_CAP if evidence.bounded else None
    for element in document.iter():
        target = evidence.evidence_for(element.name)
        word = element.child_names()
        if word:
            target.nonempty_count += 1
        else:
            target.empty_count += 1
        target.child_sequences.add(word)
        if element.has_text():
            target.has_text = True
            stripped = element.text().strip()
            if stripped and len(target.text_values) < SAMPLE_CAP:
                target.text_values.append(stripped)
        for attribute, value in element.attributes.items():
            target.attribute_presence[attribute] = (
                target.attribute_presence.get(attribute, 0) + 1
            )
            samples = target.attribute_values.setdefault(attribute, [])
            if len(samples) < SAMPLE_CAP:
                samples.append(value)
        if cap is not None and len(target.child_sequences.counts) > cap:
            target.spill()


# -- generated documents --------------------------------------------------------

NAMES = ("a", "b", "a.b", "x_1", "é")
ATTRIBUTES = ("id", "k", "x:y")
VALUES = ("", "v", "a&amp;b", "&#9;x", "l\nm", "q'q", 'd"d', "&lt;&#x41;")
TEXTS = (
    "t", " ", "\n", "x y", "&amp;", "&lt;&gt;", "&#65;", "&#x42;", "&unknown;",
    "a&quot;b", "\r\n", "\u00a0", "]]", "7",
)
SPACE = st.sampled_from(("", " ", "\n", "\t "))


@st.composite
def attributes(draw) -> str:
    chosen = draw(
        st.lists(st.sampled_from(ATTRIBUTES), max_size=2, unique=True)
    )
    out = []
    for name in chosen:
        value = draw(st.sampled_from(VALUES))
        quote = "'" if '"' in value else '"'
        out.append(f"{draw(st.sampled_from((' ', chr(10))))}{name}{draw(SPACE)}="
                   f"{draw(SPACE)}{quote}{value}{quote}")
    return "".join(out)


def content_item(depth: int) -> st.SearchStrategy[str]:
    leaves = st.one_of(
        st.sampled_from(TEXTS),
        st.sampled_from(("<![CDATA[c<d>&amp;]]>", "<![CDATA[]]>")),
        st.sampled_from(("<!-- c -->", "<!---->")),
        st.sampled_from(("<?pi x?>", "<?pi?>")),
    )
    if depth >= 4:
        return leaves
    return st.one_of(leaves, element(depth + 1))


@st.composite
def element(draw, depth: int = 0) -> str:
    name = draw(st.sampled_from(NAMES))
    start = f"<{name}{draw(attributes())}{draw(SPACE)}"
    if draw(st.integers(0, 3)) == 0:
        return start + "/>"
    items = draw(st.lists(content_item(depth), max_size=4))
    return f"{start}>{''.join(items)}</{name}{draw(SPACE)}>"


@st.composite
def documents(draw) -> str:
    misc = st.sampled_from(("", " ", "\n", "<!-- m -->", "<?pi m?>"))
    prolog = draw(st.sampled_from(("", "\ufeff")))
    prolog += draw(st.sampled_from(("", '<?xml version="1.0"?>')))
    prolog += draw(misc)
    prolog += draw(
        st.sampled_from(
            (
                "",
                '<!DOCTYPE a SYSTEM "a.dtd">',
                '<!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a id CDATA "x]y">]>',
            )
        )
    )
    return prolog + draw(misc) + draw(element()) + draw(misc)


#: Characters a mutation inserts or substitutes: markup and name characters.
MUTANTS = "<>&/!?[]\"'=; a-é\u00a0#x"


@st.composite
def mutated(draw) -> str:
    text = draw(documents())
    index = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(("truncate", "delete", "insert", "replace")))
    if kind == "truncate":
        return text[:index]
    char = draw(st.sampled_from(MUTANTS))
    if kind == "delete":
        return text[:index] + text[index + 1 :]
    if kind == "insert":
        return text[:index] + char + text[index:]
    return text[:index] + char + text[index + 1 :]


@st.composite
def depth_bombs(draw) -> str:
    depth = draw(st.integers(MAX_ELEMENT_DEPTH - 2, MAX_ELEMENT_DEPTH + 2))
    names = draw(st.lists(st.sampled_from(("a", "b")), min_size=depth, max_size=depth))
    bottom = draw(st.sampled_from(("", "t", "<a/>", "<!-- c -->", "<b>t</b>")))
    opened = "".join(f"<{name}>" for name in names)
    closed = "".join(f"</{name}>" for name in reversed(names))
    if draw(st.booleans()):
        closed = closed[: draw(st.integers(0, len(closed)))]
    return opened + bottom + closed


def outcome(parse, text: str) -> tuple[object, ...]:
    try:
        return ("ok", parse(text))
    except XmlSyntaxError as exc:
        return ("error", str(exc), exc.position)


# -- the properties ---------------------------------------------------------------


@SETTINGS
@given(documents())
def test_trees_equal(text):
    assert parse_document(text) == reference_parse(text)


@SETTINGS
@given(st.one_of(mutated(), depth_bombs()))
def test_malformed_inputs_fail_alike(text):
    assert outcome(parse_document, text) == outcome(reference_parse, text)


@SETTINGS
@given(st.lists(documents(), min_size=1, max_size=5), st.sampled_from((None, 4096, 1)))
def test_scan_fold_equals_tree_fold(texts, cap):
    bags = (False,) if cap is None else (True,)
    with mock.patch.object(evidence_module, "WORD_CAP", cap or 4096):
        for bounded in bags:
            scanned = StreamingEvidence(bounded=bounded)
            tree = StreamingEvidence(bounded=bounded)
            rewalked = StreamingEvidence(bounded=bounded)
            for text in texts:
                scanned.add_records(scan_document(text))
                reference_fold(tree, reference_parse(text))
                rewalked.add_document(parse_document(text))
            assert encode_state(scanned) == encode_state(tree)
            assert encode_state(rewalked) == encode_state(tree)


@SETTINGS
@given(documents(), mutated().filter(is_xml_text), documents())
def test_skip_mode_leaves_nothing_of_a_malformed_document(first, bad, last):
    expected = outcome(reference_parse, bad)
    report = DegradationReport(max_quarantine=None)
    skipped = parallel_evidence([first, bad, last], 1, report=report, bounded=False)
    clean = parallel_evidence([first, last], 1, bounded=False)
    if expected[0] == "ok":
        assert not report.quarantined
        return
    (quarantined,) = report.quarantined
    assert (quarantined.cause, quarantined.position) == expected[1:]
    assert encode_state(skipped) == encode_state(clean)

"""Bulk-scanning tokenizer primitives for the XML parser.

The original tokenizer stepped through the document one character at a
time — a Python-level loop iteration (often several) per input byte.
This module replaces that with *run-based* scanning so the per-byte
work happens inside CPython's C primitives instead:

* ``str.find`` jumps over text runs, comments, CDATA sections and
  processing instructions in one call each;
* a precompiled regex dispatch table recognises whole start tags
  (name + each attribute + the ``>``/``/>`` close), end tags, names
  and whitespace runs in a handful of C-level matches;
* entity decoding runs only on chunks that actually contain ``&``
  (one ``in`` scan), so plain text is kept as a zero-copy slice;
* the fast paths cover the ASCII grammar that real corpora are made
  of; anything exotic (Unicode names, malformed markup) falls back to
  the original character-level routines, which also own every error
  message — fast and slow paths therefore fail at identical positions
  with identical causes.

Conformance notes (XML 1.0, fixed here after living as bugs in the
character-level tokenizer):

* §2.11: ``\\r\\n`` and lone ``\\r`` are normalized to ``\\n`` before
  parsing (:func:`normalize_newlines`), so CRLF and LF checkouts of
  the same corpus yield identical text chunks.  Character references
  (``&#13;``) are expanded *after* normalization and can still insert
  a literal carriage return, exactly as the spec intends.
* §2.2: character references must name XML ``Char`` code points; NUL,
  surrogates and other non-Chars raise :class:`XmlSyntaxError` instead
  of injecting invalid characters into the tree (:func:`charref`).
* §2.3: the ``S`` production is exactly space/tab/CR/LF.  The old
  ``str.isspace`` accepted any Unicode whitespace (U+00A0, U+2028, …),
  silently blessing non-well-formed documents.
* §2.8: the DOCTYPE internal subset is scanned declaration by
  declaration (:func:`scan_internal_subset`), so a ``]`` inside a
  comment or quoted literal no longer truncates the subset.
* §3.3.3: attribute values get CDATA normalization — literal
  whitespace becomes a space, character references keep theirs
  (:func:`normalize_attribute_value`) — matching what expat does for
  undeclared attributes.
"""

from __future__ import annotations

import copyreg
import re

from ..errors import CorpusError

#: XML 1.0 §2.3 ``S`` production — the *only* whitespace the grammar
#: accepts between tokens.  Deliberately not ``str.isspace()``.
XML_WHITESPACE = " \t\r\n"

_PREDEFINED = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}

# -- the regex dispatch table -------------------------------------------------
#
# Every pattern is anchored with ``match`` at the current position and
# deliberately ASCII-only for names: the Unicode name characters the
# slow path accepts (via str.isalpha/isalnum) cannot be replicated
# exactly by a regex class, so non-ASCII names simply miss the fast
# path and take the character-level route instead.

#: A whitespace run (XML ``S+``).
_WS_RUN = re.compile(r"[ \t\r\n]+")

#: An ASCII name: the common case of ``Name`` in real corpora.
_NAME_ASCII = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")

#: One attribute: optional leading whitespace (the slow path tolerates
#: zero), name, ``=`` with optional surrounding whitespace, and a
#: quoted value.  Values exclude ``<`` so an unterminated quote cannot
#: drag the match across tag boundaries (the slow path then reports
#: the precise error).
_ATTRIBUTE = re.compile(
    r"[ \t\r\n]*([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*="
    r"[ \t\r\n]*(?:\"([^<\"]*)\"|'([^<']*)')"
)

#: The end of a start tag: optional whitespace then ``>`` or ``/>``.
#: Only consulted when the cheap single-character checks in
#: :func:`scan_start_tag` (bare ``>`` / ``/>`` right after the last
#: token) missed, i.e. when there is whitespace before the close.
_TAG_CLOSE = re.compile(r"[ \t\r\n]*(/?)>")

#: The parser's fast lane, anchored after the previous token: a text
#: run free of ``&`` (possibly empty), then the next tag if it opens
#: with an ASCII name.  Groups: 1 the text run; 2 an end tag's name and
#: 3 its ``>`` right after the name; 4 a start tag's name, then 5 its
#: ``/>`` or 6 its ``>`` right after the name, and 7 — a leaf — the
#: reference-free text between that ``>`` and the matching ``</name>``.
#: A tag whose 3 or 5/6 did not match has more after its name
#: (attributes, whitespace, a non-ASCII name character) and is left to
#: :func:`scan_start_tag` / :func:`scan_end_tag`.
PLAIN_TAG = re.compile(
    r"""([^<&]*)<(?:
        /([A-Za-z_:][A-Za-z0-9_:.\-]*)(>)?
        |([A-Za-z_:][A-Za-z0-9_:.\-]*)(?:(/>)|(>)(?:([^<&]*)</\4>)?)?
    )""",
    re.VERBOSE,
)

#: A complete end tag ``</name >`` with an ASCII name.
_END_TAG = re.compile(r"</([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*>")

#: Internal-subset top level: the next ``]`` (end of subset) or ``<``
#: (start of a declaration, comment or PI).
_SUBSET_DELIM = re.compile(r"[\]<]")

#: Inside a markup declaration: the closing ``>`` or a quote opening a
#: literal that may hide ``]`` or ``>``.
_DECL_DELIM = re.compile(r"[>'\"]")


class XmlSyntaxError(CorpusError):
    """Raised on malformed XML, with line/column information."""

    def __init__(self, message: str, text: str, position: int) -> None:
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column

    def in_document(self, label: str) -> None:
        """Name the document the error is in: ``label: message``."""
        self.args = (f"{label}: {self.args[0]}",)

    def __reduce__(self) -> tuple[object, ...]:
        # Unpickle without re-running __init__ (out of a pool worker).
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def is_name_start(char: str) -> bool:
    return char.isalpha() or char in "_:"


def is_name_char(char: str) -> bool:
    return char.isalnum() or char in "_:.-"


def normalize_attribute_value(value: str) -> str:
    """XML 1.0 §3.3.3 attribute-value normalization (CDATA type).

    Literal whitespace characters in an attribute value become spaces;
    character references (``&#9;``, ``&#10;``) are exempt, which is
    why this runs *before* entity decoding.  Undeclared attributes are
    CDATA — the same default expat applies.  ``\\r`` is handled for
    scanners fed raw text directly; :func:`normalize_newlines` has
    already folded it away on the :func:`parse_document` path.
    """
    if "\n" in value or "\t" in value:
        value = value.replace("\n", " ").replace("\t", " ")
    if "\r" in value:
        value = value.replace("\r", " ")
    return value


def normalize_newlines(text: str) -> str:
    """XML 1.0 §2.11 end-of-line handling.

    ``\\r\\n`` and lone ``\\r`` become ``\\n`` before any other
    processing, so line endings never leak into text chunks, attribute
    values or datatype evidence.  The guard makes the (overwhelmingly
    common) LF-only case a single C-level ``memchr`` scan with no copy.
    """
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Scanner:
    """Position-tracking cursor over the document text.

    The grammar driver (:mod:`repro.xmlio.parser`) owns *what* to
    parse; the scanner owns *how far* each token reaches, using the
    bulk primitives above wherever the input allows.
    """

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError(message, self.text, self.pos)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self, count: int = 1) -> str:
        return self.text[self.pos : self.pos + count]

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        """Skip an XML ``S`` run (space/tab/CR/LF — §2.3, nothing more)."""
        match = _WS_RUN.match(self.text, self.pos)
        if match is not None:
            self.pos = match.end()

    def read_name(self) -> str:
        match = _NAME_ASCII.match(self.text, self.pos)
        if match is None:
            return self._read_name_slow()
        end = match.end()
        if end < self.length and is_name_char(self.text[end]):
            # The name continues with a non-ASCII name character the
            # regex class cannot express; re-read it character-level.
            return self._read_name_slow()
        self.pos = end
        return match.group()

    def _read_name_slow(self) -> str:
        text = self.text
        start = self.pos
        if self.eof() or not is_name_start(text[start]):
            raise self.error("expected a name")
        pos = start + 1
        while pos < self.length and is_name_char(text[pos]):
            pos += 1
        self.pos = pos
        return text[start:pos]

    def read_until(self, token: str, error: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(error)
        value = self.text[self.pos : end]
        self.pos = end + len(token)
        return value


def decode_entities(raw: str, scanner: Scanner) -> str:
    """Expand references in ``raw``; zero-copy when there are none."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    index = 0
    length = len(raw)
    while index < length:
        amp = raw.find("&", index)
        if amp < 0:
            out.append(raw[index:])
            break
        if amp > index:
            out.append(raw[index:amp])
        end = raw.find(";", amp)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        entity = raw[amp + 1 : end]
        if entity.startswith(("#x", "#X")):
            out.append(charref(entity[2:], 16, scanner))
        elif entity.startswith("#"):
            out.append(charref(entity[1:], 10, scanner))
        elif entity in _PREDEFINED:
            out.append(_PREDEFINED[entity])
        else:
            # Unknown general entity: keep it verbatim.  Real corpora
            # (the paper's XHTML crawl!) are full of undeclared
            # entities; losing the document over one would be worse
            # than keeping the reference as text.
            out.append(f"&{entity};")
        index = end + 1
    return "".join(out)


def _is_xml_char(code_point: int) -> bool:
    """XML 1.0 §2.2 ``Char``: tab/LF/CR, BMP minus surrogates and the
    two non-characters, and the supplementary planes."""
    return (
        0x20 <= code_point <= 0xD7FF
        or code_point in (0x9, 0xA, 0xD)
        or 0xE000 <= code_point <= 0xFFFD
        or 0x10000 <= code_point <= 0x10FFFF
    )


def charref(digits: str, base: int, scanner: Scanner) -> str:
    try:
        code_point = int(digits, base)
    except ValueError as exc:
        raise scanner.error(f"invalid character reference &#{digits};") from exc
    if not _is_xml_char(code_point):
        # NUL, surrogates, #xFFFE/#xFFFF, out-of-range: not a Char
        # (§2.2), so the reference is a well-formedness error — it must
        # not inject an invalid character into the tree.
        raise scanner.error(f"invalid character reference &#{digits};")
    return chr(code_point)


# -- tag-level scanning -------------------------------------------------------


def scan_start_tag(scanner: Scanner) -> tuple[str, dict[str, str], bool]:
    """Consume ``<name a='v' …>`` or ``… />`` at the current position.

    Returns ``(name, attributes, self_closed)``.  The whole tag is
    recognised by anchored regex matches — one for the name, one per
    attribute, one for the close — and *nothing is committed* until
    the close matches; any miss (Unicode names, unquoted values,
    duplicate attributes, stray characters) re-parses the tag from
    ``<`` with the character-level path so errors keep their exact
    historical positions and messages.
    """
    text = scanner.text
    start = scanner.pos  # text[start] == "<"
    match = _NAME_ASCII.match(text, start + 1)
    if match is None:
        # Unicode name start, or malformed markup: the character-level
        # path accepts the former and raises the historical error for
        # the latter.
        return _slow_start_tag(scanner, start)
    pos = match.end()
    # The two dominant shapes close immediately after the name; both
    # are settled with single-character comparisons, no further regex.
    char = text[pos : pos + 1]
    if char == ">":
        scanner.pos = pos + 1
        return match.group(), {}, False
    if char == "/" and text.startswith(">", pos + 1):
        scanner.pos = pos + 2
        return match.group(), {}, True
    if char > "\x7f" and is_name_char(char):
        # The name continues with a non-ASCII name character the regex
        # class cannot express; re-read the whole tag character-level.
        return _slow_start_tag(scanner, start)
    name = match.group()
    attributes: dict[str, str] = {}
    while True:
        attr = _ATTRIBUTE.match(text, pos)
        if attr is None:
            break
        attr_name = attr.group(1)
        if attr_name in attributes:
            return _slow_start_tag(scanner, start)
        value = attr.group(2)
        if value is None:
            value = attr.group(3)
        pos = attr.end()
        value = normalize_attribute_value(value)
        if "&" in value:
            scanner.pos = pos  # error position: just past the value
            value = decode_entities(value, scanner)
        attributes[attr_name] = value
        char = text[pos : pos + 1]
        if char == ">":
            scanner.pos = pos + 1
            return name, attributes, False
        if char == "/" and text.startswith(">", pos + 1):
            scanner.pos = pos + 2
            return name, attributes, True
    close = _TAG_CLOSE.match(text, pos)
    if close is None:
        return _slow_start_tag(scanner, start)
    scanner.pos = close.end()
    return name, attributes, close.group(1) == "/"


def _slow_start_tag(
    scanner: Scanner, start: int
) -> tuple[str, dict[str, str], bool]:
    scanner.pos = start
    scanner.expect("<")
    name = scanner.read_name()
    attributes = _parse_attributes(scanner)
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.pos += 2
        return name, attributes, True
    scanner.expect(">")
    return name, attributes, False


def _parse_attributes(scanner: Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        if scanner.eof() or scanner.peek() in (">", "/", "?"):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.pos += 1
        value = scanner.read_until(quote, "unterminated attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = decode_entities(
            normalize_attribute_value(value), scanner
        )


def scan_end_tag(scanner: Scanner, expected: str) -> None:
    """Consume ``</expected >`` at the current position (``</`` ahead).

    A mismatched or exotic end tag re-reads character-level so the
    "mismatched end tag" error carries the historical position (just
    past the closing name, before any whitespace or ``>``).
    """
    text = scanner.text
    name_start = scanner.pos + 2
    name_end = name_start + len(expected)
    # Dominant shape: ``</expected>`` verbatim — two C-level substring
    # checks settle it (the second also proves the closing name does
    # not continue past ``expected``).
    if text.startswith(expected, name_start) and text.startswith(
        ">", name_end
    ):
        scanner.pos = name_end + 1
        return
    match = _END_TAG.match(text, scanner.pos)
    if match is not None and match.group(1) == expected:
        scanner.pos = match.end()
        return
    scanner.pos += 2
    closing = scanner.read_name()
    if closing != expected:
        raise scanner.error(
            f"mismatched end tag </{closing}> for <{expected}>"
        )
    scanner.skip_whitespace()
    scanner.expect(">")


def scan_internal_subset(scanner: Scanner) -> str:
    """Read the DOCTYPE internal subset up to its *matching* ``]``.

    The scanner sits just past the opening ``[``; on return it sits
    just past the closing ``]`` and the subset text between the two is
    returned verbatim.  Unlike a bare ``find("]")``, this walks the
    subset's actual structure — comments, processing instructions and
    markup declarations (whose quoted literals may contain ``]``) —
    so ``<!ATTLIST a b CDATA "x]y">`` no longer truncates the subset
    and leaves garbage to be reparsed as document content.
    """
    text = scanner.text
    start = scanner.pos
    pos = start
    while True:
        delim = _SUBSET_DELIM.search(text, pos)
        if delim is None:
            scanner.pos = start
            raise scanner.error("unterminated internal subset")
        pos = delim.start()
        if text[pos] == "]":
            scanner.pos = pos + 1
            return text[start:pos]
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end < 0:
                scanner.pos = pos + 4
                raise scanner.error("unterminated comment")
            pos = end + 3
        elif text.startswith("<?", pos):
            end = text.find("?>", pos + 2)
            if end < 0:
                scanner.pos = pos + 2
                raise scanner.error("unterminated processing instruction")
            pos = end + 2
        else:
            pos = _scan_markup_declaration(scanner, pos)


def _scan_markup_declaration(scanner: Scanner, pos: int) -> int:
    """Skip one ``<…>`` declaration inside the internal subset,
    honouring quoted literals; returns the position past its ``>``."""
    text = scanner.text
    opened = pos
    pos += 1
    while True:
        delim = _DECL_DELIM.search(text, pos)
        if delim is None:
            scanner.pos = opened
            raise scanner.error(
                "unterminated markup declaration in internal subset"
            )
        pos = delim.start()
        char = text[pos]
        if char == ">":
            return pos + 1
        end = text.find(char, pos + 1)
        if end < 0:
            scanner.pos = pos
            raise scanner.error("unterminated literal in internal subset")
        pos = end + 1


__all__ = [
    "PLAIN_TAG",
    "Scanner",
    "XML_WHITESPACE",
    "XmlSyntaxError",
    "charref",
    "decode_entities",
    "is_name_char",
    "is_name_start",
    "normalize_attribute_value",
    "normalize_newlines",
    "scan_end_tag",
    "scan_internal_subset",
    "scan_start_tag",
]

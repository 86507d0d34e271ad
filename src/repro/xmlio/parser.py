"""A from-scratch, dependency-free XML parser.

Covers the slice of XML 1.0 that matters for schema inference from
real-world corpora:

* XML declaration, processing instructions, comments;
* ``<!DOCTYPE name [ internal subset ]>`` — the subset is captured
  verbatim so :mod:`repro.xmlio.dtd` can parse declared content models;
* elements with attributes (single or double quoted);
* character data, CDATA sections;
* the five predefined entities plus decimal/hex character references;
* XML 1.0 §2.11 end-of-line normalization (CRLF / lone CR → LF).

It is intentionally strict about well-formedness (mismatched tags,
unterminated constructs, stray ``<``, non-``Char`` character
references, non-XML whitespace between tokens) because schema
inference from a broken tree would silently learn garbage;
noisy-but-well-formed input is the job of the support threshold
(``InferenceConfig.support_threshold``).

This module owns the *grammar*: one iterative scan loop that keeps the
open elements on an explicit stack and writes each element, as its
start tag is read, into :class:`~repro.xmlio.tree.ElementRecords`
(:func:`scan_document`, :func:`scan_file`); DOCTYPE handling; and the
corpus reader.  :func:`read_document` is the one function that turns a
corpus item — a parsed document, XML text or a file path — into
records, for inference and validation alike, and every failure it
raises is a :class:`~repro.errors.CorpusError` named by
:func:`document_label`.  :func:`parse_document` and :func:`parse_file`
link the records into an :class:`~repro.xmlio.tree.Element` tree;
evidence extraction and validation walk the records without building
one.  The *tokenizer* — bulk ``str.find``
runs, the precompiled regex dispatch table, entity decoding, newline
normalization — lives in :mod:`repro.xmlio.scan`.
"""

from __future__ import annotations

import mmap
import os
import re
from collections.abc import Callable
from typing import TypeGuard, TypeVar

from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from .scan import (
    PLAIN_TAG,
    Scanner as _Scanner,
    XmlSyntaxError,
    decode_entities as _decode_entities,
    normalize_newlines,
    scan_end_tag,
    scan_internal_subset,
    scan_start_tag,
)
from .tree import Document, ElementRecord, ElementRecords

#: Maximum element nesting the parser accepts — a policy limit, not a
#: recursion guard: the scan loop keeps open elements on a list, so
#: depth costs no Python frames.  It bounds what an adversarial "depth
#: bomb" (<a><a><a>…) can make every later tree walk handle, and turns
#: one into an ordinary, precisely located :class:`XmlSyntaxError`.
#: No sane schema nests this deep.
MAX_ELEMENT_DEPTH = 256

#: Files at least this large are decoded straight from an ``mmap`` of
#: the file instead of a ``read()`` — one UTF-8 decode from the mapped
#: pages into the parse string, with no intermediate bytes copy.
#: Small files stay on the plain-read path: mapping costs two extra
#: syscalls, which only pay for themselves once the copy it avoids is
#: substantially bigger than a page.
MMAP_MIN_BYTES = 1 << 20

#: Markup: optional leading whitespace or byte-order marks, then ``<``.
_XML_TEXT = re.compile(r"[\s\ufeff]*<")

_Loaded = TypeVar("_Loaded", Document, ElementRecords)


def _parse_doctype(scanner: _Scanner) -> tuple[str, str | None]:
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
            scanner.read_name()  # SYSTEM / PUBLIC keywords


def _skip_misc(scanner: _Scanner) -> None:
    """Skip whitespace, comments and processing instructions."""
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


def _scan_elements(scanner: _Scanner, records: list[ElementRecord]) -> None:
    """Scan the root element and everything inside it into ``records``.

    One loop with the open elements on an explicit stack.  Each turn
    first tries :data:`~repro.xmlio.scan.PLAIN_TAG`, which takes a text
    run free of ``&`` together with the tag after it in one regex match:
    a bare start tag, a leaf with its text and end tag, or the expected
    end tag is settled right there, any other tag it found goes to
    :func:`scan_start_tag` or :func:`scan_end_tag`.  Everything else —
    references in text, comments, CDATA, processing instructions, tags
    that do not open with an ASCII name — is dispatched on the character
    after ``<``.  The tokenizer helpers own every error message.  Each
    start tag appends its record and its name to the parent's child
    names; the record's lists keep filling until the matching end tag
    pops it.
    """
    text = scanner.text
    length = scanner.length
    limit = MAX_ELEMENT_DEPTH
    plain = PLAIN_TAG.match
    append = records.append
    name, attributes, self_closed = scan_start_tag(scanner)
    kids: list[str] = []
    chunks: list[str] = []
    append((name, attributes, kids, chunks, -1))
    if self_closed:
        return
    # The open elements: (record index, name, child names, text chunks).
    stack = [(0, name, kids, chunks)]
    current = 0
    pos = scanner.pos
    while True:
        match = plain(text, pos)
        if match is not None:
            chunk, end_name, end_close, tag, empty, opened, leaf = match.groups()
            if chunk:
                chunks.append(chunk)
            end = match.end()
            scanner.pos = match.end(1)
            closing = end_name is not None
            if closing:
                bare = end_close is not None and end_name == name
            else:
                bare = empty is not None or opened is not None
        else:
            if pos >= length:
                scanner.pos = pos
                raise scanner.error(f"unterminated element <{name}>")
            if text[pos] != "<":
                next_tag = text.find("<", pos)
                if next_tag < 0:
                    scanner.pos = pos
                    raise scanner.error(f"unterminated element <{name}>")
                raw = text[pos:next_tag]
                pos = scanner.pos = next_tag
                if "&" in raw:
                    raw = _decode_entities(raw, scanner)
                if raw:
                    chunks.append(raw)
                continue
            marker = text[pos + 1 : pos + 2]
            if marker == "!":
                if text.startswith("<!--", pos):
                    scanner.pos = pos + 4
                    scanner.read_until("-->", "unterminated comment")
                    pos = scanner.pos
                    continue
                if text.startswith("<![CDATA[", pos):
                    scanner.pos = pos + 9
                    chunks.append(
                        scanner.read_until("]]>", "unterminated CDATA section")
                    )
                    pos = scanner.pos
                    continue
                # Anything else after "<!" fails as a start tag, below.
            elif marker == "?":
                scanner.pos = pos + 2
                scanner.read_until("?>", "unterminated processing instruction")
                pos = scanner.pos
                continue
            end = scanner.pos = pos
            closing = marker == "/"
            bare = False
        if closing:
            if bare:
                pos = end
            else:
                scan_end_tag(scanner, name)
                pos = scanner.pos
            stack.pop()
            if not stack:
                scanner.pos = pos
                return
            current, name, kids, chunks = stack[-1]
            continue
        if len(stack) >= limit:
            raise scanner.error(f"element nesting deeper than {limit} levels")
        child_chunks: list[str] = []
        if bare:
            pos = end
            attributes = {}
            if leaf:
                child_chunks.append(leaf)
            self_closed = opened is None or leaf is not None
        else:
            tag, attributes, self_closed = scan_start_tag(scanner)
            pos = scanner.pos
        kids.append(tag)
        child_kids: list[str] = []
        index = len(records)
        append((tag, attributes, child_kids, child_chunks, current))
        if not self_closed:
            current, name, kids, chunks = index, tag, child_kids, child_chunks
            stack.append((current, name, kids, chunks))


def is_xml_text(source: object) -> TypeGuard[str]:
    """Whether ``source`` is markup text rather than a file path.

    Markup is a string whose first character other than whitespace and
    a byte-order mark is ``<``; no file path the corpus loaders accept
    starts that way.
    """
    return isinstance(source, str) and _XML_TEXT.match(source) is not None


def scan_document(text: str) -> ElementRecords:
    """Scan one XML document from a string into element records."""
    scanner = _Scanner(normalize_newlines(text))
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
    records: list[ElementRecord] = []
    _scan_elements(scanner, records)
    _skip_misc(scanner)
    if not scanner.eof():
        raise scanner.error("content after the root element")
    return ElementRecords(records, doctype_name, internal_subset)


def parse_document(text: str) -> Document:
    """Parse one XML document from a string."""
    return scan_document(text).link()


def _read_file_text(path: str) -> tuple[str, int, bool]:
    """``(decoded text, byte size, mmap taken)`` for the file.

    Files of at least :data:`MMAP_MIN_BYTES` are decoded straight from
    an ``mmap`` of the OS page cache — a single UTF-8 decode, no
    intermediate ``bytes`` object.  Smaller files, and files on a
    filesystem that refuses to map, take a plain read.
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size >= MMAP_MIN_BYTES:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                pass  # unmappable, or emptied since the stat: plain read
            else:
                with mapped:
                    return str(mapped, "utf-8"), len(mapped), True
        data = handle.read()
        return data.decode("utf-8"), len(data), False


def _load_file(
    path: str, recorder: Recorder, load: Callable[[str], _Loaded]
) -> _Loaded:
    with recorder.span("parse", file=str(path)):
        text, byte_size, mapped = _read_file_text(path)
        loaded = load(text)
    if recorder.enabled:
        recorder.count("documents")
        recorder.count("parse.chars", len(text))
        recorder.count("parse.bytes", byte_size)
        if mapped:
            recorder.count("parse.mmap")
    return loaded


def parse_file(path: str, recorder: Recorder = NULL_RECORDER) -> Document:
    """Parse an XML document from a file path (UTF-8).

    Files of at least :data:`MMAP_MIN_BYTES` are memory-mapped and
    decoded in a single pass.  Under a live recorder the byte volume
    lands in the ``parse.chars``/``parse.bytes`` counters, which
    together with the ``parse`` span time give corpus-level parse
    throughput.  A failed read raises the ``OSError`` or
    ``UnicodeDecodeError`` as is; :func:`read_document` is the reader
    that names the document.
    """
    return _load_file(path, recorder, parse_document)


def scan_file(path: str, recorder: Recorder = NULL_RECORDER) -> ElementRecords:
    """:func:`parse_file`, stopping at the element records."""
    return _load_file(path, recorder, scan_document)


def document_label(item: Document | str, index: int) -> str:
    """How reports name corpus item ``index``: its path, else its position."""
    if isinstance(item, Document) or is_xml_text(item):
        return f"<document #{index}>"
    return item


def read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``.

    A missing or unreadable file, or bytes that are not UTF-8, raise a
    :class:`CorpusError` whose message starts with the path, chained to
    the original error.
    """
    try:
        return _read_file_text(path)[0]
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def read_document(
    item: Document | str, index: int, recorder: Recorder = NULL_RECORDER
) -> Document | ElementRecords:
    """Read corpus item ``index``: the one reader of inference and validation.

    ``item`` is a parsed :class:`Document`, XML text or a file path.  A
    document passes through; text is scanned under a ``parse`` span and
    a path through :func:`scan_file`, both into
    :class:`ElementRecords`.  Every failure is a :class:`CorpusError`
    whose message starts with :func:`document_label`: an
    :class:`XmlSyntaxError` keeps its type, line, column and position,
    and an ``OSError`` or ``UnicodeDecodeError`` (a missing file, bytes
    that are not UTF-8) is re-raised as one, chained to the original.
    """
    if isinstance(item, Document):
        return item
    try:
        if is_xml_text(item):
            with recorder.span("parse"):
                return scan_document(item)
        return scan_file(item, recorder)
    except XmlSyntaxError as exc:
        exc.in_document(document_label(item, index))
        raise
    except OSError as exc:
        # The label already names the file: drop the ``: 'path'`` tail.
        detail = f"[Errno {exc.errno}] {exc.strerror}" if exc.strerror else str(exc)
        raise CorpusError(f"{document_label(item, index)}: {detail}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{document_label(item, index)}: {exc}") from exc


__all__ = [
    "MAX_ELEMENT_DEPTH",
    "MMAP_MIN_BYTES",
    "XmlSyntaxError",
    "document_label",
    "is_xml_text",
    "parse_document",
    "parse_file",
    "read_document",
    "read_text",
    "scan_document",
    "scan_file",
]

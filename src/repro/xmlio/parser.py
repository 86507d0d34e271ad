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
noisy-but-well-formed input is the job of :mod:`repro.learning.noise`.

This module owns the *grammar*: the recursive-descent element/content
structure, DOCTYPE handling, and the file-level API with its failure
contract.  The *tokenizer* — bulk ``str.find`` runs, the precompiled
regex dispatch table, entity decoding, newline normalization — lives
in :mod:`repro.xmlio.scan`.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import TypeGuard

from ..errors import CorpusError
from ..obs.recorder import NULL_RECORDER, Recorder
from .scan import (
    Scanner as _Scanner,
    XmlSyntaxError,
    decode_entities as _decode_entities,
    normalize_newlines,
    scan_end_tag,
    scan_internal_subset,
    scan_start_tag,
)
from .tree import Document, Element

#: Maximum element nesting the parser accepts.  The recursive-descent
#: element/content pair costs about two Python frames per level, so an
#: adversarial "depth bomb" (<a><a><a>…) would otherwise hit the
#: interpreter's recursion limit as an unhelpful ``RecursionError``;
#: capping well below it turns the bomb into an ordinary, precisely
#: located :class:`XmlSyntaxError`.  No sane schema nests this deep.
MAX_ELEMENT_DEPTH = 256

#: Files at least this large are decoded straight from an ``mmap`` of
#: the file instead of a ``read()`` — one UTF-8 decode from the mapped
#: pages into the parse string, with no intermediate bytes copy.
#: Small files stay on the plain-read path: mapping costs two extra
#: syscalls, which only pay for themselves once the copy it avoids is
#: substantially bigger than a page.
MMAP_MIN_BYTES = 1 << 20


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


def _parse_element(scanner: _Scanner, depth: int = 0) -> Element:
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


def _parse_content(scanner: _Scanner, element: Element, depth: int = 0) -> None:
    """Children, text runs and the end tag of an open ``element``.

    One dispatch per content item: a text run is jumped in a single
    ``find("<")``, everything else is routed on the character after
    ``<``.  Only chunks containing ``&`` pay for entity decoding; all
    other text lands in the tree as a zero-copy slice.  Child elements
    are opened inline (rather than through :func:`_parse_element`) so
    each nesting level costs one Python frame, not three.
    """
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
                raw = _decode_entities(raw, scanner)
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


def is_xml_text(source: object) -> TypeGuard[str]:
    """Whether ``source`` is markup text rather than a file path.

    Markup is a string whose first non-blank character is ``<``; no
    file path the corpus loaders accept starts that way.
    """
    return isinstance(source, str) and source.lstrip()[:1] == "<"


def parse_document(text: str) -> Document:
    """Parse one XML document from a string."""
    scanner = _Scanner(normalize_newlines(text))
    if scanner.startswith("﻿"):
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


def parse_bytes(data: bytes | bytearray | memoryview) -> Document:
    """Parse one XML document from a UTF-8 byte buffer.

    Accepts anything with the buffer protocol (``bytes``, a
    ``memoryview``, an ``mmap``) and performs exactly one decode.
    """
    return parse_document(str(data, "utf-8"))


def _read_file_text(path: str, use_mmap: bool | None) -> tuple[str, int, bool]:
    """``(decoded text, byte size, mmap taken)`` for the file.

    ``use_mmap=None`` (the default) maps files of at least
    :data:`MMAP_MIN_BYTES`; ``True``/``False`` force the choice.  The
    mapped branch decodes straight from the OS page cache — a single
    UTF-8 decode, no intermediate ``bytes`` object.  Empty files and
    filesystems that refuse to map fall back to a plain read.
    """
    with open(path, "rb") as handle:
        if use_mmap or (
            use_mmap is None
            and os.fstat(handle.fileno()).st_size >= MMAP_MIN_BYTES
        ):
            try:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as mapped:
                    return str(mapped, "utf-8"), len(mapped), True
            except (ValueError, OSError):
                handle.seek(0)  # zero-length or unmappable: plain read
        data = handle.read()
        return data.decode("utf-8"), len(data), False


def parse_file(
    path: str,
    recorder: Recorder = NULL_RECORDER,
    *,
    use_mmap: bool | None = None,
) -> Document:
    """Parse an XML document from a file path (UTF-8).

    Large files (>= :data:`MMAP_MIN_BYTES`) are memory-mapped and
    decoded in a single pass; pass ``use_mmap=True``/``False`` to
    force either path.  Under a live recorder the byte volume lands in
    the ``parse.chars``/``parse.bytes`` counters, which together with
    the ``parse`` span time give corpus-level parse throughput.
    """
    with recorder.span("parse", file=str(path)):
        text, byte_size, mapped = _read_file_text(path, use_mmap)
        document = parse_document(text)
    if recorder.enabled:
        recorder.count("documents")
        recorder.count("parse.chars", len(text))
        recorder.count("parse.bytes", byte_size)
        if mapped:
            recorder.count("parse.mmap")
    return document


@dataclass(frozen=True)
class ParseFailure:
    """Why a document failed to parse in recoverable mode.

    ``cause`` is the precise human-readable reason (syntax error with
    line/column, decode error, missing file); ``position`` is the byte
    offset of a syntax error when one is known, else ``None``.
    """

    path: str
    cause: str
    position: int | None = None


def try_parse_file(
    path: str, recorder: Recorder = NULL_RECORDER
) -> Document | ParseFailure:
    """Recoverable-mode parsing: a Document, or *why* there isn't one.

    The quarantine primitive of the resilient runtime
    (:mod:`repro.runtime.resilience`): everything that makes a
    real-world document unreadable — malformed XML, a non-UTF-8 or
    truncated byte stream, a vanished file — comes back as a
    :class:`ParseFailure` carrying the exact cause, instead of an
    exception unwinding the whole corpus pass.  Anything else (e.g. a
    :class:`MemoryError`, an engine bug) still raises: recoverable
    mode degrades on *bad input*, never on bad engine state.
    """
    try:
        return parse_file(path, recorder)
    except XmlSyntaxError as exc:
        failure = ParseFailure(
            path=str(path), cause=str(exc), position=exc.position
        )
    except (CorpusError, OSError, UnicodeDecodeError) as exc:
        failure = ParseFailure(path=str(path), cause=str(exc))
    if recorder.enabled:
        recorder.count("parse.failures")
    return failure


__all__ = [
    "MAX_ELEMENT_DEPTH",
    "MMAP_MIN_BYTES",
    "ParseFailure",
    "XmlSyntaxError",
    "is_xml_text",
    "parse_bytes",
    "parse_document",
    "parse_file",
    "try_parse_file",
]

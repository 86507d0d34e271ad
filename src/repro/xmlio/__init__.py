"""XML substrate: parser, document model, DTDs, validation, XSDs.

Everything is implemented from scratch (no stdlib ``xml`` dependency):

* :func:`parse_document` / :func:`parse_file` — a strict XML 1.0
  subset parser that captures DOCTYPE internal subsets;
* :func:`read_document` — the corpus reader inference and validation
  share: a document, XML text or a path in, element records out, and
  every failure a :class:`~repro.errors.CorpusError` that names the
  document;
* :class:`Dtd` with :func:`parse_dtd` — content models (EMPTY / ANY /
  mixed / element content regexes) and ATTLISTs, parsing and printing;
* :func:`validate` — DTD validation with per-violation reports;
* :func:`dtd_to_xsd` and :func:`sniff_type` — Section 9's XSD
  generation with datatype heuristics.

Evidence extraction lives one layer up, in
:mod:`repro.learning.evidence`.
"""

from .datatypes import sniff_type
from .diff import ElementDiff, diff_dtds, iter_diffs
from .dtd import (
    Any,
    AttributeDef,
    Children,
    ContentModel,
    Dtd,
    DtdSyntaxError,
    Empty,
    Mixed,
    parse_dtd,
)
from .parser import XmlSyntaxError, parse_document, parse_file, read_document
from .tree import Document, Element
from .validate import Violation, is_valid, validate
from .xsd import dtd_to_xsd

__all__ = [
    "Any",
    "AttributeDef",
    "Children",
    "ContentModel",
    "Document",
    "Dtd",
    "DtdSyntaxError",
    "Element",
    "ElementDiff",
    "diff_dtds",
    "iter_diffs",
    "Empty",
    "Mixed",
    "Violation",
    "XmlSyntaxError",
    "dtd_to_xsd",
    "is_valid",
    "parse_document",
    "parse_dtd",
    "parse_file",
    "read_document",
    "sniff_type",
    "validate",
]

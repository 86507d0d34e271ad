"""XML substrate: parser, document model, DTDs, validation, XSDs.

Everything is implemented from scratch (no stdlib ``xml`` dependency):

* :func:`parse_document` / :func:`parse_file` — a strict XML 1.0
  subset parser that captures DOCTYPE internal subsets;
* :class:`Dtd` with :func:`parse_dtd` — content models (EMPTY / ANY /
  mixed / element content regexes) and ATTLISTs, parsing and printing;
* :func:`validate` — DTD validation with per-violation reports;
* :func:`dtd_to_xsd` and :func:`sniff_type` — Section 9's XSD
  generation with datatype heuristics.

Evidence extraction (``extract_evidence``, ``StreamingEvidence``, …)
moved to :mod:`repro.learning.evidence`; the names remain importable
from here (and from ``repro.xmlio.extract``) through a lazy alias so
that ``repro.xmlio`` keeps no eager import of the learning layer.
"""

from typing import TYPE_CHECKING, Any as _Any

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
from .parser import (
    ParseFailure,
    XmlSyntaxError,
    parse_bytes,
    parse_document,
    parse_file,
    try_parse_file,
)
from .tree import Document, Element
from .validate import Violation, is_valid, validate
from .xsd import dtd_to_xsd

if TYPE_CHECKING:
    from ..learning.evidence import (
        CorpusEvidence as CorpusEvidence,
        ElementEvidence as ElementEvidence,
        StreamingEvidence as StreamingEvidence,
        WordBag as WordBag,
        child_sequences as child_sequences,
        extract_evidence as extract_evidence,
        extract_streaming_evidence as extract_streaming_evidence,
    )

#: Names that now live in :mod:`repro.learning.evidence`, still
#: importable from here through the lazy ``__getattr__`` below.
_EVIDENCE_NAMES = frozenset(
    {
        "CorpusEvidence",
        "ElementEvidence",
        "StreamingEvidence",
        "WordBag",
        "child_sequences",
        "extract_evidence",
        "extract_streaming_evidence",
    }
)


def __getattr__(name: str) -> _Any:
    if name in _EVIDENCE_NAMES:
        from ..learning import evidence

        return getattr(evidence, name)
    # lint: allow R002 — module __getattr__ must raise AttributeError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Any",
    "AttributeDef",
    "Children",
    "ContentModel",
    "CorpusEvidence",
    "Document",
    "Dtd",
    "DtdSyntaxError",
    "Element",
    "ElementDiff",
    "diff_dtds",
    "iter_diffs",
    "ElementEvidence",
    "Empty",
    "Mixed",
    "ParseFailure",
    "StreamingEvidence",
    "Violation",
    "WordBag",
    "XmlSyntaxError",
    "child_sequences",
    "dtd_to_xsd",
    "extract_evidence",
    "extract_streaming_evidence",
    "is_valid",
    "parse_bytes",
    "parse_document",
    "parse_dtd",
    "parse_file",
    "sniff_type",
    "try_parse_file",
    "validate",
]

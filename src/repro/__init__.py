"""repro — inference of concise DTDs from XML data.

A from-scratch implementation of Bex, Neven, Schwentick & Tuyls,
"Inference of Concise DTDs from XML Data" (VLDB 2006): the iDTD and CRX
learning algorithms, the SOA→SORE ``rewrite`` system, the substrates
they stand on (regular-expression engine, automata toolkit, XML/DTD
machinery), the baselines the paper compares against (XTRACT, Trang)
and the full evaluation harness.

Quickstart::

    from repro import infer_sore, infer_chare
    from repro.api import InferenceConfig, infer

    words = [["a", "b"], ["b"], ["a", "b", "b"]]
    print(infer_sore(words))    # SORE via iDTD:   a? b+
    print(infer_chare(words))   # CHARE via CRX:   a? b+

    print(infer("<r><x/><y/></r>").render())

:func:`repro.api.infer` is the entry point for whole-corpus inference
(batch, sharded, checkpointed); :func:`repro.api.validate` and
:func:`repro.api.diff` are its companions for the paper's two
applications, and :class:`repro.api.InferenceSession` folds documents
in incrementally.  Every pipeline shape — batch, sharded, checkpointed,
session — goes through that one façade.
"""

from .api import (
    DiffConfig,
    DiffResult,
    InferenceConfig,
    InferenceResult,
    InferenceSession,
    ValidationConfig,
    ValidationResult,
    diff,
    infer,
    validate,
)
from .automata.soa import SOA
from .core.crx import crx as infer_chare
from .core.idtd import idtd as infer_sore
from .core.idtd import idtd_from_soa
from .core.inference import DTDInferencer
from .core.rewrite import rewrite
from .learning.incremental import IncrementalSOA
from .learning.tinf import tinf
from .regex.ast import Regex
from .regex.classify import is_chare, is_deterministic, is_sore
from .regex.language import language_equivalent, language_included, matches
from .regex.parser import parse_regex
from .regex.printer import to_dtd_syntax, to_paper_syntax
from .xmlio.dtd import Dtd, parse_dtd
from .xmlio.parser import parse_document, parse_file
from .xmlio.tree import Document

__version__ = "1.0.0"

__all__ = [
    "DTDInferencer",
    "DiffConfig",
    "DiffResult",
    "Document",
    "Dtd",
    "InferenceConfig",
    "InferenceResult",
    "InferenceSession",
    "ValidationConfig",
    "ValidationResult",
    "diff",
    "infer",
    "IncrementalSOA",
    "Regex",
    "SOA",
    "idtd_from_soa",
    "infer_chare",
    "infer_sore",
    "is_chare",
    "is_deterministic",
    "is_sore",
    "language_equivalent",
    "language_included",
    "matches",
    "parse_document",
    "parse_dtd",
    "parse_file",
    "parse_regex",
    "rewrite",
    "tinf",
    "to_dtd_syntax",
    "to_paper_syntax",
    "validate",
    "__version__",
]

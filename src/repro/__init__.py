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
from .automata import SOA, state_elimination
from .core import DTDInferencer, annotate_numeric, idtd_from_soa
from .core.crx import crx as infer_chare
from .core.idtd import idtd as infer_sore
from .core.rewrite import rewrite
from .learning import (
    IncrementalCRX,
    IncrementalSOA,
    idtd_denoised,
    reservoir_sample,
    tinf,
)
from .regex import (
    Regex,
    is_chare,
    is_deterministic,
    is_sore,
    language_equivalent,
    language_included,
    matches,
    parse_regex,
    to_dtd_syntax,
    to_paper_syntax,
)
from .xmlio import (
    Document,
    Dtd,
    dtd_to_xsd,
    parse_document,
    parse_dtd,
    parse_file,
)

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
    "IncrementalCRX",
    "IncrementalSOA",
    "Regex",
    "SOA",
    "annotate_numeric",
    "dtd_to_xsd",
    "idtd_denoised",
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
    "reservoir_sample",
    "rewrite",
    "state_elimination",
    "tinf",
    "to_dtd_syntax",
    "to_paper_syntax",
    "validate",
    "__version__",
]

"""The paper's contribution: rewrite, iDTD, CRX, and the DTD pipeline.

* :func:`rewrite` — SOA → equivalent SORE (Section 5, Theorem 1);
* :func:`idtd` / :func:`idtd_from_soa` — SORE inference with repair
  rules (Section 6, Theorem 2);
* :func:`crx` — direct CHARE inference (Section 7, Theorems 3-5);
* :func:`annotate_numeric` — numerical predicates (Section 9);
* :class:`DTDInferencer` — the end-to-end per-element pipeline's
  engine, behind :func:`repro.api.infer`.
"""

from .crx import ClassSummary, CrxState, crx, quantifier_for
from .idtd import IdtdError, IdtdResult, idtd, idtd_from_soa
from .inference import DTDInferencer, InferenceReport
from .numeric import annotate_numeric
from .repair import Repair, find_repair
from .rewrite import (
    DEFAULT_ORDER,
    Application,
    RewriteResult,
    all_applications,
    apply_application,
    find_application,
    rewrite,
    rewrite_gfa,
)

__all__ = [
    "Application",
    "ClassSummary",
    "CrxState",
    "DEFAULT_ORDER",
    "DTDInferencer",
    "IdtdError",
    "IdtdResult",
    "InferenceReport",
    "Repair",
    "RewriteResult",
    "all_applications",
    "annotate_numeric",
    "apply_application",
    "crx",
    "find_application",
    "find_repair",
    "idtd",
    "idtd_from_soa",
    "quantifier_for",
    "rewrite",
    "rewrite_gfa",
]

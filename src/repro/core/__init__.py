"""The paper's contribution: rewrite, iDTD, CRX, and the DTD pipeline.

* :func:`repro.core.rewrite.rewrite` — SOA → equivalent SORE
  (Section 5, Theorem 1);
* :func:`repro.core.idtd.idtd` / :func:`idtd_from_soa` — SORE inference
  with repair rules (Section 6, Theorem 2);
* :func:`repro.core.crx.crx` — direct CHARE inference (Section 7,
  Theorems 3-5);
* :func:`annotate_numeric` — numerical predicates (Section 9);
* :class:`DTDInferencer` — the end-to-end per-element pipeline's
  engine, behind :func:`repro.api.infer`.

The functions ``crx``, ``idtd`` and ``rewrite`` are imported from their
own submodules: re-exported here they would shadow those modules as
attributes of this package.
"""

from .crx import ClassSummary, CrxState, quantifier_for
from .idtd import IdtdError, IdtdResult, idtd_from_soa
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
    "find_application",
    "find_repair",
    "idtd_from_soa",
    "quantifier_for",
    "rewrite_gfa",
]

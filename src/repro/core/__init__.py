"""The paper's contribution: rewrite, iDTD, CRX, and the DTD pipeline.

* :func:`repro.core.rewrite.rewrite` — SOA → equivalent SORE
  (Section 5, Theorem 1);
* :func:`repro.core.idtd.idtd` / :func:`repro.core.idtd.idtd_from_soa`
  — SORE inference with repair rules (:mod:`repro.core.repair`;
  Section 6, Theorem 2);
* :func:`repro.core.crx.crx` — direct CHARE inference (Section 7,
  Theorems 3-5);
* :func:`repro.core.numeric.annotate_numeric` — numerical predicates
  (Section 9);
* :class:`repro.core.inference.DTDInferencer` — the end-to-end
  per-element pipeline's engine, behind :func:`repro.api.infer`.
"""

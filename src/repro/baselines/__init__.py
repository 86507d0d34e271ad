"""Baseline systems the paper compares against, re-implemented.

* :func:`repro.baselines.xtract.xtract` — the XTRACT pipeline
  (generalize / factor / MDL), with its reported blow-up and capacity
  behaviour;
* :func:`repro.baselines.trang.trang` — Trang's inference mode (2T-INF,
  SCC contraction, DAG linearisation), including the documented
  input-order sensitivity.
"""

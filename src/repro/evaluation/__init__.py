"""Evaluation machinery: metrics, the Figure 4 protocol, timing, tables.

* :mod:`repro.evaluation.metrics` — language fit, equivalence and
  conciseness measures;
* :mod:`repro.evaluation.criticality` — the Figure 4 success curves;
* :mod:`repro.evaluation.timing` and :mod:`repro.evaluation.tables` —
  best-of timing and the text tables and curves of the reports.
"""

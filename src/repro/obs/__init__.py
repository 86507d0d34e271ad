"""Observability: span timers, counters, memory and perf snapshots.

The instrumentation substrate of the pipeline (see ``docs/API.md``):

* :mod:`repro.obs.recorder` — the ``Recorder`` protocol every
  instrumented layer accepts; ``NULL_RECORDER`` / ``NullRecorder``, the
  near-free default used whenever no recorder is passed; and
  ``StatsRecorder``, which collects hierarchical spans, counters,
  aggregated hot-loop timings and peak-RSS samples, with picklable
  snapshots that merge across map-reduce shards;
* :mod:`repro.obs.report` — ``format_stats`` / ``write_trace``, the
  ``--stats`` table and ``--trace`` JSON-lines renderings;
* :mod:`repro.obs.check_trace` — ``validate_trace_lines``, the trace
  schema check used by tests and the CI smoke step.

Deliberately dependency-free within repro, so every layer (including
``xmlio`` and ``automata``) can import it without cycles.
"""

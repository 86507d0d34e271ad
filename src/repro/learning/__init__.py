"""Learning substrate: automaton inference, sampling, incremental.

* :mod:`repro.learning.tinf` — 2T-INF (Garcia & Vidal), Section 4; plus
  the k-testable generalisation ``ktinf``;
* :mod:`repro.learning.sampling` — ``reservoir_sample`` /
  ``covering_subsample``, the sampling protocol of the Figure 4
  experiments;
* :mod:`repro.learning.incremental` — ``IncrementalSOA`` and the CRX
  state's checkpoint payload, Section 9 incremental computation (the
  CRX state itself is :class:`repro.core.crx.CrxState`);
* :mod:`repro.learning.kore` / :mod:`repro.learning.sire` — the
  beyond-SORE extension learners (k-occurrence REs and interleaving);
* :mod:`repro.learning.evidence` — corpus evidence extraction: one
  shard-mergeable ``StreamingEvidence`` per corpus, whose bags spill
  straight into the incremental learner states above.
"""

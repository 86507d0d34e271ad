"""Learning substrate: automaton inference, sampling, incremental, noise.

* :func:`tinf` — 2T-INF (Garcia & Vidal), Section 4; plus the
  k-testable generalisation :func:`ktinf`;
* :func:`reservoir_sample` / :func:`covering_subsample` — the sampling
  protocol of the Figure 4 experiments;
* :class:`IncrementalSOA` / :class:`IncrementalCRX` — Section 9
  incremental computation;
* :class:`IncrementalKore` / :class:`IncrementalSire` — the
  beyond-SORE extension learners (k-occurrence REs and interleaving);
* :class:`WeightedSOA` / :func:`idtd_denoised` — Section 9 noise
  handling with per-edge supports;
* :mod:`repro.learning.evidence` — corpus evidence extraction: the
  batch :class:`CorpusEvidence` sample and the shard-mergeable
  :class:`StreamingEvidence` fold straight into the incremental
  learner states above.
"""

from .evidence import (
    CorpusEvidence,
    ElementEvidence,
    StreamingEvidence,
    WordBag,
    child_sequences,
    extract_evidence,
    extract_streaming_evidence,
)
from .incremental import IncrementalCRX, IncrementalSOA
from .kore import IncrementalKore
from .noise import DenoisedResult, WeightedSOA, idtd_denoised
from .sire import IncrementalSire
from .sampling import covering_subsample, reservoir_sample
from .tinf import KTestableAutomaton, ktinf, sample_two_grams, tinf

__all__ = [
    "CorpusEvidence",
    "DenoisedResult",
    "ElementEvidence",
    "IncrementalCRX",
    "IncrementalKore",
    "IncrementalSOA",
    "IncrementalSire",
    "KTestableAutomaton",
    "StreamingEvidence",
    "WeightedSOA",
    "WordBag",
    "child_sequences",
    "covering_subsample",
    "extract_evidence",
    "extract_streaming_evidence",
    "idtd_denoised",
    "ktinf",
    "reservoir_sample",
    "sample_two_grams",
    "tinf",
]

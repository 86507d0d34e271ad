"""Data generation: the ToXgene substitute plus the paper's corpora.

* :mod:`repro.datagen.strings` — random draws from an RE
  (``random_word`` / ``sample_words``) and deterministic 2-gram-covering
  samples (``representative_sample``: what "all relevant examples
  present" means operationally);
* :mod:`repro.datagen.corpora` — ``TABLE1`` / ``TABLE2`` /
  ``FIGURE4_TARGETS``, the paper's concrete expressions with expected
  learner outputs;
* :class:`repro.datagen.xmlgen.XmlGenerator` — random XML documents
  from a DTD;
* :mod:`repro.datagen.noise` — noise injection for the Section 9
  experiments;
* :mod:`repro.datagen.occurrences` — seeded repeated-symbol and
  shuffled/interleaved corpora for the beyond-SORE learners.
"""

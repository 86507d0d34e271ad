"""XML substrate: parser, document model, DTDs, validation, XSDs.

Everything is implemented from scratch (no stdlib ``xml`` dependency):

* :mod:`repro.xmlio.parser` — ``parse_document`` / ``parse_file``, a
  strict XML 1.0 subset parser that captures DOCTYPE internal subsets
  (into the :mod:`repro.xmlio.tree` model), and ``read_document``, the
  corpus reader inference and validation share: a document, XML text or
  a path in, element records (:mod:`repro.xmlio.scan`) out, and every
  failure a :class:`~repro.errors.CorpusError` that names the document;
* :mod:`repro.xmlio.dtd` — ``Dtd`` with ``parse_dtd``: content models
  (EMPTY / ANY / mixed / element content regexes) and ATTLISTs, parsing
  and printing; :mod:`repro.xmlio.diff` compares two of them;
* :mod:`repro.xmlio.validate` — DTD validation with per-violation
  reports;
* :mod:`repro.xmlio.xsd` and :mod:`repro.xmlio.datatypes` — Section 9's
  XSD generation with datatype heuristics.

Evidence extraction lives one layer up, in
:mod:`repro.learning.evidence`.
"""

"""Regular expression engine: the paper's RE grammar and decision procedures.

Public surface, one module each:

* AST nodes and smart constructors (:mod:`repro.regex.ast`),
* parsing (:mod:`repro.regex.parser`) and printing in paper and DTD
  syntax (:mod:`repro.regex.printer`),
* normal forms and canonical comparison (:mod:`repro.regex.normalize`),
* SORE / CHARE / determinism classifiers (:mod:`repro.regex.classify`),
* Glushkov position automata (:mod:`repro.regex.glushkov`),
* language-level decisions: matching, inclusion, equivalence,
  enumeration (:mod:`repro.regex.language`), and matching by
  Brzozowski derivatives (:mod:`repro.regex.derivatives`).
"""

"""Automata toolkit: SOAs, generalized automata, and conversions.

* :class:`repro.automata.soa.SOA` — single occurrence automata, the
  paper's state-labelled automata for 2-testable languages
  (Sections 3–4);
* :class:`repro.automata.gfa.GFA` — generalized finite automata with
  SORE state labels, the data structure the rewrite system of Section 5
  operates on, including its ε-closure (one int mask per node:
  ``node_bit``, read back with ``mask_nodes``);
* :mod:`repro.automata.scc` — the one iterative Tarjan, behind CRX's
  classes, Trang's contracted blocks and iDTD's SCC contraction;
* :func:`repro.automata.elimination.state_elimination` — the classical
  automaton→RE translation used as the conciseness anti-baseline
  (expression (†));
* :mod:`repro.automata.compare` — exact language comparisons between
  SOAs and regular expressions, over :mod:`repro.automata.dfa`;
* :mod:`repro.automata.dot` — Graphviz renderings of SOAs and GFAs.
"""

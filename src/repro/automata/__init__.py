"""Automata toolkit: SOAs, generalized automata, and conversions.

* :class:`SOA` — single occurrence automata, the paper's state-labelled
  automata for 2-testable languages (Sections 3–4);
* :class:`GFA` — generalized finite automata with SORE state labels,
  the data structure the rewrite system of Section 5 operates on,
  including its ε-closure (one int mask per node: :func:`node_bit`,
  read back with :func:`mask_nodes`);
* :mod:`repro.automata.scc` — the one iterative Tarjan, behind CRX's
  classes, Trang's contracted blocks and iDTD's SCC contraction;
* :func:`state_elimination` — the classical automaton→RE translation
  used as the conciseness anti-baseline (expression (†));
* exact language comparisons between SOAs and regular expressions.
"""

from .dfa import DFA, from_regex as dfa_from_regex, isomorphic, minimal_dfa_size, minimize
from .dot import gfa_to_dot, soa_to_dot
from .compare import (
    regex_included_in_soa,
    regex_vs_soa_counterexample,
    soa_equivalent_to_regex,
    soa_included_in_regex,
    soa_vs_regex_counterexample,
)
from .elimination import state_elimination
from .gfa import GFA, SINK, SOURCE, Closure, mask_nodes, node_bit
from .soa import NotSingleOccurrenceError, SOA

__all__ = [
    "DFA",
    "GFA",
    "SINK",
    "SOA",
    "SOURCE",
    "Closure",
    "dfa_from_regex",
    "NotSingleOccurrenceError",
    "gfa_to_dot",
    "isomorphic",
    "mask_nodes",
    "minimal_dfa_size",
    "minimize",
    "node_bit",
    "regex_included_in_soa",
    "regex_vs_soa_counterexample",
    "soa_equivalent_to_regex",
    "soa_included_in_regex",
    "soa_to_dot",
    "soa_vs_regex_counterexample",
    "state_elimination",
]

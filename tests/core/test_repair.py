"""Repair rules of Section 6, including the Figure 2 → Figure 1 case."""

from repro.automata.gfa import GFA, SINK, SOURCE
from repro.core.repair import (
    find_enable_disjunction_a,
    find_enable_disjunction_b,
    find_enable_optional_a,
    find_enable_optional_b,
    find_repair,
    search_repair,
)
from repro.core.rewrite import find_application, rewrite_gfa
from repro.learning.tinf import tinf
from repro.regex.parser import parse_regex
from repro.automata.soa import SOA

FIGURE2_WORDS = [tuple(w) for w in ["bacacdacde", "cbacdbacde"]]


def stuck_figure2_gfa() -> GFA:
    gfa = GFA.from_soa(tinf(FIGURE2_WORDS))
    rewrite_gfa(gfa)
    return gfa


class TestFigure2Repair:
    def test_enable_disjunction_b_fires_on_a_and_c(self):
        gfa = stuck_figure2_gfa()
        repair = find_repair(gfa, k=2)
        assert repair is not None
        assert repair.rule == "enable_disjunction_b"
        labels = sorted(str(gfa.labels[node]) for node in repair.nodes)
        assert labels == ["a", "c"]

    def test_adds_exactly_the_missing_figure1_edges(self):
        """The paper: 'the ones that are missing when comparing to Fig 1'."""
        gfa = stuck_figure2_gfa()
        repair = find_repair(gfa, k=2)
        by_label = {
            str(label): node for node, label in gfa.labels.items()
        }
        expected = {
            (SOURCE, by_label["a"]),
            (by_label["a"], by_label["a"]),
            (by_label["a"], by_label["b"]),
            (by_label["a"], by_label["d"]),
            (by_label["b"], by_label["c"]),
            (by_label["c"], by_label["c"]),
            (by_label["d"], by_label["c"]),
        }
        assert set(repair.new_edges) == expected

    def test_repair_then_rewrite_succeeds(self):
        gfa = stuck_figure2_gfa()
        repair = find_repair(gfa, k=2)
        repair.apply(gfa)
        result = rewrite_gfa(gfa)
        assert result.succeeded


class TestPreconditions:
    def test_disjunction_a_rejects_sequenced_pairs(self):
        """A one-directional edge means 'sequenced', not alternatives."""
        soa = SOA.from_regex(parse_regex("(x1 + x2 + x3)+ y+"))
        gfa = GFA.from_soa(soa)
        rewrite_gfa(gfa)
        # the stuck graph is (x1+x2+x3)+ -> y+ with exits from both
        closure = gfa.closure()
        repair = find_enable_disjunction_a(gfa, closure, k=3)
        assert repair is None

    def test_disjunction_b_requires_mutual_adjacency(self):
        soa = SOA(
            symbols={"a", "b"}, initial={"a"}, final={"b"},
            edges={("a", "b")},
        )
        gfa = GFA.from_soa(soa)
        closure = gfa.closure()
        assert find_enable_disjunction_b(gfa, closure) is None

    def test_enable_optional_a_needs_a_bypass_edge(self):
        soa = SOA(
            symbols={"a", "b"}, initial={"a"}, final={"b"},
            edges={("a", "b")},
        )
        gfa = GFA.from_soa(soa)
        closure = gfa.closure()
        assert find_enable_optional_a(gfa, closure) is None

    def test_enable_optional_a_fires_with_bypass(self):
        # a (b) c with an a->c shortcut but missing... construct directly:
        # src->a, a->b, a->c, b->c is complete for a b? c, so remove b->c's
        # completeness by using: src->a, a->b, b->c, a->c, c->snk and also
        # src->b missing start alternative — optional(b) already applies
        # there.  Use a case with TWO bypassed nodes instead:
        soa = SOA(
            symbols={"a", "b", "c", "d"},
            initial={"a"},
            final={"d"},
            edges={("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d")},
        )
        gfa = GFA.from_soa(soa)
        rewrite_gfa(gfa)
        if not gfa.is_final():
            closure = gfa.closure()
            repair = find_enable_optional_a(gfa, closure)
            assert repair is not None
            assert repair.new_edges

    def test_repairs_only_add_edges(self):
        gfa = stuck_figure2_gfa()
        before = set(gfa.edge_list())
        repair = find_repair(gfa, k=2)
        repair.apply(gfa)
        after = set(gfa.edge_list())
        assert before <= after
        assert len(after) == len(before) + len(repair.new_edges)


class TestEnableOptionalB:
    def test_chain_case(self):
        # Pred(b) = {a}, small fan-out of a: precondition (b)
        soa = SOA(
            symbols={"a", "b", "c"},
            initial={"a"},
            final={"c"},
            edges={("a", "b"), ("b", "c")},
        )
        gfa = GFA.from_soa(soa)
        rewrite_gfa(gfa)  # collapses the chain: a b c — already a SORE
        assert gfa.is_final()

    def test_fires_on_genuinely_stuck_chain(self):
        # a -> b -> d and a -> c -> d, with crossing edge b->c only:
        soa = SOA(
            symbols={"a", "b", "c", "d"},
            initial={"a"},
            final={"d"},
            edges={("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("b", "c")},
        )
        gfa = GFA.from_soa(soa)
        result = rewrite_gfa(gfa)
        if not result.succeeded:
            repair = find_repair(gfa, k=2)
            assert repair is not None


def stuck_until_k5_gfa() -> GFA:
    """A stuck graph on which no finder repairs anything below ``k = 5``.

    Nodes 1 and 2 share predecessor 5 and successor 8, but node 2 has
    five more successors; disjunction (a) accepts the pair from ``k = 5``.
    """
    gfa = GFA()
    for label in ["s0?", "(s1+)?", "(s2+)?", "s3", "s4?", "s5", "s6?", "s7?", "s8?"]:
        gfa.add_node(parse_regex(label))
    for tail, head in [
        (SOURCE, 8), (SOURCE, 6), (1, 8), (2, 0), (2, 3), (2, 7), (2, 8),
        (3, 6), (5, 1), (5, 2), (5, 4), (5, SINK), (7, 4), (7, SINK),
    ]:
        gfa.add_edge(tail, head)
    return gfa


class TestEscalation:
    def test_graph_is_stuck_and_needs_k5(self):
        gfa = stuck_until_k5_gfa()
        assert find_application(gfa) is None
        assert [find_repair(gfa, k) for k in (2, 3, 4)] == [None, None, None]
        assert find_repair(gfa, 5) is not None

    def test_search_escalates_three_times(self):
        """Every escalated k reruns disjunction (a) and optional (b)."""
        gfa = stuck_until_k5_gfa()
        repair, k = search_repair(gfa, gfa.closure(), 2, len(gfa.nodes()) + 3)
        assert k == 5
        assert repair == find_repair(gfa, 5)
        assert repair.rule == "enable_disjunction_a"
        assert repair.nodes == (1, 2)
        assert repair.new_edges == ((1, SINK), (1, 0), (1, 3), (1, 4), (1, 7))

    def test_search_stops_at_max_k(self):
        gfa = stuck_until_k5_gfa()
        assert search_repair(gfa, gfa.closure(), 2, 4) == (None, 4)
        assert search_repair(gfa, gfa.closure(), 7, 4) == (find_repair(gfa, 7), 7)

"""iDTD — inference of SOREs with repair (Section 6, Algorithm 2).

``idtd(soa)`` runs ``rewrite`` to exhaustion; while the GFA is not
final it applies one repair rule (Section 6) and resumes rewriting.
Repairs only ever *add* edges, so the final SORE satisfies Theorem 2:
``L(A) ⊆ L(idtd(A))``, with the repairs chosen to keep the superset as
small as possible.

Escalation. The paper's implementation fixes the fuzziness parameter at
``k = 2`` and notes that for any fixed ``k`` there are SOAs where the
restricted variant fails, while "the unrestricted variant always
succeeds".  We implement the unrestricted variant as an escalation
ladder: if no repair applies at the current ``k``, increment ``k``
(Algorithm 2, line 5); if ``k`` exceeds the number of states, contract
a strongly connected component into a disjunction-plus (the standard
coarse generalisation, also used by Trang) which strictly reduces the
state count and therefore guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..automata.gfa import GFA, SINK, SOURCE
from ..automata.soa import SOA
from ..contracts import check_gfa, contracts_enabled
from ..errors import CorpusError, InternalError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Plus, Regex, disj
from ..regex.printer import to_paper_syntax
from .repair import Repair, search_repair
from .rewrite import DEFAULT_ORDER, Application, normalize_label, rewrite_gfa


@dataclass
class IdtdResult:
    """The inferred SORE plus a full trace of how it was obtained."""

    regex: Regex
    steps: list[Application] = field(default_factory=list)
    repairs: list[Repair] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        """Whether the sample was non-representative (repairs were needed)."""
        return bool(self.repairs)


class IdtdError(InternalError):
    """Internal failure of the repair ladder (should be unreachable)."""


def _strongly_connected_components(gfa: GFA) -> list[list[int]]:
    """Tarjan's algorithm over the labelled nodes (iterative)."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in sorted(gfa.nodes()):
        if root in index_of:
            continue
        work: list[tuple[int, list[int]]] = [
            (root, [n for n in gfa.successors(root) if n not in (SOURCE, SINK)])
        ]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            if successors:
                successor = successors.pop()
                if successor not in index_of:
                    index_of[successor] = low[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (
                            successor,
                            [
                                n
                                for n in gfa.successors(successor)
                                if n not in (SOURCE, SINK)
                            ],
                        )
                    )
                elif successor in on_stack:
                    low[node] = min(low[node], index_of[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _contract_scc(gfa: GFA) -> bool:
    """Fallback repair: contract one non-trivial SCC to ``(r1+...+rn)+``.

    Returns True when a contraction happened.  This is the coarse
    generalisation of last resort — it always reduces the node count,
    so the iDTD loop terminates even on adversarial inputs.
    """
    for component in _strongly_connected_components(gfa):
        has_loop = len(component) > 1 or gfa.has_edge(component[0], component[0])
        if not has_loop:
            continue
        for node in component:
            if gfa.has_edge(node, node):
                gfa.remove_edge(node, node)
        labels = sorted(
            (gfa.labels[node] for node in component), key=to_paper_syntax
        )
        # A lone label may already be r+ or r?: normalise the new top.
        merged = gfa.merge(list(component), normalize_label(Plus(disj(*labels))))
        if gfa.has_edge(merged, merged):
            gfa.remove_edge(merged, merged)
        return True
    return False


def idtd_from_soa(
    soa: SOA,
    k: int = 2,
    order: Sequence[str] = DEFAULT_ORDER,
    max_rounds: int | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> IdtdResult:
    """Run iDTD on a SOA, always producing a SORE with ``L(A) ⊆ L(r)``.

    ``k`` is the initial fuzziness of the repair preconditions (the
    paper's implementation uses 2); it escalates automatically when no
    repair applies.  ``order`` is the rewrite-rule priority,
    parameterised for the ablation benchmarks.
    """
    gfa = GFA.from_soa(soa)
    if not gfa.nodes():
        raise CorpusError(
            "the SOA has no states: an empty language has no SORE; "
            "handle empty samples at the DTD layer"
        )
    steps: list[Application] = []
    repairs: list[Repair] = []
    rounds_left = max_rounds if max_rounds is not None else 4 * len(gfa.nodes()) + 16
    result = rewrite_gfa(gfa, order=order, recorder=recorder)
    steps.extend(result.steps)
    current_k = k
    while not gfa.is_final():
        if rounds_left <= 0:
            raise IdtdError("repair ladder did not converge")
        rounds_left -= 1
        closure = result.closure if result.closure is not None else gfa.closure()
        repair, current_k = search_repair(  # escalates k: Algorithm 2, line 5
            gfa, closure, current_k, len(gfa.nodes()) + 3, recorder
        )
        if repair is not None:
            repair.apply(gfa)
            repairs.append(repair)
            if contracts_enabled():
                check_gfa(gfa, context=f"repair.{repair.rule}")
            recorder.count("repair.firings")
            recorder.count(f"repair.{repair.rule}")
        elif _contract_scc(gfa):
            if contracts_enabled():
                check_gfa(gfa, context="repair.scc_contraction")
            recorder.count("repair.scc_contractions")
        else:
            # An acyclic stuck graph with no applicable repair: connect
            # everything through the weakest precondition — treat every
            # node as optional-enabled.  In practice unreachable; kept
            # for Theorem 2's unconditional guarantee.
            raise IdtdError(
                "no repair applicable on an acyclic GFA; "
                "this indicates a bug in the repair preconditions"
            )
        result = rewrite_gfa(gfa, order=order, recorder=recorder)
        steps.extend(result.steps)
    if result.regex is None:  # pragma: no cover - the loop ends on a final GFA
        raise IdtdError("the rewrite loop ended on a GFA that is not final")
    # rewrite_gfa already simplified (and checked) the final label.
    return IdtdResult(regex=result.regex, steps=steps, repairs=repairs)


def idtd(
    words: Sequence[Sequence[str]],
    k: int = 2,
    order: Sequence[str] = DEFAULT_ORDER,
    recorder: Recorder = NULL_RECORDER,
) -> Regex:
    """Infer a SORE from example words: 2T-INF then repair-rewrite.

    Empty words in the sample set the SOA's ``accepts_empty`` flag,
    which reaches the rewrite system as a source→sink edge; the
    ``optional`` rule then folds it into the expression (e.g. the
    sample ``{ε, a, b, ab}`` yields ``a? b?``).
    """
    from ..learning.tinf import tinf

    if not any(words):
        raise CorpusError(
            "cannot infer an expression from empty content only"
        )
    soa = tinf(words, recorder=recorder)
    return idtd_from_soa(soa, k=k, order=order, recorder=recorder).regex

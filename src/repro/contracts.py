"""Debug-mode runtime contracts for the SOA → SORE pipeline.

The paper states structural invariants that the pipeline otherwise
never enforces at runtime:

* every automaton produced by 2T-INF is a well-formed SOA (the
  ``(I, F, S)`` triple only mentions known symbols — Section 4);
* every rewrite/repair step leaves the GFA well-formed: the adjacency
  maps stay mirrored, no edge enters the source or leaves the sink,
  labels stay single-occurrence and star-free (Section 5 keeps ``r*``
  as ``(r+)?`` until post-processing);
* every emitted expression is in Claim 1 normal form — re-normalizing
  it is a no-op (idempotence);
* the classifiers agree with the learners: iDTD emits SOREs, CRX emits
  CHAREs, and every CHARE is a SORE; content models are deterministic
  (one-unambiguous) as the XML specification requires;
* the streaming fold is a commutative monoid: merging shard states in
  either order yields the same learner state (Section 9).

Checks are **off by default** and compile down to a single predicate
call (:func:`contracts_enabled`) at each call site, so production runs
pay nothing measurable.  Enable them with the environment variable
``REPRO_CHECKS=1``, the CLI flag ``repro-infer infer --check``, or
programmatically via :func:`set_contracts` / :func:`contracts_active`.

A failed contract raises :class:`ContractViolation`, a subclass of
:class:`~repro.errors.InternalError`: an invariant breach is by
definition an engine bug, never the user's fault, and maps to exit
code 2.

Adding a contract: write a ``check_*`` function here that raises
:class:`ContractViolation` with a message naming the invariant, then
guard the call site with ``if contracts_enabled():``.  Keep each check
side-effect free — it must never mutate the object it inspects.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Collection, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .errors import InternalError

if TYPE_CHECKING:
    from .automata.gfa import GFA
    from .automata.soa import SOA
    from .regex.ast import Regex
    from .runtime.resilience import DegradationReport
    from .xmlio.dtd import Dtd
    from .learning.evidence import StreamingEvidence

__all__ = [
    "ContractViolation",
    "check_cached_content_model",
    "check_checkpoint_resume",
    "check_checkpoint_roundtrip",
    "check_degradation_report",
    "check_emitted_chare",
    "check_emitted_sore",
    "check_gfa",
    "check_merge_commutative",
    "check_content_model",
    "check_soa",
    "contracts_active",
    "contracts_enabled",
    "set_contracts",
]


class ContractViolation(InternalError):
    """A structural invariant of the pipeline was broken (engine bug)."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CHECKS", "") not in ("", "0")


_enabled: bool = _env_enabled()


def contracts_enabled() -> bool:
    """Whether invariant checks are active.  Call sites guard on this."""
    return _enabled


def set_contracts(on: bool) -> None:
    """Switch invariant checking on or off for the whole process."""
    global _enabled
    _enabled = on


@contextmanager
def contracts_active(on: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) contracts; restores on exit."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


def _violated(invariant: str, detail: str) -> ContractViolation:
    return ContractViolation(f"contract violated [{invariant}]: {detail}")


# -- SOA invariants (Section 4) ----------------------------------------------


def check_soa(soa: SOA, context: str = "tinf") -> None:
    """The ``(I, F, S)`` triple only mentions known symbols.

    A SOA identifies states with alphabet symbols, so the single
    occurrence property is structural; what can break is the triple
    referring to symbols that are not states.
    """
    endpoints = {symbol for edge in soa.edges for symbol in edge}
    unknown = (soa.initial | soa.final | endpoints) - soa.symbols
    if unknown:
        raise _violated(
            f"{context}.soa-well-formed",
            f"I/F/S mention symbols outside the state set: {sorted(unknown)}",
        )
    if any(not symbol for symbol in soa.symbols):
        raise _violated(
            f"{context}.soa-well-formed", "empty string used as a state symbol"
        )


# -- GFA invariants (Section 5) ----------------------------------------------


def check_gfa(gfa: GFA, context: str = "rewrite") -> None:
    """Well-formedness of a (mid-rewrite) generalized automaton.

    Checked after every rewrite rule application and every repair:
    adjacency maps mirror each other, the endpoints are intact, and
    the labels are single-occurrence and star-free (during rewriting
    ``r*`` must stay represented as ``(r+)?``).
    """
    from .automata.gfa import SINK, SOURCE
    from .regex.ast import Star

    out_edges = {
        (tail, head) for tail, heads in gfa._out.items() for head in heads
    }
    in_edges = {
        (tail, head) for head, tails in gfa._in.items() for tail in tails
    }
    if out_edges != in_edges:
        mismatch = out_edges.symmetric_difference(in_edges)
        raise _violated(
            f"{context}.gfa-adjacency",
            f"_out/_in adjacency maps disagree on edges {sorted(mismatch)}",
        )
    expected_nodes = set(gfa.labels) | {SOURCE, SINK}
    if set(gfa._out) != expected_nodes or set(gfa._in) != expected_nodes:
        raise _violated(
            f"{context}.gfa-nodes",
            "adjacency maps and label table track different node sets",
        )
    if gfa._in[SOURCE]:
        raise _violated(
            f"{context}.gfa-endpoints",
            f"the source has incoming edges from {sorted(gfa._in[SOURCE])}",
        )
    if gfa._out[SINK]:
        raise _violated(
            f"{context}.gfa-endpoints",
            f"the sink has outgoing edges to {sorted(gfa._out[SINK])}",
        )
    if not gfa.is_single_occurrence():
        raise _violated(
            f"{context}.gfa-single-occurrence",
            "some alphabet symbol occurs in more than one label (or twice "
            "in one)",
        )
    for node, label in gfa.labels.items():
        if any(isinstance(part, Star) for part in label.walk()):
            raise _violated(
                f"{context}.gfa-star-free",
                f"node {node} carries a Kleene star mid-rewrite: {label}; "
                "stars must stay in (r+)? form until post-processing",
            )


# -- emitted-expression invariants (Claim 1, Section 7) ----------------------


def _check_normal_form(regex: Regex, invariant: str) -> None:
    from .regex.normalize import normalize, simplify

    renormalized = normalize(regex)
    if renormalized != regex:
        raise _violated(
            invariant,
            f"emitted expression is not normal-form idempotent: {regex} "
            f"re-normalizes to {renormalized}",
        )
    resimplified = simplify(regex)
    if resimplified != regex:
        raise _violated(
            invariant,
            f"emitted expression is not simplification-idempotent: {regex} "
            f"re-simplifies to {resimplified}",
        )


def check_emitted_sore(regex: Regex, context: str = "idtd") -> None:
    """iDTD output must classify as a SORE in Claim 1 normal form."""
    from .regex.classify import is_sore

    if not is_sore(regex):
        raise _violated(
            f"{context}.emitted-sore",
            f"emitted expression is not a SORE: {regex}",
        )
    _check_normal_form(regex, f"{context}.normal-form")


def check_emitted_chare(regex: Regex, context: str = "crx") -> None:
    """CRX output must classify as a CHARE (hence also as a SORE)."""
    from .regex.classify import is_chare, is_sore

    if not is_chare(regex):
        raise _violated(
            f"{context}.emitted-chare",
            f"emitted expression is not a CHARE: {regex}",
        )
    if not is_sore(regex):
        raise _violated(
            f"{context}.classifier-agreement",
            f"classifiers disagree: {regex} is a CHARE but not a SORE",
        )


def check_content_model(regex: Regex, element: str) -> None:
    """Every DTD content model must be deterministic (one-unambiguous)."""
    from .regex.classify import is_deterministic

    if not is_deterministic(regex):
        raise _violated(
            "inference.deterministic-content-model",
            f"content model for element {element!r} is not one-unambiguous: "
            f"{regex}",
        )


def check_cached_content_model(
    cached: Regex, fresh: Regex, element: str
) -> None:
    """A cache hit must agree with a fresh run of the learner.

    The content-model cache (:mod:`repro.runtime.cache`) keys on a
    fingerprint of the merged learner state, which *should* determine
    the learner output exactly; under contracts every hit re-derives
    the expression and compares.  A mismatch means the fingerprint is
    missing an input the learner actually reads — an engine bug.
    """
    if cached != fresh:
        raise _violated(
            "cache.cached-vs-fresh-agreement",
            f"cached content model for element {element!r} ({cached}) "
            f"differs from a fresh derivation ({fresh}); the cache "
            "fingerprint does not cover every learner input",
        )


# -- degradation-report invariants (resilient runtime) ------------------------

#: The learner fallback steps the specificity ladder permits: SOREs
#: degrade to CHAREs, and either learner's last resort is ``ANY``.
_VALID_FALLBACK_STEPS = frozenset(
    {("idtd", "crx"), ("idtd", "any"), ("crx", "any")}
)


def check_degradation_report(report: DegradationReport, dtd: Dtd) -> None:
    """A degradation report must be consistent with the DTD it annotates.

    Quarantine entries carry a path and a cause (an unexplained skip is
    useless for triage); retried-shard entries are unique with sane
    counts; every fallback names an element that actually exists in
    the DTD, steps down the specificity ladder in a permitted
    direction, and — when it claims the element fell all the way to
    ``ANY`` — the DTD really does declare that element ``ANY``.
    """
    from .xmlio.dtd import Any as AnyContent

    for entry in report.quarantined:
        if not entry.path or not entry.cause:
            raise _violated(
                "resilience.quarantine-complete",
                f"quarantine entry missing path or cause: {entry!r}",
            )
    seen_shards = set()
    for retry in report.retried_shards:
        if retry.shard < 0 or retry.attempts < 1:
            raise _violated(
                "resilience.retry-sane",
                f"retry entry with impossible shard/attempts: {retry!r}",
            )
        if retry.shard in seen_shards:
            raise _violated(
                "resilience.retry-unique",
                f"shard {retry.shard} reported as retried more than once",
            )
        seen_shards.add(retry.shard)
    for fallback in report.fallbacks:
        if fallback.element not in dtd.elements:
            raise _violated(
                "resilience.fallback-element-exists",
                f"fallback for element {fallback.element!r} which the DTD "
                "does not declare",
            )
        step = (fallback.from_method, fallback.to_method)
        if step not in _VALID_FALLBACK_STEPS:
            raise _violated(
                "resilience.fallback-ordering",
                f"fallback {fallback.from_method!r} → "
                f"{fallback.to_method!r} for {fallback.element!r} is not a "
                "step down the SORE → CHARE → ANY ladder",
            )
        if fallback.to_method == "any" and not isinstance(
            dtd.elements[fallback.element], AnyContent
        ):
            raise _violated(
                "resilience.fallback-vs-dtd",
                f"report says element {fallback.element!r} fell back to ANY "
                f"but the DTD declares {dtd.elements[fallback.element]!r}",
            )


# -- streaming-fold invariants (Section 9) -----------------------------------


def _learner_fingerprint(
    evidence: StreamingEvidence,
) -> dict[str, dict[str, object]]:
    """The order-insensitive part of streaming evidence, per element.

    The canonical dehydrated form (the sorted bag, or the learner states
    of a spilled one) minus the text/attribute reservoirs: those keep
    the *first* ``SAMPLE_CAP`` values in corpus order, so they are
    ordered by design and only the rest forms a commutative monoid.
    """
    fingerprint: dict[str, dict[str, object]] = {}
    for name, element in evidence.elements.items():
        payload = element.dehydrate()
        del payload["text_values"], payload["attribute_values"]
        fingerprint[name] = payload
    return fingerprint


def check_merge_commutative(
    left: StreamingEvidence, right: StreamingEvidence
) -> None:
    """Merging shard learner states must commute (the map-reduce law).

    Runs both merge orders on deep copies and compares the resulting
    learner states; the inputs are left untouched.
    """
    forward = copy.deepcopy(left)
    forward.merge(copy.deepcopy(right))
    backward = copy.deepcopy(right)
    backward.merge(copy.deepcopy(left))
    lhs, rhs = _learner_fingerprint(forward), _learner_fingerprint(backward)
    if lhs != rhs:
        differing = sorted(
            name
            for name in set(lhs) | set(rhs)
            if lhs.get(name) != rhs.get(name)
        )
        raise _violated(
            "parallel.merge-commutativity",
            "merging shard evidence in opposite orders produced different "
            f"learner states for elements {differing}",
        )
    if forward.document_count != backward.document_count:
        raise _violated(
            "parallel.merge-commutativity",
            "document counts disagree between merge orders",
        )


# -- checkpoint invariants (repro.ckpt) ---------------------------------------


def check_checkpoint_roundtrip(evidence: StreamingEvidence) -> None:
    """Encoding and decoding evidence must be the identity.

    The on-disk codec goes through canonical JSON, so the digest of a
    decoded state must equal the digest of the original — anything
    else means ``dehydrate``/``hydrate`` drop or distort a field and a
    resumed run would silently diverge from a fresh one.

    Imports lazily: contracts (layer 5) cannot eagerly depend on the
    checkpoint package (layer 7).
    """
    from .ckpt.codec import decode_state, encode_state, evidence_digest

    original = evidence_digest(evidence)
    restored = evidence_digest(decode_state(encode_state(evidence)))
    if original != restored:
        raise _violated(
            "ckpt.roundtrip-identity",
            f"evidence digest changed across encode/decode: {original[:16]} "
            f"!= {restored[:16]}; dehydrate/hydrate lose state",
        )


def check_checkpoint_resume(
    evidence: StreamingEvidence, paths: list[str], quarantined: Collection[str] = ()
) -> None:
    """Evidence assembled from cached shards must equal a fresh pass.

    Re-extracts the corpus serially (expensive — this is why contracts
    are opt-in), minus the ``quarantined`` paths a skip-mode run left
    out, and compares canonical digests.  A mismatch means shard reuse
    changed the result: stale cache matching, wrong merge order, or
    reservoir divergence.
    """
    from .ckpt.codec import evidence_digest
    from .runtime.parallel import extract_from_paths

    survivors = [path for path in paths if path not in quarantined]
    cached = evidence_digest(evidence)
    fresh = evidence_digest(extract_from_paths(survivors))
    if cached != fresh:
        raise _violated(
            "ckpt.resume-equals-fresh",
            f"checkpoint-assembled evidence ({cached[:16]}) differs from a "
            f"fresh serial pass ({fresh[:16]}) over the same {len(survivors)} "
            "documents",
        )

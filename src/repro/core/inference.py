"""End-to-end DTD inference: XML corpus in, DTD out.

Per Section 1.2, a DTD is inferred element-wise: for every element name
occurring in the corpus, learn a regular expression from the child-name
sequences found below it.  The learner choice tracks the paper's two
regimes:

* ``"idtd"`` — SOREs via 2T-INF + rewrite + repair (Section 6): the
  most specific class, right when data is abundant;
* ``"crx"`` — CHAREs directly (Section 7): strong generalisation,
  right when data is sparse;
* ``"kore"`` — k-occurrence REs via marked 2T-INF + rewrite
  (:mod:`repro.learning.kore`): handles content models where a symbol
  legitimately repeats (``a b a``), degenerating to the iDTD SORE when
  k=1 suffices;
* ``"sire"`` — single-occurrence REs with interleaving ``&``
  (:mod:`repro.learning.sire`): handles unordered, attribute-like
  content, degenerating to the CRX CHARE when no interleaving is
  witnessed;
* ``"auto"`` — per element, CRX below ``sparse_threshold`` examples and
  iDTD above it (the paper's guidance made mechanical; the extension
  learners are opt-in, never auto-chosen).

Mixed content, text-only and empty elements are detected from the
corpus and mapped to the corresponding DTD content specifications;
attribute lists are generated from attribute usage.  Numerical
predicates (Section 9) can be switched on to tighten ``+``/``*``, and
the support filter (Section 9's noise handling) to drop element names
seen in too few parent sequences.

The entry point is :func:`repro.api.infer`; :class:`DTDInferencer` is
its engine, and :meth:`DTDInferencer.finalize` turns the evidence of
any pipeline shape into a DTD.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Literal

from ..contracts import (
    check_cached_content_model,
    check_content_model,
    contracts_enabled,
)
from ..errors import CorpusError, UsageError
from ..learning.kore import IncrementalKore
from ..learning.sire import IncrementalSire
from ..learning.tinf import tinf
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Opt, Regex
from ..regex.normalize import normalize
from ..learning import evidence as evidence_module
from ..learning.evidence import (
    ElementEvidence,
    LearnerStates,
    StreamingEvidence,
    WordBag,
)
from ..xmlio.datatypes import sniff_type
from ..xmlio.dtd import Any as AnyContent
from ..xmlio.dtd import AttributeDef, Children, Dtd, Empty, Mixed
from .crx import CrxState
from .idtd import idtd_from_soa
from .numeric import annotate_numeric

if TYPE_CHECKING:
    from ..runtime.cache import CacheKey, ContentModelCache
    from ..runtime.resilience import DegradationReport, FaultPlan

Method = Literal["idtd", "crx", "kore", "sire", "auto"]

#: Every accepted ``method=`` value, in the order help text shows them.
METHODS: tuple[str, ...] = ("auto", "idtd", "crx", "kore", "sire")

#: Below this many example sequences, ``auto`` prefers CRX's stronger
#: generalisation over iDTD's specificity (Section 1.2's two regimes).
DEFAULT_SPARSE_THRESHOLD = 50


def validate_method(method: str) -> None:
    """Reject unknown learner methods with the one canonical message.

    Every entry point — :class:`DTDInferencer`, the
    :class:`repro.api.InferenceConfig` facade, ``repro.cli`` and the
    serve ``/infer`` handler — funnels through this check, so a bad
    ``method=`` produces the same :class:`UsageError` text (and hence
    the same exit code / HTTP status) everywhere.
    """
    if method not in METHODS:
        supported = ", ".join(repr(name) for name in METHODS)
        raise UsageError(
            f"unknown method {method!r}: expected one of {supported}"
        )


def _spilled_error(option: str, name: str) -> CorpusError:
    """``option`` needs the words of element ``name``, whose bag spilled."""
    return CorpusError(
        f"{option} reads the child words of element {name!r}, but its "
        f"streaming evidence passed {evidence_module.WORD_CAP} distinct words "
        "and spilled into learner states; infer with "
        f"{option} on the batch path (no streaming, jobs, state_dir or session)"
    )


@dataclass
class InferenceReport:
    """What the inferencer did for each element (for logging / tests)."""

    method_used: dict[str, str] = field(default_factory=dict)
    text_types: dict[str, str] = field(default_factory=dict)


class DTDInferencer:
    """Infers a complete DTD from parsed XML documents.

    Parameters:
        method: which learner to use per element (see module docstring).
        sparse_threshold: the auto-mode cut-over sample size.
        numeric: tighten ``+``/``*`` into ``{m,n}`` bounds (Section 9).
        support_threshold: drop element names mentioned in fewer than
            this many parent sequences, corpus-wide (Section 9's noise
            handling); ``0`` keeps every name.
        infer_attributes: also generate ``<!ATTLIST>`` declarations.
        recorder: instrumentation sink (see :mod:`repro.obs`); spans
            ``soa``/``rewrite``/``crx`` are opened per element.
        cache: an optional :class:`repro.runtime.cache.ContentModelCache`
            memoizing the per-element finalize step, keyed on a
            fingerprint of the merged learner state.  ``None`` (the
            default) derives every content model fresh; the façade
            passes the process-wide cache unless ``cache=False``.
        fault_plan: an optional
            :class:`repro.runtime.resilience.FaultPlan` whose
            element-failure entries make chosen learners raise — the
            deterministic injection hook the resilience tests drive.
            Plans with element failures also salt the content-model
            cache key (degraded derivations never leak into, or out
            of, fault-free runs).
        degradation: an optional
            :class:`repro.runtime.resilience.DegradationReport`.  When
            set, a failing learner *falls back* down the paper's
            specificity ladder (SORE → CHARE → ``ANY``) and records
            the fallback there; when ``None`` (strict), learner
            failures propagate exactly as they always have.
    """

    def __init__(
        self,
        method: Method = "auto",
        sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
        numeric: bool = False,
        support_threshold: int = 0,
        infer_attributes: bool = True,
        recorder: Recorder | None = None,
        cache: ContentModelCache | None = None,
        fault_plan: FaultPlan | None = None,
        degradation: DegradationReport | None = None,
    ) -> None:
        validate_method(method)
        self.method = method
        self.sparse_threshold = sparse_threshold
        self.numeric = numeric
        self.support_threshold = support_threshold
        self.infer_attributes = infer_attributes
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cache = cache
        self.fault_plan = fault_plan
        self.degradation = degradation
        self._cache_salt: tuple[object, ...] = (
            fault_plan.learner_salt() if fault_plan is not None else ()
        )
        self.report = InferenceReport()

    # -- learner selection ---------------------------------------------------

    def _pick_method(self, nonempty_count: int) -> str:
        if self.method == "auto":
            return "crx" if nonempty_count < self.sparse_threshold else "idtd"
        return self.method

    # -- content-model memoization ---------------------------------------------

    def _cache_key(
        self, method: str, state_fingerprint: tuple[object, ...]
    ) -> CacheKey:
        """Key = learner method + active reservoir cap + state digest.

        The state digest is the *canonical* (sorted-tuple) fingerprint
        — hash-seed independent, so the same key bytes would be derived
        in any process, which keeps cache keys consistent with the
        on-disk digests :mod:`repro.ckpt` computes from the same states.
        ``SAMPLE_CAP`` is looked up through the module so runs under a
        patched cap (tests, ablations) never alias cached entries.
        When a fault plan injects learner failures the key also carries
        the plan (:meth:`repro.runtime.resilience.FaultPlan.learner_salt`):
        those faults change the state→expression mapping, so their
        entries must never alias fault-free ones.
        """
        return (
            method,
            evidence_module.SAMPLE_CAP,
            state_fingerprint,
        ) + self._cache_salt

    def _memoized(
        self,
        method: str,
        fingerprint: Callable[[], tuple[object, ...]],
        derive: Callable[[], Regex],
        name: str,
    ) -> Regex:
        """``derive()`` through the content-model cache, if one is set.

        The fingerprint is only computed when a cache is attached, so
        the uncached engine pays nothing.  Under contracts every hit
        re-derives fresh and compares
        (:func:`repro.contracts.check_cached_content_model`), so
        ``REPRO_CHECKS=1`` runs prove cached-vs-fresh agreement on the
        live workload.
        """
        if self.cache is None:
            return derive()
        key = self._cache_key(method, fingerprint())
        cached = self.cache.get(key, self.recorder)
        if cached is not None:
            if contracts_enabled():
                check_cached_content_model(cached, derive(), name)
            return cached
        regex = derive()
        self.cache.put(key, regex, self.recorder)
        return regex

    def _learn_regex(
        self, name: str, sample: WordBag | LearnerStates, method: str
    ) -> Regex:
        """Derive ``method``'s expression from a bag or spilled states.

        A bag is learned from its distinct words only: every learner is
        insensitive to word order, and multiplicities enter CRX and sire
        through ``add_counted`` and never matter to the SOA triples.  A
        spilled element's states already hold every word.  Either way
        the state fingerprints identically, so both evidence kinds share
        content-model cache entries.
        """
        recorder = self.recorder
        if method == "idtd":
            with recorder.span("soa", element=name):
                soa = (
                    sample.soa.soa
                    if isinstance(sample, LearnerStates)
                    else tinf(sample.distinct_words(), recorder=recorder)
                )

            def derive_sore() -> Regex:
                with recorder.span("rewrite", element=name):
                    return idtd_from_soa(soa, recorder=recorder).regex

            return self._memoized(
                "idtd", soa.canonical_fingerprint, derive_sore, name
            )
        with recorder.span(method, element=name):
            state: CrxState | IncrementalKore | IncrementalSire
            if isinstance(sample, LearnerStates):
                state = {
                    "crx": sample.crx.state,
                    "kore": sample.kore,
                    "sire": sample.sire,
                }[method]
            elif method == "kore":
                state = IncrementalKore()
                state.add_all(sample.distinct_words())
            else:
                state = CrxState() if method == "crx" else IncrementalSire()
                for word, count in sample.distinct():
                    state.add_counted(word, count)
            return self._memoized(
                method,
                state.canonical_fingerprint,
                lambda: state.infer(recorder=recorder),
                name,
            )

    def _derive_children(
        self,
        name: str,
        nonempty_count: int,
        learn: Callable[[str], Regex],
    ) -> tuple[Regex | None, str]:
        """Run the learner ladder for ``name``; ``None`` means ``ANY``.

        With no degradation report attached (strict mode, the default)
        this is exactly one ``learn(primary)`` call and failures
        propagate untouched.  With one, a failing learner — injected
        via the fault plan or a genuine :class:`CorpusError` — falls
        down the paper's specificity ladder
        (:data:`repro.runtime.resilience.FALLBACK_ORDER`): SORE to
        CHARE to ``ANY``, recording each step.  Injection is checked
        *before* ``learn`` runs so a warm content-model cache can never
        mask an injected failure.
        """
        # Lazy: repro.runtime sits above repro.core in the layer table.
        from ..runtime.resilience import (
            FALLBACK_ORDER,
            ElementFallback,
            InjectedElementFailure,
        )

        ladder = FALLBACK_ORDER[self._pick_method(nonempty_count)]
        for position, method in enumerate(ladder):
            fallback_to = (
                ladder[position + 1] if position + 1 < len(ladder) else "any"
            )
            try:
                if self.fault_plan is not None and self.fault_plan.fails_element(
                    name, method
                ):
                    raise InjectedElementFailure(
                        f"injected fault: {method} learner failure for "
                        f"element {name!r}"
                    )
                return learn(method), method
            except (CorpusError, InjectedElementFailure) as exc:
                if self.degradation is None:
                    raise
                self.degradation.add_fallback(
                    ElementFallback(
                        element=name,
                        from_method=method,
                        to_method=fallback_to,
                        cause=str(exc),
                    ),
                    self.recorder,
                )
        return None, "any"

    # -- content model per element --------------------------------------------

    def _wrap_optional(self, regex: Regex, saw_empty: bool) -> Regex:
        if saw_empty and not regex.nullable():
            return normalize(Opt(regex))
        return regex

    def _content_model(self, evidence: ElementEvidence) -> Children | Mixed | Empty | AnyContent:
        name = evidence.name
        sample = evidence.sample()
        has_children = evidence.nonempty_count > 0
        if evidence.has_text and has_children:
            self.report.method_used[name] = "mixed"
            return Mixed(names=tuple(sorted(evidence.child_alphabet)))
        if evidence.has_text:
            self.report.method_used[name] = "pcdata"
            self.report.text_types[name] = sniff_type(evidence.text_values)
            return Mixed(names=())
        if not has_children:
            self.report.method_used[name] = "empty"
            return Empty()
        regex, method = self._derive_children(
            name,
            evidence.nonempty_count,
            lambda chosen: self._learn_regex(name, sample, chosen),
        )
        if regex is None:
            self.report.method_used[name] = "any"
            return AnyContent()
        if self.numeric:
            # Numeric bounds read the distinct words, which the
            # fingerprint deliberately does not cover — annotation
            # therefore always runs fresh, on top of the cached core.
            if isinstance(sample, LearnerStates):
                raise _spilled_error("numeric", name)
            regex = annotate_numeric(regex, sample.distinct_words())
        regex = self._wrap_optional(regex, evidence.empty_count > 0)
        if contracts_enabled():
            check_content_model(regex, name)
        self.report.method_used[name] = method
        return Children(regex=regex)

    def _attlist(self, evidence: ElementEvidence) -> list[AttributeDef]:
        definitions: list[AttributeDef] = []
        for attribute in sorted(evidence.attribute_presence):
            always = (
                evidence.attribute_presence[attribute] == evidence.occurrences
            )
            sniffed = sniff_type(evidence.attribute_values.get(attribute, ()))
            # Everything below xs:string on the specificity ladder
            # (integers, dates, NMTOKENs, ...) is lexically an NMTOKEN.
            attribute_type = "CDATA" if sniffed == "xs:string" else "NMTOKEN"
            definitions.append(
                AttributeDef(
                    name=attribute,
                    attribute_type=attribute_type,
                    default="#REQUIRED" if always else "#IMPLIED",
                )
            )
        return definitions

    # -- the engine ----------------------------------------------------------

    def finalize(self, evidence: StreamingEvidence) -> Dtd:
        """The one finalize pass, over the evidence of any pipeline shape.

        Never rewrites ``evidence`` (the support filter reads through
        copies), so a session may finalize the same evidence again after
        more appends.
        """
        elements: Mapping[str, ElementEvidence] = evidence.elements
        if self.support_threshold > 0:
            with self.recorder.span("filter", threshold=self.support_threshold):
                elements = self._support_filtered(elements)
        dtd = Dtd(start=evidence.majority_root())
        for name in sorted(elements):
            element_evidence = elements[name]
            dtd.elements[name] = self._content_model(element_evidence)
            if self.infer_attributes and element_evidence.attribute_presence:
                dtd.attributes[name] = self._attlist(element_evidence)
        if self.recorder.enabled:
            samples = [element.sample() for element in elements.values()]
            bags = [sample for sample in samples if isinstance(sample, WordBag)]
            self.recorder.count(
                "evidence.words",
                sum(element.occurrences for element in elements.values()),
            )
            self.recorder.count(
                "evidence.distinct_words", sum(len(bag.counts) for bag in bags)
            )
            self.recorder.count("evidence.spills", len(samples) - len(bags))
        return dtd

    def _support_filtered(
        self, elements: Mapping[str, ElementEvidence]
    ) -> dict[str, ElementEvidence]:
        """Noise handling (Section 9): ``elements`` without the names
        mentioned in fewer than ``support_threshold`` parent sequences,
        corpus-wide, cut from every child word.

        Support counts read every bag, so a spilled element is a
        :class:`CorpusError` naming it.
        """
        support: Counter[str] = Counter()
        for name in sorted(elements):
            element = elements[name]
            if element.spilled is not None:
                raise _spilled_error("support_threshold", name)
            for word, count in element.child_sequences.distinct():
                for child in set(word):
                    support[child] += count
        noisy = {
            name
            for name, count in support.items()
            if count < self.support_threshold and name in elements
        }
        if self.recorder.enabled:
            self.recorder.count("filter.dropped_names", len(noisy))
        return {
            name: element.without(noisy) if noisy else element
            for name, element in elements.items()
            if name not in noisy
        }

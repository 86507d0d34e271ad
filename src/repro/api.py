"""The unified inference façade: one entry point for every pipeline.

Batch, sharded, checkpointed and session runs all go through one
function::

    from repro.api import InferenceConfig, infer

    result = infer(["corpus/a.xml", "corpus/b.xml"])
    print(result.dtd.render())

    result = infer("corpus/", config=InferenceConfig(
        method="idtd", jobs=4,
    ))

``infer`` accepts parsed :class:`~repro.xmlio.tree.Document` objects,
XML literals, file paths, directories (expanded to their sorted
``*.xml`` files), or any iterable mixing those.  The configuration is a
frozen keyword-only dataclass that rejects illegal values at
construction time, before any parsing starts.  Every option composes
with every pipeline shape.

Every shape builds its evidence in the one shard runner,
:func:`~repro.runtime.parallel.parallel_evidence` (through
:mod:`repro.ckpt` when checkpointing), which loads each item — path,
XML text or parsed document — through
:func:`~repro.runtime.resilience.load_document` and folds it into one
:class:`~repro.learning.evidence.StreamingEvidence`.  That loader and
:func:`validate` read every item through the one corpus reader,
:func:`~repro.xmlio.parser.read_document`, so a document that cannot be
read — malformed XML, bytes that are not UTF-8, a missing file — is a
:class:`~repro.errors.CorpusError` that starts with the same label
(the path, or ``<document #i>``) on every entry point.  A batch run is
one serial shard.  The config alone decides the bound on every shape:
each bag is capped at :data:`~repro.learning.evidence.WORD_CAP` unless
``numeric`` or ``support_threshold`` reads the words, which keeps the
bags whole.  Every shape then
runs the one engine pass,
:meth:`~repro.core.inference.DTDInferencer.finalize`, so the shapes
give byte-identical DTDs (property-tested in
``tests/integration/test_api.py`` and
``tests/property/test_config_product.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .contracts import contracts_enabled
from .core.inference import (
    DEFAULT_SPARSE_THRESHOLD,
    METHODS,
    DTDInferencer,
    InferenceReport,
    Method,
    validate_method,
)
from .errors import CorpusError, UsageError
from .obs.recorder import NULL_RECORDER, Recorder
from .xmlio.dtd import Dtd, parse_dtd
from .learning.evidence import StreamingEvidence
from .xmlio.parser import document_label, is_xml_text, read_document, read_text
from .xmlio.tree import Document
from .xmlio.validate import CompiledDtd, Violation

if TYPE_CHECKING:
    from .runtime.resilience import DegradationReport, FaultPlan
    from .xmlio.diff import ElementDiff

Source = Document | str | os.PathLike[str] | Iterable["Document | str | os.PathLike[str]"]

#: A DTD given as a parsed :class:`~repro.xmlio.dtd.Dtd`, DTD text
#: (anything whose first non-blank character is ``<``), or a file path.
DtdSource = Dtd | str | os.PathLike[str]

__all__ = [
    "AppendReceipt",
    "DiffConfig",
    "DiffResult",
    "DocumentValidation",
    "FaultPlan",
    "InferenceConfig",
    "InferenceResult",
    "InferenceSession",
    "METHODS",
    "ValidationConfig",
    "ValidationResult",
    "diff",
    "infer",
    "validate",
]


def __getattr__(name: str) -> object:
    # FaultPlan, the type of InferenceConfig.faults, is the runtime's:
    # it loads on first use, so importing the façade loads nothing more.
    if name == "FaultPlan":
        from .runtime.resilience import FaultPlan

        return FaultPlan
    # lint: allow R002 — module attribute protocol, getattr() catches it
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _env_faults() -> FaultPlan | None:
    """The ``faults`` default: the plan in ``REPRO_FAULTS``, if any."""
    from .runtime.resilience import FaultPlan

    return FaultPlan.from_env()


@dataclass(frozen=True, kw_only=True)
class InferenceConfig:
    """Everything that shapes an inference run, validated up front.

    Parameters:
        method: per-element learner — ``"idtd"`` (SOREs), ``"crx"``
            (CHAREs), ``"kore"`` (k-occurrence REs for repeated
            symbols), ``"sire"`` (SOREs with interleaving ``&``) or
            ``"auto"`` (the paper's sparse/abundant switch between the
            two paper learners; the extensions are opt-in).
        jobs: split the corpus into this many contiguous shards, fold
            them on up to ``os.cpu_count()`` worker processes and merge
            their evidence (map-reduce).  The shard count is the same on
            every host; a 1-CPU host, a corpus under
            :data:`~repro.runtime.parallel.PROCESS_CORPUS_FLOOR`
            documents or parsed documents (which never cross a process
            boundary) fold the shards in-process.  ``None`` means one
            shard, except with ``state_dir``, where it means one shard
            per CPU where the pool runs, else one.
        numeric: tighten ``+``/``*`` to numerical bounds (Section 9).
            Reads each element's distinct child words, so the run keeps
            every bag whole instead of capping it at
            :data:`~repro.learning.evidence.WORD_CAP`.
        support_threshold: drop element names seen in fewer than this
            many parent sequences (noise handling, Section 9), never the
            start element.  Counts every element's child words, so above
            0 the run keeps every bag whole, as ``numeric`` does.
        sparse_threshold: the ``auto``-method cut-over sample size.
        infer_attributes: also generate ``<!ATTLIST>`` declarations.
        cache: memoize the per-element finalize step in the
            process-wide fingerprint-keyed LRU
            (:mod:`repro.runtime.cache`).  Hits are byte-identical to
            fresh derivations; disable to force every derivation fresh.
        recorder: instrumentation sink (:mod:`repro.obs`); the default
            no-op recorder costs nearly nothing.
        max_quarantine: the run's error budget, the most unreadable
            documents it may quarantine.  ``0`` (the default) is
            strict: the first bad document raises its own error, a
            learner failure propagates and a shard that keeps timing
            out raises :class:`~repro.errors.ShardTimeout`.  ``N > 0``
            quarantines bad documents (recording path, cause and
            offset), infers a partial DTD from the rest and aborts with
            :class:`~repro.errors.QuarantineExceeded` past ``N``; it
            also lets failed learners fall back and timed-out shards
            reshard.  ``None`` does the same with no cap.  Either way
            the result's
            :class:`~repro.runtime.resilience.DegradationReport` says
            what the run skipped, retried or weakened.
        shard_deadline: per-shard processing deadline in seconds,
            enforced only on shards folded on the process pool (shards
            the driver folds have none); breaches are retried and, in
            strict mode, eventually raise
            :class:`~repro.errors.ShardTimeout`.
        faults: a deterministic fault-injection plan, a
            :class:`~repro.runtime.resilience.FaultPlan` or ``None``
            (no plan).  The default is the plan in the ``REPRO_FAULTS``
            environment variable (JSON, see
            :meth:`~repro.runtime.resilience.FaultPlan.from_json`), or
            ``None`` when it is unset, so whole test suites can run
            under a canned plan.
        state_dir: checkpoint the run into this directory
            (:mod:`repro.ckpt`): per-shard evidence is persisted
            durably as they complete, together with a content-hash
            manifest of the corpus.  Requires file paths (XML text and
            parsed documents are refused).
        resume: with ``state_dir``, reuse every shard of a previous run
            in that directory whose documents are unchanged — crash
            recovery and incremental re-runs over edited corpora.  The
            result is byte-identical to a fresh run either way.
    """

    method: Method = "auto"
    jobs: int | None = None
    numeric: bool = False
    support_threshold: int = 0
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD
    infer_attributes: bool = True
    cache: bool = True
    recorder: Recorder = NULL_RECORDER
    max_quarantine: int | None = 0
    shard_deadline: float | None = None
    faults: FaultPlan | None = field(default_factory=_env_faults)
    state_dir: str | os.PathLike[str] | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        validate_method(self.method)
        if self.jobs is not None and self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        if self.support_threshold < 0:
            raise UsageError(
                f"support_threshold must be >= 0, got {self.support_threshold}"
            )
        if self.sparse_threshold < 0:
            raise UsageError(
                f"sparse_threshold must be >= 0, got {self.sparse_threshold}"
            )
        cap = self.max_quarantine
        if cap is not None and (type(cap) is not int or cap < 0):
            raise UsageError(
                f"max_quarantine must be an integer >= 0 or None, got {cap!r}"
            )
        if self.shard_deadline is not None and self.shard_deadline <= 0:
            raise UsageError(
                f"shard_deadline must be positive, got {self.shard_deadline}"
            )
        from .runtime.resilience import FaultPlan

        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise UsageError(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__} (FaultPlan.from_mapping and "
                "FaultPlan.from_json build one)"
            )
        if self.resume and self.state_dir is None:
            raise UsageError(
                "resume continues a checkpointed run: it requires state_dir "
                "(--state-dir) to name the run directory"
            )

    @property
    def effective_streaming(self) -> bool:
        """Whether the run names a shard plan (``jobs`` or ``state_dir``)."""
        return self.jobs is not None or self.state_dir is not None


@dataclass
class InferenceResult:
    """What an inference run produced, plus how it got there.

    ``degradation`` is the run's report of what it quarantined, retried
    or weakened; ``degradation.degraded`` says whether anything was.
    """

    dtd: Dtd
    report: InferenceReport
    config: InferenceConfig
    degradation: DegradationReport
    recorder: Recorder = field(default=NULL_RECORDER, repr=False)

    def render(self) -> str:
        """The DTD as text."""
        with self.recorder.span("emit", format="dtd"):
            return self.dtd.render()

    def to_xsd(self) -> str:
        """The schema as XSD, with sniffed simple types (Section 9)."""
        from .xmlio.xsd import dtd_to_xsd

        with self.recorder.span("emit", format="xsd"):
            return dtd_to_xsd(self.dtd, text_types=self.report.text_types)


def _expand_source(source: Source) -> list[Document | str]:
    """Flatten ``source`` into a list of Documents, XML text and paths.

    Accepts a parsed Document, XML text (anything whose first non-blank
    character is ``<``), a file path, a directory (expanded to its
    sorted ``*.xml`` files), or an iterable mixing all of those.
    Nothing is read here: :func:`~repro.xmlio.parser.read_document`
    reads every item, under the run's error policy when inferring.
    """
    if isinstance(source, Document) or is_xml_text(source):
        return [source]
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        # Only paths that plausibly name a directory pay the stat call;
        # the common case (a .xml file path) goes straight through.
        if not path.endswith(".xml") and os.path.isdir(path):
            found = sorted(str(child) for child in Path(path).glob("*.xml"))
            if not found:
                raise UsageError(f"no *.xml files in directory {path}")
            return found
        return [path]
    if isinstance(source, Iterable):
        items: list[Document | str] = []
        for element in source:
            items.extend(_expand_source(element))
        return items
    raise UsageError(
        f"cannot infer from {type(source).__name__}: expected Documents, "
        "XML strings, paths, directories, or an iterable of those"
    )


def _require_surviving_documents(degradation: DegradationReport, total: int) -> None:
    """Quarantining *every* document is failure, not degradation."""
    if len(degradation.quarantined) >= total:
        raise CorpusError(
            f"all {total} documents were quarantined "
            f"(first: {degradation.quarantined[0].path}: "
            f"{degradation.quarantined[0].cause}); nothing left to infer from"
        )


def _bounded(config: InferenceConfig) -> bool:
    """Whether ``config`` caps bags at ``WORD_CAP``: not if an option reads the words."""
    return not config.numeric and config.support_threshold == 0


def _evidence(
    items: list[Document | str],
    config: InferenceConfig,
    degradation: DegradationReport,
    index_offset: int = 0,
) -> StreamingEvidence:
    """Fold ``items`` into evidence under ``config``, reporting to ``degradation``.

    The evidence half of :func:`infer`, shared with
    :meth:`InferenceSession.append`: one call into the shard runner
    (:func:`~repro.runtime.parallel.parallel_evidence`), through
    :mod:`repro.ckpt` when checkpointing, under the config's bound and
    fault plan and ``degradation``'s error budget.  Without ``jobs``
    the run is one shard.  ``index_offset`` shifts fault-plan document positions so a
    session's plan sees corpus-global positions across appends.
    """
    if config.state_dir is not None:
        paths = [
            item
            for item in items
            if isinstance(item, str) and not is_xml_text(item)
        ]
        if len(paths) < len(items):
            raise UsageError(
                "state_dir checkpoints content-hashed files; "
                "already-parsed documents and XML literals have no stable "
                "identity on disk — pass file paths or drop state_dir"
            )
        from .ckpt.runner import checkpointed_evidence

        return checkpointed_evidence(
            paths,
            state_dir=config.state_dir,
            resume=config.resume,
            jobs=config.jobs,
            recorder=config.recorder,
            fault_plan=config.faults,
            deadline=config.shard_deadline,
            report=degradation,
            bounded=_bounded(config),
        )
    from .runtime.parallel import parallel_evidence

    return parallel_evidence(
        items,
        config.jobs or 1,
        config.recorder,
        index_offset=index_offset,
        faults=config.faults,
        deadline=config.shard_deadline,
        report=degradation,
        bounded=_bounded(config),
    )


def _result(
    config: InferenceConfig,
    evidence: StreamingEvidence,
    degradation: DegradationReport,
) -> InferenceResult:
    """Finalize ``evidence`` into a result: the tail every run shares.

    Builds the engine (with the process-wide content-model cache unless
    ``config.cache`` is off), checks the degradation contract under
    ``REPRO_CHECKS=1`` and, with a live recorder, counts the elements.
    """
    recorder = config.recorder
    if recorder.enabled:
        recorder.count("elements", len(evidence.elements))
    content_model_cache = None
    if config.cache:
        from .runtime.cache import global_content_model_cache

        content_model_cache = global_content_model_cache()
    inferencer = DTDInferencer(
        method=config.method,
        sparse_threshold=config.sparse_threshold,
        numeric=config.numeric,
        support_threshold=config.support_threshold,
        infer_attributes=config.infer_attributes,
        recorder=recorder,
        cache=content_model_cache,
        fault_plan=config.faults,
        # Only a tolerant report lets content models degrade down the
        # SORE → CHARE → ANY ladder; a strict one fails hard.
        degradation=degradation,
    )
    dtd = inferencer.finalize(evidence)
    if contracts_enabled():
        from .contracts import check_degradation_report

        check_degradation_report(degradation, dtd)
    return InferenceResult(
        dtd=dtd,
        report=inferencer.report,
        config=config,
        recorder=recorder,
        degradation=degradation,
    )


def infer(
    source: Source, config: InferenceConfig | None = None
) -> InferenceResult:
    """Infer a DTD from ``source`` under ``config``.

    This is *the* entry point: batch, sharded and checkpointed, all
    learner choices.  Returns an
    :class:`InferenceResult`; ``result.dtd`` is byte-identical across
    pipeline shapes.
    """
    if config is None:
        config = InferenceConfig()
    items = _expand_source(source)
    if not items:
        raise UsageError("no documents to infer from")
    from .runtime.resilience import DegradationReport

    degradation = DegradationReport(max_quarantine=config.max_quarantine)
    evidence = _evidence(items, config, degradation)
    _require_surviving_documents(degradation, len(items))
    return _result(config, evidence, degradation)


def _language_cache_stats(recorder: Recorder) -> dict[str, dict[str, int]]:
    """The regex language caches' counters, when ``recorder`` is live."""
    if not recorder.enabled:
        return {}
    from .regex.language import language_cache_info

    return language_cache_info()


def _count_language_caches(
    recorder: Recorder, before: dict[str, dict[str, int]]
) -> None:
    """Count ``cache.language.<cache>.{hits,misses}`` since ``before``.

    Called around the work that consults the caches: validation
    compiles content models through ``automaton``, and diff's
    counterexample search builds its engines through it too.  Another
    thread consulting them meanwhile is counted as well.
    """
    if not recorder.enabled:
        return
    from .regex.language import language_cache_info

    for cache, stats in language_cache_info().items():
        for key in ("hits", "misses"):
            delta = stats[key] - before[cache][key]
            if delta:
                recorder.count(f"cache.language.{cache}.{key}", delta)


def _coerce_dtd(source: DtdSource, *, role: str = "dtd") -> Dtd:
    """A :class:`Dtd` from a parsed object, DTD text, or a file path."""
    if isinstance(source, Dtd):
        return source
    if is_xml_text(source):
        return parse_dtd(source)
    if isinstance(source, (str, os.PathLike)):
        return parse_dtd(read_text(os.fspath(source)))
    raise UsageError(
        f"cannot use {type(source).__name__} as a {role}: expected a Dtd, "
        "DTD text, or a file path"
    )


# -- validation façade --------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ValidationConfig:
    """Everything that shapes a validation run.

    ``max_violations`` caps how many violations are *kept* per
    document; the per-document count is always exact.  ``None`` keeps
    them all.
    """

    max_violations: int | None = None
    recorder: Recorder = NULL_RECORDER

    def __post_init__(self) -> None:
        if self.max_violations is not None and self.max_violations < 0:
            raise UsageError(
                f"max_violations must be >= 0, got {self.max_violations}"
            )


@dataclass(frozen=True)
class DocumentValidation:
    """One document's verdict against the DTD.

    ``source`` is the document's path, or ``<document #i>`` for a
    literal or a parsed document at corpus position ``i``.
    ``violations`` holds at most ``max_violations`` entries;
    ``violation_count`` is the true total (so callers can report
    "INVALID (n violations)" without keeping all n).
    """

    source: str
    violations: tuple[Violation, ...]
    violation_count: int

    @property
    def valid(self) -> bool:
        return self.violation_count == 0

    @property
    def truncated(self) -> bool:
        """Whether ``violations`` was capped below ``violation_count``."""
        return len(self.violations) < self.violation_count

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "valid": self.valid,
            "violation_count": self.violation_count,
            "truncated": self.truncated,
            "violations": [
                {
                    "path": violation.path,
                    "element": violation.element,
                    "kind": violation.kind,
                    "detail": violation.detail,
                }
                for violation in self.violations
            ],
        }


@dataclass
class ValidationResult:
    """What a validation run produced, per document and overall."""

    documents: tuple[DocumentValidation, ...]
    dtd: Dtd
    config: ValidationConfig

    @property
    def valid(self) -> bool:
        return all(document.valid for document in self.documents)

    @property
    def total_violations(self) -> int:
        return sum(document.violation_count for document in self.documents)

    def to_dict(self) -> dict[str, object]:
        return {
            "valid": self.valid,
            "total_violations": self.total_violations,
            "documents": [document.to_dict() for document in self.documents],
        }


def validate(
    source: Source, dtd: DtdSource, config: ValidationConfig | None = None
) -> ValidationResult:
    """Validate documents against a DTD.

    ``source`` accepts everything :func:`infer` accepts (documents,
    XML literals, paths, directories, iterables); ``dtd`` accepts a
    parsed :class:`~repro.xmlio.dtd.Dtd`, DTD text, or a ``.dtd``
    path.  An invalid document does not stop the run; one that cannot
    be read raises a :class:`~repro.errors.CorpusError` that starts
    with its :func:`~repro.xmlio.parser.document_label`, the same label
    as its ``source``.  Paths and literals are scanned into element
    records by :func:`~repro.xmlio.parser.read_document`, without
    importing :mod:`repro.runtime`, and the DTD is compiled once per call
    (:class:`~repro.xmlio.validate.CompiledDtd`), each content model on
    first use.
    """
    if config is None:
        config = ValidationConfig()
    recorder = config.recorder
    schema = _coerce_dtd(dtd)
    items = _expand_source(source)
    if not items:
        raise UsageError("no documents to validate")
    compiled = CompiledDtd(schema)
    caches_before = _language_cache_stats(recorder)
    results: list[DocumentValidation] = []
    for index, item in enumerate(items):
        label = document_label(item, index)
        document = read_document(item, index, recorder)
        with recorder.span("validate", file=label):
            violations = compiled.violations(document)
        if recorder.enabled and violations:
            recorder.count("validate.violations", len(violations))
        kept = violations
        if config.max_violations is not None:
            kept = violations[: config.max_violations]
        results.append(
            DocumentValidation(
                source=label,
                violations=tuple(kept),
                violation_count=len(violations),
            )
        )
    if recorder.enabled:
        recorder.count("validate.models_compiled", compiled.models_compiled)
        recorder.count("validate.transitions", compiled.transitions)
        _count_language_caches(recorder, caches_before)
    return ValidationResult(
        documents=tuple(results), dtd=schema, config=config
    )


# -- diff façade --------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class DiffConfig:
    """Everything that shapes a schema comparison.

    ``include_equal`` keeps ``equal``-relation entries in the result
    (by default only differences are reported, matching the CLI).
    """

    include_equal: bool = False
    recorder: Recorder = NULL_RECORDER


@dataclass
class DiffResult:
    """How two DTDs relate, element by element."""

    entries: tuple[ElementDiff, ...]
    config: DiffConfig

    @property
    def equivalent(self) -> bool:
        """Whether every element's content model is language-equal."""
        return all(entry.relation == "equal" for entry in self.entries)

    def to_dict(self) -> dict[str, object]:
        return {
            "equivalent": self.equivalent,
            "entries": [
                {
                    "element": entry.element,
                    "relation": entry.relation,
                    "only_in_old": (
                        list(entry.only_in_old)
                        if entry.only_in_old is not None
                        else None
                    ),
                    "only_in_new": (
                        list(entry.only_in_new)
                        if entry.only_in_new is not None
                        else None
                    ),
                }
                for entry in self.entries
            ],
        }


def diff(
    old: DtdSource, new: DtdSource, config: DiffConfig | None = None
) -> DiffResult:
    """Compare two DTDs by exact language inclusion, per element.

    Each argument accepts a parsed :class:`~repro.xmlio.dtd.Dtd`, DTD
    text, or a file path.  Entries classify the *new* model's language
    relative to the *old* one (``equal`` / ``tighter`` / ``looser`` /
    ``incomparable`` / ``missing-old`` / ``missing-new``) with witness
    words for each strict difference.
    """
    from .xmlio.diff import iter_diffs

    if config is None:
        config = DiffConfig()
    recorder = config.recorder
    old_dtd = _coerce_dtd(old, role="old DTD")
    new_dtd = _coerce_dtd(new, role="new DTD")
    caches_before = _language_cache_stats(recorder)
    with recorder.span("diff"):
        entries = [
            entry
            for entry in iter_diffs(old_dtd, new_dtd)
            if config.include_equal or entry.relation != "equal"
        ]
    if recorder.enabled:
        recorder.count("diff.entries", len(entries))
        _count_language_caches(recorder, caches_before)
    return DiffResult(entries=tuple(entries), config=config)


# -- incremental sessions -----------------------------------------------------


@dataclass(frozen=True)
class AppendReceipt:
    """What one :meth:`InferenceSession.append` call folded in."""

    documents: int
    total_documents: int
    elements: int


class InferenceSession:
    """A long-lived inference state that grows one append at a time.

    Each :meth:`append` extracts evidence from the new
    documents and folds it into the session's accumulated per-element
    learner states via the same merge monoid the sharded pipeline
    uses; because contiguous-chunk merges reproduce the sequential
    fold exactly (reservoirs included), :meth:`current_dtd` is
    byte-identical to a fresh :func:`infer` over everything appended
    so far, at any point (ALGORITHMS.md §12).

    The session folds under the config's bound, as :func:`infer` does;
    ``numeric`` and ``support_threshold`` read each element's whole bag
    at every :meth:`current_dtd` and never rewrite the session state.

    Under ``REPRO_CHECKS=1`` every append re-verifies merge
    commutativity between the accumulated state and the new chunk.

    Instances are not thread-safe; callers that share a session across
    threads (:mod:`repro.serve` does) must serialize access.  A failed
    append leaves the session at its pre-append state.
    """

    def __init__(self, config: InferenceConfig | None = None) -> None:
        if config is None:
            config = InferenceConfig()
        if config.state_dir is not None:
            raise UsageError(
                "state_dir checkpoints one-shot corpus runs; sessions keep "
                "their state in memory across appends — use repro.api.infer "
                "with state_dir for resumable runs"
            )
        self.config = config
        self._evidence = StreamingEvidence(bounded=_bounded(config))
        self._documents = 0
        self._closed = False
        from .runtime.resilience import DegradationReport

        self._degradation = DegradationReport(max_quarantine=config.max_quarantine)
        self._shard_base = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def total_documents(self) -> int:
        """How many documents have been appended (quarantined included)."""
        return self._documents

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session; further appends/queries raise. Idempotent."""
        self._closed = True

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise UsageError("session is closed")

    # -- the monoid fold -------------------------------------------------------

    def append(self, source: Source) -> AppendReceipt:
        """Fold more documents into the session state.

        ``source`` accepts everything :func:`infer` accepts, and goes
        through the same shard runner (and error policy) as a one-shot
        run.  The error budget is session-wide: the append runs against
        a copy of the session's report, which it replaces on success.
        """
        self._require_open()
        items = _expand_source(source)
        if not items:
            raise UsageError("no documents to append")
        report = self._degradation.copy()
        known = len(report.retried_shards)
        shard = _evidence(items, self.config, report, index_offset=self._documents)
        if contracts_enabled():
            from .contracts import check_merge_commutative

            check_merge_commutative(self._evidence, shard)
        self._evidence.merge(shard)
        self._rebase_retries(report, known)
        self._degradation = report
        self._documents += len(items)
        return AppendReceipt(
            documents=len(items),
            total_documents=self._documents,
            elements=len(self._evidence.elements),
        )

    def _rebase_retries(self, report: DegradationReport, known: int) -> None:
        """Rebase an append's retries, those past ``known`` in ``report``.

        Each append numbers its shards from 0; the rebase puts them on a
        session-global sequence so ``retried_shards`` stays unique
        across appends, as the report contract requires.
        """
        base = self._shard_base
        fresh = report.retried_shards[known:]
        report.retried_shards[known:] = [replace(r, shard=base + r.shard) for r in fresh]
        self._shard_base = max([base, *(base + r.shard + 1 for r in fresh)])

    def current_dtd(self) -> InferenceResult:
        """The DTD for everything appended so far.

        Byte-identical to ``infer(<all appended documents>)`` with the
        session's config.  Does not disturb the session state: appends
        may continue afterwards.
        """
        self._require_open()
        if self._documents == 0:
            raise UsageError(
                "session has no documents: append() before current_dtd()"
            )
        _require_surviving_documents(self._degradation, self._documents)
        # Finalize against a *copy* of the session report: learner
        # fallbacks belong to one derivation, and repeated queries must
        # not accumulate duplicates in the session-wide report.
        return _result(self.config, self._evidence, self._degradation.copy())

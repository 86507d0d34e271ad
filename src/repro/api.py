"""The unified inference façade: one entry point for every pipeline.

Batch, streaming, sharded and checkpointed runs all go through one
function::

    from repro.api import InferenceConfig, infer

    result = infer(["corpus/a.xml", "corpus/b.xml"])
    print(result.dtd.render())

    result = infer("corpus/", config=InferenceConfig(
        method="idtd", streaming=True, jobs=4,
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
:class:`~repro.learning.evidence.StreamingEvidence`.  A batch run is
one serial shard whose bags are kept whole; the other shapes bound
them by :data:`~repro.learning.evidence.WORD_CAP`.  Every shape then
runs the one engine pass,
:meth:`~repro.core.inference.DTDInferencer.finalize`, so the shapes
give byte-identical DTDs (property-tested in
``tests/integration/test_api.py`` and
``tests/property/test_config_product.py``).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable, Mapping
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
from .xmlio.diff import ElementDiff, iter_diffs
from .xmlio.dtd import Dtd, parse_dtd
from .learning.evidence import StreamingEvidence
from .xmlio.parser import is_xml_text, parse_document, parse_file
from .xmlio.tree import Document
from .xmlio.validate import Violation
from .xmlio.validate import validate as _validate_document
from .xmlio.xsd import dtd_to_xsd

if TYPE_CHECKING:
    from .runtime.resilience import DegradationReport, FaultPlan

Source = Document | str | os.PathLike[str] | Iterable["Document | str | os.PathLike[str]"]

#: A DTD given as a parsed :class:`~repro.xmlio.dtd.Dtd`, DTD text
#: (anything whose first non-blank character is ``<``), or a file path.
DtdSource = Dtd | str | os.PathLike[str]

__all__ = [
    "AppendReceipt",
    "DiffConfig",
    "DiffResult",
    "DocumentValidation",
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


@dataclass(frozen=True, kw_only=True)
class InferenceConfig:
    """Everything that shapes an inference run, validated up front.

    Parameters:
        method: per-element learner — ``"idtd"`` (SOREs), ``"crx"``
            (CHAREs), ``"kore"`` (k-occurrence REs for repeated
            symbols), ``"sire"`` (SOREs with interleaving ``&``) or
            ``"auto"`` (the paper's sparse/abundant switch between the
            two paper learners; the extensions are opt-in).
        streaming: bound each element's bag of distinct child words by
            :data:`~repro.learning.evidence.WORD_CAP`, spilling past it
            into mergeable learner states (memory bounded by the schema,
            not the corpus).
        jobs: shard the corpus across this many worker processes and
            merge their evidence (map-reduce; implies streaming).
            Ships file paths or XML text, so above 1 it refuses parsed
            documents.  ``None`` means in-process.
        numeric: tighten ``+``/``*`` to numerical bounds (Section 9).
            Reads each element's distinct child words, so on the
            streaming path an element whose bag spilled past
            :data:`~repro.learning.evidence.WORD_CAP` raises
            :class:`~repro.errors.CorpusError`.
        support_threshold: drop element names seen in fewer than this
            many parent sequences (noise handling, Section 9).  Counts
            every element's child words, so it runs on every shape and
            raises :class:`~repro.errors.CorpusError` naming the first
            element whose bag spilled.
        sparse_threshold: the ``auto``-method cut-over sample size.
        infer_attributes: also generate ``<!ATTLIST>`` declarations.
        cache: memoize the per-element finalize step in the
            process-wide fingerprint-keyed LRU
            (:mod:`repro.runtime.cache`).  Hits are byte-identical to
            fresh derivations; disable to force every derivation fresh.
        backend: worker-pool choice for sharded extraction —
            ``"auto"`` (cost model picks serial/thread/process from
            corpus size and CPUs), or an explicit ``"serial"``,
            ``"thread"``, ``"process"``.  Only meaningful with
            streaming/jobs.
        recorder: instrumentation sink (:mod:`repro.obs`); the default
            no-op recorder costs nearly nothing.
        on_error: ``"strict"`` (the default) aborts on the first bad
            document, exactly as inference always has; ``"skip"``
            quarantines unparseable documents (recording path, cause
            and offset), infers a partial DTD from the rest, and
            attaches a machine-readable
            :class:`~repro.runtime.resilience.DegradationReport` to
            the result.
        max_quarantine: with ``on_error="skip"``, the most documents
            that may be quarantined before the run aborts with
            :class:`~repro.errors.QuarantineExceeded` (``None``: no
            cap).
        shard_deadline: per-shard processing deadline in seconds for
            pooled extraction; breaches are retried and, in strict
            mode, eventually raise
            :class:`~repro.errors.ShardTimeout`.  Best-effort on
            thread pools (a hung thread cannot be interrupted).
        faults: a deterministic fault-injection plan — a
            :class:`~repro.runtime.resilience.FaultPlan`, a mapping or
            JSON string of its fields, or ``None``.  When ``None``,
            the ``REPRO_FAULTS`` environment variable is consulted
            (same JSON shape), so whole test suites can run under a
            canned plan.
        state_dir: checkpoint the run into this directory
            (:mod:`repro.ckpt`): per-shard evidence is persisted
            durably as they complete, together with a content-hash
            manifest of the corpus.  Implies streaming and requires
            file paths (XML text and parsed documents are refused).
        resume: with ``state_dir``, reuse every shard of a previous run
            in that directory whose documents are unchanged — crash
            recovery and incremental re-runs over edited corpora.  The
            result is byte-identical to a fresh run either way.
    """

    method: Method = "auto"
    streaming: bool = False
    jobs: int | None = None
    numeric: bool = False
    support_threshold: int = 0
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD
    infer_attributes: bool = True
    cache: bool = True
    backend: str = "auto"
    recorder: Recorder = NULL_RECORDER
    on_error: str = "strict"
    max_quarantine: int | None = None
    shard_deadline: float | None = None
    faults: "FaultPlan | Mapping[str, object] | str | None" = None
    state_dir: str | os.PathLike[str] | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        validate_method(self.method)
        if self.jobs is not None and self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        from .runtime.parallel import BACKENDS

        if self.backend not in BACKENDS:
            raise UsageError(
                f"unknown backend {self.backend!r}: expected one of "
                f"{', '.join(BACKENDS)}"
            )
        if self.backend != "auto" and not self.effective_streaming:
            raise UsageError(
                "backend= selects the sharded-extraction pool: combine it "
                "with streaming=True or jobs= (batch inference is always "
                "serial)"
            )
        if self.support_threshold < 0:
            raise UsageError(
                f"support_threshold must be >= 0, got {self.support_threshold}"
            )
        if self.sparse_threshold < 0:
            raise UsageError(
                f"sparse_threshold must be >= 0, got {self.sparse_threshold}"
            )
        if self.on_error not in ("strict", "skip"):
            raise UsageError(
                f"unknown on_error mode {self.on_error!r}: expected 'strict' "
                "or 'skip'"
            )
        if self.max_quarantine is not None:
            if self.on_error != "skip":
                raise UsageError(
                    "max_quarantine caps quarantined documents, which only "
                    "exist with on_error='skip'"
                )
            if self.max_quarantine < 0:
                raise UsageError(
                    f"max_quarantine must be >= 0, got {self.max_quarantine}"
                )
        if self.shard_deadline is not None and self.shard_deadline <= 0:
            raise UsageError(
                f"shard_deadline must be positive, got {self.shard_deadline}"
            )
        from .runtime.resilience import FaultPlan

        faults = self.faults
        if faults is None:
            faults = FaultPlan.from_env()
        elif isinstance(faults, str):
            faults = FaultPlan.from_json(faults)
        elif isinstance(faults, Mapping):
            faults = FaultPlan.from_mapping(faults)
        elif not isinstance(faults, FaultPlan):
            raise UsageError(
                f"faults must be a FaultPlan, a mapping, JSON text or None, "
                f"got {type(faults).__name__}"
            )
        if faults is not None and not faults:
            faults = None  # an all-empty plan injects nothing
        object.__setattr__(self, "faults", faults)
        if self.resume and self.state_dir is None:
            raise UsageError(
                "resume continues a checkpointed run: it requires state_dir "
                "(--state-dir) to name the run directory"
            )

    @property
    def effective_streaming(self) -> bool:
        """Whether the run uses the streaming pipeline (jobs implies it)."""
        return (
            self.streaming or self.jobs is not None or self.state_dir is not None
        )

    @property
    def resilient(self) -> bool:
        """Whether the run reports its degradation.

        True for ``on_error="skip"``, an active fault plan, or a shard
        deadline: the result then carries a
        :class:`~repro.runtime.resilience.DegradationReport`.  When
        False — the default — ``InferenceResult.degradation`` is None.
        """
        return (
            self.on_error == "skip"
            or self.faults is not None
            or self.shard_deadline is not None
        )


@dataclass
class InferenceResult:
    """What an inference run produced, plus how it got there.

    ``degradation`` is ``None`` unless the resilient runtime ran
    (``on_error="skip"``, a fault plan, or a shard deadline); when
    present, ``degradation.degraded`` says whether anything was
    actually skipped, retried or weakened.
    """

    dtd: Dtd
    report: InferenceReport
    config: InferenceConfig
    recorder: Recorder = field(default=NULL_RECORDER, repr=False)
    degradation: "DegradationReport | None" = None

    def render(self) -> str:
        """The DTD as text."""
        with self.recorder.span("emit", format="dtd"):
            return self.dtd.render()

    def to_xsd(self) -> str:
        """The schema as XSD, with sniffed simple types (Section 9)."""
        with self.recorder.span("emit", format="xsd"):
            return dtd_to_xsd(self.dtd, text_types=self.report.text_types)


def _expand_source(source: Source) -> list[Document | str]:
    """Flatten ``source`` into a list of Documents, XML text and paths.

    Accepts a parsed Document, XML text (anything whose first non-blank
    character is ``<``), a file path, a directory (expanded to its
    sorted ``*.xml`` files), or an iterable mixing all of those.
    Nothing is parsed here: :func:`~repro.runtime.resilience.load_document`
    parses every item under the run's error policy.
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


def _require_surviving_documents(
    degradation: "DegradationReport | None", total: int
) -> None:
    """Quarantining *every* document is failure, not degradation."""
    if degradation is not None and len(degradation.quarantined) >= total:
        raise CorpusError(
            f"all {total} documents were quarantined "
            f"(first: {degradation.quarantined[0].path}: "
            f"{degradation.quarantined[0].cause}); nothing left to infer from"
        )


def _evidence(
    items: list[Document | str],
    config: InferenceConfig,
    *,
    degradation: "DegradationReport | None",
    fault_plan: "FaultPlan | None",
    max_quarantine: int | None,
    index_offset: int = 0,
) -> StreamingEvidence:
    """Fold ``items`` into evidence under ``config``.

    The evidence half of :func:`infer`, shared with
    :meth:`InferenceSession.append`: one call into the shard runner
    (:func:`~repro.runtime.parallel.parallel_evidence`), through
    :mod:`repro.ckpt` when checkpointing.  A batch config is one serial
    shard with whole bags; parsed documents fold on the serial backend.
    ``index_offset`` shifts fault-plan document positions so a
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
            backend=config.backend,
            recorder=config.recorder,
            fault_plan=fault_plan,
            on_error=config.on_error,
            max_quarantine=max_quarantine,
            deadline=config.shard_deadline,
            report=degradation,
        )
    parsed = any(isinstance(item, Document) for item in items)
    if parsed and config.jobs is not None and config.jobs > 1:
        raise UsageError(
            "jobs > 1 ships file paths and XML text to worker processes; "
            "already-parsed documents cannot be shipped — pass paths or "
            "XML text, or drop jobs"
        )
    from .runtime.parallel import parallel_evidence

    streaming = config.effective_streaming
    return parallel_evidence(
        items,
        config.jobs if streaming else 1,
        "serial" if parsed else config.backend,
        config.recorder,
        index_offset=index_offset,
        faults=fault_plan,
        on_error=config.on_error,
        max_quarantine=max_quarantine,
        deadline=config.shard_deadline,
        report=degradation,
        bounded=streaming,
    )


def _result(
    config: InferenceConfig,
    evidence: StreamingEvidence,
    fault_plan: "FaultPlan | None",
    degradation: "DegradationReport | None",
) -> InferenceResult:
    """Finalize ``evidence`` into a result: the tail every run shares.

    Builds the engine (with the process-wide content-model cache unless
    ``config.cache`` is off), checks the degradation contract under
    ``REPRO_CHECKS=1`` and, with a live recorder, counts the elements and
    the regex language caches' hits and misses.
    """
    recorder = config.recorder
    from .regex.language import language_cache_info

    language_before = language_cache_info() if recorder.enabled else {}
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
        fault_plan=fault_plan,
        # Strict mode fails hard on learner faults; only skip mode may
        # degrade content models down the SORE → CHARE → ANY ladder.
        degradation=degradation if config.on_error == "skip" else None,
    )
    dtd = inferencer.finalize(evidence)
    if degradation is not None and contracts_enabled():
        from .contracts import check_degradation_report

        check_degradation_report(degradation, dtd)
    if recorder.enabled:
        for cache_name, stats in language_cache_info().items():
            for key in ("hits", "misses"):
                delta = stats[key] - language_before[cache_name][key]
                if delta:
                    recorder.count(f"cache.language.{cache_name}.{key}", delta)
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

    This is *the* entry point: batch and streaming, serial and
    sharded, all learner choices.  Returns an
    :class:`InferenceResult`; ``result.dtd`` is byte-identical across
    pipeline shapes.
    """
    if config is None:
        config = InferenceConfig()
    degradation: DegradationReport | None = None
    fault_plan: FaultPlan | None = None
    if config.resilient:
        from .runtime.resilience import DegradationReport

        degradation = DegradationReport()
        # __post_init__ normalized faults to FaultPlan | None.
        fault_plan = config.faults  # type: ignore[assignment]
    items = _expand_source(source)
    if not items:
        raise UsageError("no documents to infer from")
    evidence = _evidence(
        items,
        config,
        degradation=degradation,
        fault_plan=fault_plan,
        max_quarantine=config.max_quarantine,
    )
    _require_surviving_documents(degradation, len(items))
    return _result(config, evidence, fault_plan, degradation)


def _coerce_dtd(source: DtdSource, *, role: str = "dtd") -> Dtd:
    """A :class:`Dtd` from a parsed object, DTD text, or a file path."""
    if isinstance(source, Dtd):
        return source
    if is_xml_text(source):
        return parse_dtd(source)
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"cannot read {role} {path}: {exc}") from exc
        return parse_dtd(text)
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
    path.  Violations are collected per document — validation never
    stops at the first bad document.
    """
    if config is None:
        config = ValidationConfig()
    recorder = config.recorder
    schema = _coerce_dtd(dtd)
    items = _expand_source(source)
    if not items:
        raise UsageError("no documents to validate")
    results: list[DocumentValidation] = []
    for index, item in enumerate(items):
        if isinstance(item, Document):
            label = f"document#{index}"
            document = item
        elif is_xml_text(item):
            label = f"document#{index}"
            document = parse_document(item)
        else:
            label = item
            document = parse_file(item, recorder)
        with recorder.span("validate", file=label):
            violations = _validate_document(document, schema)
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
    if config is None:
        config = DiffConfig()
    recorder = config.recorder
    old_dtd = _coerce_dtd(old, role="old DTD")
    new_dtd = _coerce_dtd(new, role="new DTD")
    with recorder.span("diff"):
        entries = [
            entry
            for entry in iter_diffs(old_dtd, new_dtd)
            if config.include_equal or entry.relation != "equal"
        ]
    if recorder.enabled:
        recorder.count("diff.entries", len(entries))
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

    Each :meth:`append` extracts streaming evidence from the new
    documents and folds it into the session's accumulated per-element
    learner states via the same merge monoid the sharded pipeline
    uses; because contiguous-chunk merges reproduce the sequential
    fold exactly (reservoirs included), :meth:`current_dtd` is
    byte-identical to a fresh :func:`infer` over everything appended
    so far, at any point (ALGORITHMS.md §12).

    Sessions run the streaming pipeline by definition: a batch-flavoured
    config is silently promoted to ``streaming=True``.  ``numeric`` and
    ``support_threshold`` read each element's bag at every
    :meth:`current_dtd`, as on every streaming run, and never rewrite
    the session state.

    Under ``REPRO_CHECKS=1`` every append re-verifies merge
    commutativity between the accumulated state and the new chunk.

    Instances are not thread-safe; callers that share a session across
    threads (:mod:`repro.serve` does) must serialize access.  A failed
    append leaves the session at its pre-append state.
    """

    def __init__(self, config: InferenceConfig | None = None) -> None:
        if config is None:
            config = InferenceConfig(streaming=True)
        if config.state_dir is not None:
            raise UsageError(
                "state_dir checkpoints one-shot corpus runs; sessions keep "
                "their state in memory across appends — use repro.api.infer "
                "with state_dir for resumable runs"
            )
        if not config.effective_streaming:
            config = replace(config, streaming=True)
        self.config = config
        self._evidence = StreamingEvidence()
        self._documents = 0
        self._closed = False
        self._degradation: DegradationReport | None = None
        self._fault_plan: FaultPlan | None = None
        self._shard_base = 0
        if config.resilient:
            from .runtime.resilience import DegradationReport

            self._degradation = DegradationReport()
            # __post_init__ normalized faults to FaultPlan | None.
            self._fault_plan = config.faults  # type: ignore[assignment]

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
        run.
        """
        self._require_open()
        items = _expand_source(source)
        if not items:
            raise UsageError("no documents to append")
        chunk_report: DegradationReport | None = None
        remaining_quarantine = self.config.max_quarantine
        if self._degradation is not None:
            from .runtime.resilience import DegradationReport

            chunk_report = DegradationReport()
            if remaining_quarantine is not None:
                remaining_quarantine = max(
                    0,
                    remaining_quarantine - len(self._degradation.quarantined),
                )
        shard = _evidence(
            items,
            self.config,
            degradation=chunk_report,
            fault_plan=self._fault_plan,
            max_quarantine=remaining_quarantine,
            index_offset=self._documents,
        )
        if contracts_enabled():
            from .contracts import check_merge_commutative

            check_merge_commutative(self._evidence, shard)
        self._evidence.merge(shard)
        if chunk_report is not None:
            self._fold_degradation(chunk_report)
        self._documents += len(items)
        return AppendReceipt(
            documents=len(items),
            total_documents=self._documents,
            elements=len(self._evidence.elements),
        )

    def _fold_degradation(self, chunk: "DegradationReport") -> None:
        """Fold one append's degradation into the session-wide report.

        Entries are extended directly (their counters were already
        recorded when the chunk ran); shard indexes are rebased onto a
        session-global sequence so ``retried_shards`` stays unique
        across appends, as the report contract requires.
        """
        assert self._degradation is not None
        self._degradation.quarantined.extend(chunk.quarantined)
        rebased = self._shard_base
        for retry in chunk.retried_shards:
            rebased = max(rebased, self._shard_base + retry.shard + 1)
            self._degradation.retried_shards.append(
                replace(retry, shard=self._shard_base + retry.shard)
            )
        self._shard_base = rebased
        self._degradation.fallbacks.extend(chunk.fallbacks)

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
        degradation = (
            copy.deepcopy(self._degradation)
            if self._degradation is not None
            else None
        )
        return _result(self.config, self._evidence, self._fault_plan, degradation)

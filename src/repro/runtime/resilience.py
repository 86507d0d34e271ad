"""Fault tolerance for the inference runtime (quarantine, retry, faults).

Real-world XML corpora are exactly the "non-representative, noisy"
samples the paper's repair rules exist for: crawled documents fail
strict parsing, worker processes die, and the occasional pathological
element can blow past any time budget.  This module holds the policies
that make inference *degrade* instead of abort; the one shard runner,
:func:`repro.runtime.parallel.parallel_evidence`, applies them to every
run, batch, sharded, checkpointed and session alike.  Four axes:

* **document quarantine** — under a nonzero error budget
  (``max_quarantine=N`` or ``None`` for no cap) a document that cannot
  be parsed (malformed XML, bad encoding, missing file) is recorded
  with its cause and offset, skipped, and reported; the run returns a
  partial DTD that is byte-identical to inferring the corpus *minus*
  the quarantined documents (degradation ≡ deletion, see
  ``tests/property/test_degradation.py``).  Quarantining more than
  ``N`` turns "too much of the corpus is broken" into
  :class:`~repro.errors.QuarantineExceeded`; the default budget, 0, is
  strict: the first bad document raises its own error.
* **worker-crash recovery** — a dead process-pool worker heals the
  warm pool and resubmits the shard instead of surfacing
  ``BrokenProcessPool``; a shard that keeps failing is re-sharded down
  to per-document serial processing in the driver, so a single bad
  shard never takes down the run.
* **per-shard deadlines and retries** — shard waits are bounded by
  ``shard_deadline`` and failures retried up to :data:`MAX_ATTEMPTS`
  times after a bounded-exponential :func:`retry_delay` whose jitter is
  *deterministic* (seeded from ``(shard, attempt)``), so retry
  schedules are reproducible.
* **deterministic fault injection** — a :class:`FaultPlan` (from
  ``InferenceConfig(faults=...)``, ``--fault-plan``, the daemon's
  ``"faults"`` object, or by default the ``REPRO_FAULTS`` environment
  variable) injects worker crashes, shard timeouts, corrupt documents
  and per-element learner failures at chosen points.  The same hook
  drives the crash/timeout/quarantine test suite
  (``tests/runtime/test_resilience.py``) and the CI ``resilience`` job.

Every run keeps one :class:`DegradationReport` of everything it
quarantined, retried or weakened (elements that fell back from SORE to
CHARE to ``ANY`` under the paper's specificity ordering).  The report
also holds the run's error budget, and :attr:`DegradationReport.tolerant`
(a nonzero budget) is the one test every layer asks before it degrades
instead of raising.  The report is surfaced on
:class:`~repro.api.InferenceResult.degradation` and as
``resilience.*`` counters under ``--stats``.

Cache interaction: quarantine and crash recovery never poison the
content-model cache — its keys fingerprint the merged learner state,
which already reflects any skipped documents.  Injected *learner*
failures are the one fault that changes the state→expression mapping,
so active element-failure plans salt the cache key with the plan
(:meth:`FaultPlan.learner_salt`); degraded derivations are never
served to fault-free runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from random import Random
from collections.abc import Iterable, Mapping
from typing import Any

from ..errors import CorpusError, InternalError, QuarantineExceeded, UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..xmlio.parser import document_label, read_document
from ..xmlio.tree import Document, ElementRecords

__all__ = [
    "DegradationReport",
    "ElementFallback",
    "FaultPlan",
    "InjectedElementFailure",
    "InjectedShardTimeout",
    "InjectedWorkerCrash",
    "QuarantinedDocument",
    "ShardRetry",
    "load_document",
    "retry_delay",
]

#: Exit status an injected process-worker crash dies with; chosen to be
#: distinctive in pool diagnostics (``os._exit``, no cleanup — exactly
#: what a segfaulting worker looks like to the pool).
CRASH_EXIT_STATUS = 97

#: Fallback ordering per the paper's specificity ladder: SOREs are the
#: most specific class, CHAREs generalize them, ``ANY`` gives up.  A
#: failed learner falls to the next entry; after the last comes ``ANY``.
#: The extension learners slot in above their base class: a failed
#: k-ORE derivation falls to the plain SORE path (then CHARE), a
#: failed SIRE factorization falls to the CHARE it generalizes.
FALLBACK_ORDER: dict[str, tuple[str, ...]] = {
    "idtd": ("idtd", "crx"),
    "crx": ("crx",),
    "kore": ("kore", "idtd", "crx"),
    "sire": ("sire", "crx"),
}


class InjectedWorkerCrash(InternalError):
    """A :class:`FaultPlan`-injected worker crash (driver form).

    Process-pool workers crash for real (``os._exit``); shards folded
    in the driver signal the same fault with this exception so both
    exercise the same recovery path.
    """


class InjectedShardTimeout(InternalError):
    """A :class:`FaultPlan`-injected shard deadline breach."""


class InjectedElementFailure(InternalError):
    """A :class:`FaultPlan`-injected per-element learner failure."""


#: The retry schedule: a failed shard gets up to ``MAX_ATTEMPTS``
#: attempts, waiting a bounded exponential backoff between them.
MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0


def retry_delay(shard: int, attempt: int) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based) of ``shard``.

    Bounded exponential backoff with deterministic jitter: the jitter
    for attempt ``k`` of shard ``s`` comes from ``Random(f"0:{s}:{k}")``,
    so a retried run replays the exact same schedule and flaky-looking
    timing differences cannot creep into the fault-injection tests.
    """
    if attempt <= 0:
        return 0.0
    bounded = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
    jitter = Random(f"0:{shard}:{attempt}").random()
    return bounded * (0.5 + 0.5 * jitter)


def _frozen_ints(values: Iterable[object], label: str) -> frozenset[int]:
    out = set()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise UsageError(
                f"fault plan {label} entries must be non-negative integers, "
                f"got {value!r}"
            )
        out.add(value)
    return frozenset(out)


def _frozen_names(values: Iterable[object], label: str) -> frozenset[str]:
    out = set()
    for value in values:
        if not isinstance(value, str) or not value:
            raise UsageError(
                f"fault plan {label} entries must be non-empty element "
                f"names, got {value!r}"
            )
        out.add(value)
    return frozenset(out)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of which faults fire where.

    Shard faults (``worker_crashes``, ``shard_timeouts``) name shard
    indices and fire on the first ``attempts`` attempts of that shard,
    then clear — so retries make progress by construction.  On
    checkpointed runs they count fresh shards only.  Document faults
    (``corrupt_docs``) name corpus positions (the index of the document
    in the expanded source list); like every fault they act on fresh
    work, so a resumed run reuses the quarantines its checkpoint
    recorded.  Element faults name element names whose primary learner
    (``element_failures``: iDTD only) or every learner
    (``element_failures_hard``) raises, driving the SORE → CHARE → ANY
    fallback ordering.
    """

    worker_crashes: frozenset[int] = frozenset()
    shard_timeouts: frozenset[int] = frozenset()
    corrupt_docs: frozenset[int] = frozenset()
    element_failures: frozenset[str] = frozenset()
    element_failures_hard: frozenset[str] = frozenset()
    #: Checkpoint fault: hard-kill the *driver* (``os._exit``) right
    #: after the named fresh shard commits durably — the crash window
    #: the resume property tests probe.  Indices count fresh shards in
    #: dispatch order within one checkpointed run.
    kill_after_shards: frozenset[int] = frozenset()
    attempts: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "worker_crashes",
            _frozen_ints(self.worker_crashes, "worker_crashes"),
        )
        object.__setattr__(
            self,
            "shard_timeouts",
            _frozen_ints(self.shard_timeouts, "shard_timeouts"),
        )
        object.__setattr__(
            self, "corrupt_docs", _frozen_ints(self.corrupt_docs, "corrupt_docs")
        )
        object.__setattr__(
            self,
            "element_failures",
            _frozen_names(self.element_failures, "element_failures"),
        )
        object.__setattr__(
            self,
            "element_failures_hard",
            _frozen_names(self.element_failures_hard, "element_failures_hard"),
        )
        object.__setattr__(
            self,
            "kill_after_shards",
            _frozen_ints(self.kill_after_shards, "kill_after_shards"),
        )
        if (
            isinstance(self.attempts, bool)
            or not isinstance(self.attempts, int)
            or self.attempts < 1
        ):
            raise UsageError(
                f"fault plan attempts must be >= 1, got {self.attempts!r}"
            )

    # -- queries (the runtime asks, the plan answers) -------------------------

    def crashes(self, shard: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) of ``shard`` crashes."""
        return shard in self.worker_crashes and attempt < self.attempts

    def times_out(self, shard: int, attempt: int) -> bool:
        return shard in self.shard_timeouts and attempt < self.attempts

    def corrupts(self, doc_index: int) -> bool:
        return doc_index in self.corrupt_docs

    def kills_after(self, shard: int) -> bool:
        """Whether the driver dies after durably committing ``shard``."""
        return shard in self.kill_after_shards

    def fails_element(self, name: str, method: str) -> bool:
        if name in self.element_failures_hard:
            return True
        return method == "idtd" and name in self.element_failures

    def learner_salt(self) -> tuple[object, ...]:
        """The cache-key salt for plans that alter learner output.

        Only element-failure faults change the (state → expression)
        mapping the content-model cache memoizes; crash/timeout/corrupt
        faults leave it intact (the fingerprint already reflects any
        skipped documents), so they need no salt and keep full cache
        sharing with fault-free runs.
        """
        if not (self.element_failures or self.element_failures_hard):
            return ()
        return (
            (
                "faults",
                tuple(sorted(self.element_failures)),
                tuple(sorted(self.element_failures_hard)),
            ),
        )

    # -- (de)serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "worker_crashes": sorted(self.worker_crashes),
            "shard_timeouts": sorted(self.shard_timeouts),
            "corrupt_docs": sorted(self.corrupt_docs),
            "element_failures": sorted(self.element_failures),
            "element_failures_hard": sorted(self.element_failures_hard),
            "kill_after_shards": sorted(self.kill_after_shards),
            "attempts": self.attempts,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> FaultPlan:
        """A plan from a JSON-shaped mapping of its fields.

        Checks the keys and that every set-valued field is a list;
        :meth:`__post_init__` validates the values.
        """
        known = set(cls.__dataclass_fields__)
        unknown = set(mapping) - known
        if unknown:
            raise UsageError(
                f"unknown fault plan keys {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        for key, value in mapping.items():
            if key != "attempts" and not isinstance(value, (list, tuple)):
                raise UsageError(f"fault plan {key} must be a list")
        fields_given: dict[str, Any] = dict(mapping)
        return cls(**fields_given)

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        import json  # only a plan given as JSON text needs it

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("a fault plan must be a JSON object")
        return cls.from_mapping(data)

    @classmethod
    def from_cli(cls, spec: str) -> FaultPlan:
        """Parse ``--fault-plan``: inline JSON or ``[@]path`` to a file."""
        spec = spec.strip()
        if spec.startswith("{"):
            return cls.from_json(spec)
        path = spec[1:] if spec.startswith("@") else spec
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read fault plan {path!r}: {exc}") from exc

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> FaultPlan | None:
        """The plan in ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        source = os.environ if environ is None else environ
        text = source.get("REPRO_FAULTS", "").strip()
        if not text:
            return None
        return cls.from_json(text)


# -- the degradation report ---------------------------------------------------


@dataclass(frozen=True)
class QuarantinedDocument:
    """One skipped document: where it came from and why it was dropped."""

    path: str
    cause: str
    position: int | None = None
    shard: int | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "cause": self.cause,
            "position": self.position,
            "shard": self.shard,
        }


@dataclass(frozen=True)
class ShardRetry:
    """One shard that needed more than its first attempt."""

    shard: int
    attempts: int
    reason: str  # "worker-crash" | "timeout"
    resharded: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "attempts": self.attempts,
            "reason": self.reason,
            "resharded": self.resharded,
        }


@dataclass(frozen=True)
class ElementFallback:
    """One element whose learner fell down the specificity ladder."""

    element: str
    from_method: str  # "idtd" | "crx"
    to_method: str  # "crx" | "any"
    cause: str

    def to_dict(self) -> dict[str, object]:
        return {
            "element": self.element,
            "from": self.from_method,
            "to": self.to_method,
            "cause": self.cause,
        }


@dataclass
class DegradationReport:
    """Everything a run skipped, retried or weakened, and its error budget.

    Every run builds one and attaches it to
    :class:`repro.api.InferenceResult`.  ``degraded`` is False for a
    clean pass, so callers can gate alerting on it; :meth:`to_dict` is
    the machine-readable form the CLI and tests consume.
    ``max_quarantine`` is the most documents the run may quarantine
    (``None``: no cap); the default, 0, makes the run strict.
    """

    quarantined: list[QuarantinedDocument] = field(default_factory=list)
    retried_shards: list[ShardRetry] = field(default_factory=list)
    fallbacks: list[ElementFallback] = field(default_factory=list)
    max_quarantine: int | None = 0

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined or self.retried_shards or self.fallbacks)

    @property
    def tolerant(self) -> bool:
        """Whether the run degrades (quarantine, reshard, fall back) or raises."""
        return self.max_quarantine != 0

    def copy(self) -> DegradationReport:
        """A report with the same budget and entries, whose lists are its own."""
        return DegradationReport(
            list(self.quarantined),
            list(self.retried_shards),
            list(self.fallbacks),
            self.max_quarantine,
        )

    def add_quarantine(
        self, document: QuarantinedDocument, recorder: Recorder = NULL_RECORDER
    ) -> None:
        """Record a skipped document, enforcing the quarantine cap."""
        self.quarantined.append(document)
        if recorder.enabled:
            recorder.count("resilience.quarantined")
        limit = self.max_quarantine
        if limit is not None and len(self.quarantined) > limit:
            error = QuarantineExceeded(
                f"quarantined {len(self.quarantined)} documents, more than "
                f"max_quarantine={limit}; the corpus is too broken to "
                f"degrade gracefully (last: {document.path}: {document.cause})"
            )
            error.degradation = self
            raise error

    def add_retry(
        self, retry: ShardRetry, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.retried_shards.append(retry)
        if recorder.enabled:
            recorder.count("resilience.retried_shards")
            if retry.resharded:
                recorder.count("resilience.resharded")

    def add_fallback(
        self, fallback: ElementFallback, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.fallbacks.append(fallback)
        if recorder.enabled:
            recorder.count("resilience.fallbacks")

    def to_dict(self) -> dict[str, object]:
        return {
            "quarantined": [doc.to_dict() for doc in self.quarantined],
            "retried_shards": [r.to_dict() for r in self.retried_shards],
            "fallbacks": [f.to_dict() for f in self.fallbacks],
        }


# -- document loading with quarantine -----------------------------------------


def load_document(
    item: Document | str,
    index: int,
    report: DegradationReport,
    *,
    plan: FaultPlan | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> Document | ElementRecords | None:
    """Read one corpus item under ``report``'s budget; ``None`` = skipped.

    :func:`~repro.xmlio.parser.read_document` reads the item; this adds
    the fault plan and the quarantine.  Injected corruption
    (``plan.corrupts``) and real read failures behave identically: raise
    when ``report`` is strict, else quarantine.  The entry's ``path`` names the
    document, so its ``cause`` drops the reader's leading label; an
    ``OSError``'s cause is that error's own text.
    """
    path = document_label(item, index)
    try:
        if plan is not None and plan.corrupts(index):
            if recorder.enabled:
                recorder.count("resilience.injected.corrupt")
            raise CorpusError(f"{path}: injected fault: corrupt document #{index}")
        return read_document(item, index, recorder)
    except CorpusError as exc:
        if not report.tolerant:
            raise
        cause = exc.__cause__ if isinstance(exc.__cause__, OSError) else exc
        report.add_quarantine(
            QuarantinedDocument(
                path=path,
                cause=str(cause).removeprefix(f"{path}: "),
                position=getattr(exc, "position", None),
            ),
            recorder=recorder,
        )
        return None

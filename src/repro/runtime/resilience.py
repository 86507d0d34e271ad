"""Fault tolerance for the inference runtime (quarantine, retry, faults).

Real-world XML corpora are exactly the "non-representative, noisy"
samples the paper's repair rules exist for: crawled documents fail
strict parsing, worker processes die, and the occasional pathological
element can blow past any time budget.  Before this module, any one of
those aborted the whole :func:`repro.api.infer` call.  This module
holds the policies that make inference *degrade* instead of abort; the
one shard runner, :func:`repro.runtime.parallel.parallel_evidence`,
applies them to every sharded run, checkpointed ones included.  Four
axes:

* **document quarantine** — in ``on_error="skip"`` mode a document
  that cannot be parsed (malformed XML, bad encoding, missing file) is
  recorded with its cause and offset, skipped, and reported; the run
  returns a partial DTD that is byte-identical to inferring the corpus
  *minus* the quarantined documents (degradation ≡ deletion, see
  ``tests/property/test_degradation.py``).  A cap
  (``max_quarantine=``) turns "too much of the corpus is broken" into
  :class:`~repro.errors.QuarantineExceeded`.
* **worker-crash recovery** — a dead process-pool worker heals the
  warm pool and resubmits the shard instead of surfacing
  ``BrokenProcessPool``; a shard that keeps failing is re-sharded down
  to per-document serial processing in the driver, so a single bad
  shard never takes down the run.
* **per-shard deadlines and retries** — shard waits are bounded by
  ``shard_deadline`` and failures retried under a bounded-exponential
  :class:`RetryPolicy` whose jitter is *deterministic* (seeded from
  ``(seed, shard, attempt)``), so retry schedules are reproducible.
* **deterministic fault injection** — a :class:`FaultPlan` (from
  ``InferenceConfig(faults=...)``, ``--fault-plan``, or the
  ``REPRO_FAULTS`` environment variable) injects worker crashes, shard
  timeouts, corrupt documents and per-element learner failures at
  chosen points.  The same hook drives the crash/timeout/quarantine
  test suite (``tests/runtime/test_resilience.py``) and the CI
  ``resilience`` job.

Everything observable about a degraded run lands in a machine-readable
:class:`DegradationReport` (quarantined documents, retried shards,
elements that fell back from SORE to CHARE to ``ANY`` under the
paper's specificity ordering), surfaced on
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

import json
import os
from dataclasses import dataclass, field
from random import Random
from collections.abc import Iterable, Mapping

from ..errors import CorpusError, InternalError, QuarantineExceeded, UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..xmlio.parser import (
    ParseFailure,
    is_xml_text,
    scan_document,
    scan_file,
    try_scan_file,
)
from ..xmlio.tree import Document, ElementRecords

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "DegradationReport",
    "ElementFallback",
    "FaultPlan",
    "InjectedElementFailure",
    "InjectedShardTimeout",
    "InjectedWorkerCrash",
    "QuarantinedDocument",
    "RetryPolicy",
    "ShardRetry",
    "document_label",
    "load_document",
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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic, seedable jitter.

    ``delay(shard, attempt)`` is a pure function of the policy and its
    arguments: the jitter for attempt ``k`` of shard ``s`` comes from
    ``Random(f"{seed}:{s}:{k}")``, so a retried run replays the exact
    same schedule — flaky-looking timing differences cannot creep into
    the fault-injection tests.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise UsageError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise UsageError("retry backoff must be >= 0")

    def delay(self, shard: int, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        bounded = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        jitter = Random(f"{self.seed}:{shard}:{attempt}").random()
        return bounded * (0.5 + 0.5 * jitter)


DEFAULT_RETRY_POLICY = RetryPolicy()


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
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise UsageError(
                f"fault plan attempts must be >= 1, got {self.attempts!r}"
            )

    def __bool__(self) -> bool:
        return bool(
            self.worker_crashes
            or self.shard_timeouts
            or self.corrupt_docs
            or self.element_failures
            or self.element_failures_hard
            or self.kill_after_shards
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
        known = {
            "worker_crashes",
            "shard_timeouts",
            "corrupt_docs",
            "element_failures",
            "element_failures_hard",
            "kill_after_shards",
            "attempts",
        }
        unknown = set(mapping) - known
        if unknown:
            raise UsageError(
                f"unknown fault plan keys {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )

        def seq(key: str) -> Iterable[object]:
            value = mapping.get(key, ())
            if isinstance(value, (str, bytes)) or not isinstance(
                value, Iterable
            ):
                raise UsageError(f"fault plan {key} must be a list")
            return value

        attempts = mapping.get("attempts", 1)
        if not isinstance(attempts, int) or isinstance(attempts, bool):
            raise UsageError(
                f"fault plan attempts must be an integer, got {attempts!r}"
            )
        return cls(
            worker_crashes=frozenset(_frozen_ints(seq("worker_crashes"), "worker_crashes")),
            shard_timeouts=frozenset(_frozen_ints(seq("shard_timeouts"), "shard_timeouts")),
            corrupt_docs=frozenset(_frozen_ints(seq("corrupt_docs"), "corrupt_docs")),
            element_failures=_frozen_names(seq("element_failures"), "element_failures"),
            element_failures_hard=_frozen_names(
                seq("element_failures_hard"), "element_failures_hard"
            ),
            kill_after_shards=frozenset(
                _frozen_ints(seq("kill_after_shards"), "kill_after_shards")
            ),
            attempts=attempts,
        )

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
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
    """Everything a degraded run skipped, retried or weakened.

    Attached to :class:`repro.api.InferenceResult` whenever the
    resilient runtime ran (``on_error="skip"``, an active fault plan,
    or a shard deadline).  ``degraded`` is False for a clean pass, so
    callers can gate alerting on it; :meth:`to_dict` is the
    machine-readable form the CLI and tests consume.
    """

    quarantined: list[QuarantinedDocument] = field(default_factory=list)
    retried_shards: list[ShardRetry] = field(default_factory=list)
    fallbacks: list[ElementFallback] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined or self.retried_shards or self.fallbacks)

    def add_quarantine(
        self,
        document: QuarantinedDocument,
        limit: int | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        """Record a skipped document, enforcing the quarantine cap."""
        self.quarantined.append(document)
        if recorder.enabled:
            recorder.count("resilience.quarantined")
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


def document_label(item: Document | str, index: int) -> str:
    """How reports name corpus item ``index``: its path, else its position."""
    if isinstance(item, Document) or is_xml_text(item):
        return f"<document #{index}>"
    return item


def load_document(
    item: Document | str,
    index: int,
    *,
    plan: FaultPlan | None = None,
    on_error: str = "strict",
    report: DegradationReport | None = None,
    max_quarantine: int | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> Document | ElementRecords | None:
    """Load one corpus item under the error policy; ``None`` = skipped.

    ``item`` is a parsed :class:`Document`, XML text or a file path (the
    three shapes :func:`repro.api.infer` accepts); this is the one place
    inference parses them.  A document passes through; text and paths
    are scanned into :class:`ElementRecords`, which evidence folds
    without building a tree.  Injected corruption (``plan.corrupt_docs``)
    and real parse failures behave identically for all three: raise in
    strict mode, quarantine in skip mode.
    """
    path = document_label(item, index)
    try:
        if plan is not None and plan.corrupts(index):
            if recorder.enabled:
                recorder.count("resilience.injected.corrupt")
            raise CorpusError(
                f"injected fault: corrupt document #{index} ({path})"
            )
        if isinstance(item, Document):
            return item
        if is_xml_text(item):
            with recorder.span("parse"):
                return scan_document(item)
        if on_error == "skip":
            loaded = try_scan_file(item, recorder)
            if isinstance(loaded, ParseFailure):
                raise CorpusError(loaded.cause)
            return loaded
        return scan_file(item, recorder)
    except (CorpusError, OSError, UnicodeDecodeError) as exc:
        if on_error != "skip" or report is None:
            raise
        report.add_quarantine(
            QuarantinedDocument(
                path=path,
                cause=str(exc),
                position=getattr(exc, "position", None),
            ),
            limit=max_quarantine,
            recorder=recorder,
        )
        return None

"""The repro exception hierarchy and its mapping onto CLI exit codes.

Every error the system raises deliberately descends from
:class:`ReproError`, split by *whose fault it is*:

* :class:`UsageError` — the caller asked for something impossible
  (bad flags, illegal option combinations, malformed requests);
* :class:`CorpusError` — the caller's *data* is the problem
  (malformed XML, malformed DTDs, samples from which nothing can be
  learned);
* :class:`InternalError` — a bug in the inference engine itself,
  never the user's fault.

For backwards compatibility the user-facing classes also subclass
``ValueError`` (historically everything user-triggered was a plain
``ValueError``) and :class:`InternalError` subclasses ``RuntimeError``,
so existing ``except``/``pytest.raises`` clauses keep working.

The CLI exit-code contract — ``0`` success, ``1`` usage or input
error, ``2`` internal error — is encoded *once*, in
:func:`exit_code_for`; :mod:`repro.cli` consumes it rather than
re-deciding per call site.  The HTTP daemon (:mod:`repro.serve`) maps
the same hierarchy onto status codes the same way — one split, two
transports.
"""

from __future__ import annotations

from typing import Any

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


class ReproError(Exception):
    """Base class of every error repro raises deliberately."""


class UsageError(ReproError, ValueError):
    """The request itself is invalid: bad flags, illegal combinations."""


class CorpusError(ReproError, ValueError):
    """The input data is invalid or insufficient: malformed XML/DTDs,
    samples with no learnable content.

    ``degradation`` is ``None`` except when the resilient runtime
    aborted a run it had already partially degraded: then the raise
    site attaches the partial
    :class:`~repro.runtime.resilience.DegradationReport`, so callers
    (the CLI's stderr summary, :mod:`repro.serve`'s 503 bodies) can
    show what *was* processed before the abort.
    """

    degradation: Any | None = None


class QuarantineExceeded(CorpusError):
    """Too much of the corpus was quarantined for graceful degradation.

    Raised by the resilient runtime (:mod:`repro.runtime.resilience`)
    when ``on_error="skip"`` runs past ``max_quarantine=`` skipped
    documents: at that point the sample is too broken for a partial
    DTD to mean anything, which makes it an input problem (exit 1).
    """


class ShardTimeout(CorpusError):
    """A corpus shard kept exceeding its processing deadline.

    In strict mode a shard that breaches ``shard_deadline`` on every
    retry surfaces as this error rather than completing arbitrarily
    late.  A pathological document that cannot be processed in time is
    an input problem (exit 1), not an engine bug; ``on_error="skip"``
    degrades by resharding in-driver instead of raising.
    """


class InternalError(ReproError, RuntimeError):
    """A bug in the engine — supposedly-unreachable states."""


def exit_code_for(error: BaseException) -> int:
    """The CLI exit code for an exception, per the 0/1/2 contract.

    Anything user-triggered (usage, corpus, and the legacy ``OSError``/
    ``ValueError`` family) exits 1; engine bugs exit 2.
    """
    if isinstance(error, (UsageError, CorpusError)):
        return EXIT_USAGE
    if isinstance(error, InternalError):
        return EXIT_INTERNAL
    if isinstance(error, (OSError, UnicodeDecodeError, ValueError)):
        return EXIT_USAGE
    return EXIT_INTERNAL


__all__ = [
    "EXIT_INTERNAL",
    "EXIT_OK",
    "EXIT_USAGE",
    "CorpusError",
    "InternalError",
    "QuarantineExceeded",
    "ReproError",
    "ShardTimeout",
    "UsageError",
    "exit_code_for",
]

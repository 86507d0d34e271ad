"""Fingerprint-keyed memoization of the per-element finalize step.

Real schema corpora are dominated by a small set of recurring content
models, and service-style workloads re-run inference over overlapping
samples.  Both learners are *functions of a tiny merged state* — the
SOA triple ``(I, F, S)`` for iDTD, the arrow relation plus occurrence
profiles for CRX — so the expensive per-element finalize step
(Section 5/6 rewrite + repair, Algorithm 3 CHARE emission) can be
memoized on a stable fingerprint of that state:

* two samples with the same SOA triple yield the same SORE (SOAs are
  unique up to isomorphism, Proposition 1, and ``idtd_from_soa`` is
  deterministic);
* two samples with the same arrow relation and occurrence profiles
  yield the same CHARE (Algorithm 3 reads nothing else).

The cache is therefore *legal* exactly when the fingerprint matches:
byte-identical output is guaranteed by construction, and additionally
property-tested (``tests/runtime/test_cache.py``) and contract-checked
(``repro.contracts.check_cached_content_model`` recomputes fresh on
the first hit of every entry under ``REPRO_CHECKS=1``, and again
whenever the entry's value was replaced).

Keys embed the learner method and the active reservoir cap alongside
the state fingerprint, so runs that differ in either never share
entries.  Degraded runs are covered the same way: a fault plan that
injects *learner* failures changes the state→expression mapping, so
such plans salt the key with themselves
(:meth:`repro.runtime.resilience.FaultPlan.learner_salt` via
``DTDInferencer._cache_key``) — degraded derivations never alias
fault-free ones in either direction.  Quarantine and crash recovery
need no salt: the fingerprint of the merged learner state already
reflects exactly which documents contributed.  Entries live in an LRU
with explicit invalidation
(:meth:`ContentModelCache.invalidate`); a process-wide instance
(:func:`global_content_model_cache`) is shared across
:func:`repro.api.infer` calls so repeated inferences stop re-deriving
content models they have already computed.

Hit/miss/eviction counts ride the :mod:`repro.obs` recorder as
``cache.content_model.*`` counters, so ``infer --stats`` surfaces them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import UsageError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..regex.ast import Regex

#: A content-model cache key: ``(method, reservoir cap, state
#: fingerprint)``, extended with the fault plan's learner salt when a
#: plan injects element failures.  The fingerprint component comes from
#: :meth:`repro.automata.soa.SOA.canonical_fingerprint` or
#: :meth:`repro.core.crx.CrxState.canonical_fingerprint`: sorted tuples,
#: equal in every process.
CacheKey = tuple[object, ...]

#: Default entry bound of the process-wide cache.  Entries are
#: schema-sized (one regex plus sorted tuples over the element alphabet),
#: so even the default bound is a few megabytes at most.
DEFAULT_CACHE_SIZE = 4096


class ContentModelCache:
    """An LRU of finalized content-model expressions, fingerprint-keyed.

    Values are :class:`~repro.regex.ast.Regex` nodes — immutable and
    hashable, so sharing one instance across inferred DTDs is safe.

    The cache never invalidates implicitly: a fingerprint identifies
    the learner output exactly, so entries cannot go stale.  Explicit
    :meth:`invalidate` exists for callers that patch learner internals
    (tests, ablation harnesses) or want to bound memory between
    workloads.

    Thread safety: the serve daemon fans requests over a worker pool
    and every worker funnels into the shared process-wide instance, so
    all access to the LRU order and the lifetime counters goes through
    one internal lock.  ``OrderedDict`` is not safe under concurrent
    ``move_to_end``/``popitem`` — interleaved reorders corrupt the
    linked list.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise UsageError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, Regex] = OrderedDict()
        # Under contracts: the value each key's entry held when a hit
        # last re-derived it (see ``DTDInferencer._memoized``).
        self._verified: dict[CacheKey, Regex] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, key: CacheKey, recorder: Recorder = NULL_RECORDER
    ) -> Regex | None:
        """The cached expression for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        if recorder.enabled:
            recorder.count(
                "cache.content_model.hits"
                if hit
                else "cache.content_model.misses"
            )
        return entry

    def put(
        self, key: CacheKey, regex: Regex, recorder: Recorder = NULL_RECORDER
    ) -> None:
        """Store ``regex`` under ``key``, evicting the LRU tail if full."""
        evicted = 0
        with self._lock:
            self._entries[key] = regex
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                gone, _regex = self._entries.popitem(last=False)
                self._verified.pop(gone, None)
                self.evictions += 1
                evicted += 1
        if recorder.enabled:
            for _ in range(evicted):
                recorder.count("cache.content_model.evictions")

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped.

        Counters (hits/misses/evictions) survive invalidation — they
        describe the cache's lifetime, not its current contents.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._verified.clear()
        return dropped

    def verified(self, key: CacheKey, regex: Regex) -> bool:
        """Whether a hit already checked ``regex`` as ``key``'s entry."""
        with self._lock:
            return self._verified.get(key) is regex

    def mark_verified(self, key: CacheKey, regex: Regex) -> None:
        """Record that ``regex``, ``key``'s entry, agreed with a fresh run."""
        with self._lock:
            if self._entries.get(key) is regex:
                self._verified[key] = regex

    def info(self) -> dict[str, int]:
        """A plain-dict summary (for ``--stats`` consumers and tests)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ContentModelCache(entries={len(self._entries)}, "
            f"maxsize={self.maxsize}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


_GLOBAL_CACHE: ContentModelCache | None = None
_GLOBAL_CACHE_LOCK = threading.Lock()


def global_content_model_cache() -> ContentModelCache:
    """The process-wide cache shared across ``api.infer`` calls.

    Created lazily on first use; ``InferenceConfig(cache=False)``
    bypasses it entirely.  Call :meth:`ContentModelCache.invalidate`
    on the returned instance to drop all memoized content models.
    Creation is locked: two serve workers racing the first request
    must not each build (and then split hits across) separate caches.
    """
    global _GLOBAL_CACHE
    with _GLOBAL_CACHE_LOCK:
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = ContentModelCache()
        return _GLOBAL_CACHE


def reset_global_content_model_cache() -> None:
    """Discard the process-wide cache object (counters included).

    Unlike ``global_content_model_cache().invalidate()`` this also
    zeroes the lifetime counters — used by tests that assert exact
    hit/miss sequences.
    """
    global _GLOBAL_CACHE
    with _GLOBAL_CACHE_LOCK:
        _GLOBAL_CACHE = None


__all__ = [
    "CacheKey",
    "ContentModelCache",
    "DEFAULT_CACHE_SIZE",
    "global_content_model_cache",
    "reset_global_content_model_cache",
]

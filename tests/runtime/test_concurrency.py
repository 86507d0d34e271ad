"""Regression tests for the concurrency fixes flagged by R007/R008.

The whole-program analyzer found unsynchronized shared state in the
warm worker pools and the content-model cache; these tests hammer each
from many threads so a reintroduced race at least has a chance to fail
loudly (``OrderedDict`` corruption, duplicate executors) rather than
silently.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

from repro.runtime.cache import (
    ContentModelCache,
    global_content_model_cache,
    reset_global_content_model_cache,
)
from repro.runtime.parallel import WorkerPool

THREADS = 8
ROUNDS = 200


def run_threads(worker, count: int = THREADS) -> list[BaseException]:
    """Start ``count`` threads on ``worker`` behind a barrier; collect
    any exception a thread dies with."""
    barrier = threading.Barrier(count)
    failures: list[BaseException] = []
    lock = threading.Lock()

    def trampoline(index: int) -> None:
        barrier.wait()
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 — reported via failures
            with lock:
                failures.append(exc)

    threads = [
        threading.Thread(target=trampoline, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    return failures


class TestCacheUnderContention:
    def test_concurrent_put_get_keeps_invariants(self):
        cache = ContentModelCache(maxsize=8)

        def worker(index: int) -> None:
            for i in range(ROUNDS):
                key = ("fp", (index * ROUNDS + i) % 24)
                cache.put(key, object())
                cache.get(key)
                cache.get(("fp", i % 24))
                assert len(cache) <= 8

        failures = run_threads(worker)
        assert failures == []
        # Conservation: every lookup was counted exactly once.
        assert cache.hits + cache.misses == THREADS * ROUNDS * 2
        info = cache.info()
        assert info["entries"] <= 8

    def test_concurrent_invalidate_stays_consistent(self):
        cache = ContentModelCache(maxsize=32)

        def worker(index: int) -> None:
            for i in range(ROUNDS):
                if index % 2:
                    cache.put(("fp", i), object())
                else:
                    cache.invalidate()

        assert run_threads(worker) == []
        assert len(cache) <= 32

    def test_global_cache_is_created_once(self):
        reset_global_content_model_cache()
        seen: list[int] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            instance = global_content_model_cache()
            with lock:
                seen.append(id(instance))

        assert run_threads(worker, count=16) == []
        assert len(set(seen)) == 1, "global cache was created more than once"
        reset_global_content_model_cache()


class TestWorkerPoolUnderContention:
    def test_concurrent_executor_calls_create_one_executor(self):
        pool = WorkerPool("thread")
        seen: list[int] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            executor = pool.executor(max_workers=2)
            with lock:
                seen.append(id(executor))

        try:
            assert run_threads(worker, count=16) == []
            assert len(set(seen)) == 1, (
                "racing first-callers built separate executors"
            )
        finally:
            pool.shutdown()
        assert not pool.live

    def test_shutdown_races_with_use(self):
        pool = WorkerPool("thread")

        def worker(index: int) -> None:
            for _ in range(20):
                if index % 4 == 0:
                    pool.shutdown()
                else:
                    try:
                        future = pool.executor(max_workers=2).submit(
                            int, "7"
                        )
                        assert future.result(timeout=10) == 7
                    except (RuntimeError, CancelledError):
                        # The submit (or its future) lost the race
                        # against a concurrent shutdown of the same
                        # executor instance — acceptable; the next
                        # loop iteration gets a fresh executor.
                        pass

        failures = run_threads(worker)
        pool.shutdown()
        assert failures == []

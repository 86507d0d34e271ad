"""The run-directory advisory lock: contention, staleness, breaking.

The operator mistake the lock exists for is two runs sharing one
``--state-dir`` — their interleaved manifest rewrites would corrupt
the run silently.  Contention must therefore surface as a
:class:`UsageError` (exit 1 through the CLI), while a lock left by a
*killed* run — exactly what the crash/resume suite produces — must
never wedge the directory.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import InferenceConfig, infer
from repro.ckpt.lock import LOCK_NAME, RunLock, StateDirLocked
from repro.errors import UsageError

from .conftest import write_corpus


class TestRunLock:
    def test_acquire_release_cycle(self, tmp_path):
        with RunLock(tmp_path) as lock:
            assert os.path.exists(lock.path)
            owner = json.loads(Path(lock.path).read_text(encoding="utf-8"))
            assert owner["pid"] == os.getpid()
            assert owner["host"] == socket.gethostname()
        assert not os.path.exists(lock.path)

    def test_live_contention_raises_usage_error(self, tmp_path):
        with RunLock(tmp_path):
            with pytest.raises(StateDirLocked) as excinfo:
                RunLock(tmp_path).acquire()
            assert str(os.getpid()) in str(excinfo.value)
        assert issubclass(StateDirLocked, UsageError)

    def test_stale_lock_dead_pid_is_broken(self, tmp_path):
        # A subprocess that has fully exited is a provably dead pid.
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(proc.stdout.strip())
        lock_path = tmp_path / LOCK_NAME
        lock_path.write_text(
            json.dumps({"pid": dead_pid, "host": socket.gethostname()})
        )
        with RunLock(tmp_path) as lock:
            assert json.loads(Path(lock.path).read_text())["pid"] == os.getpid()
        assert not lock_path.exists()

    def test_garbage_lock_file_is_broken(self, tmp_path):
        (tmp_path / LOCK_NAME).write_text("{not json")
        with RunLock(tmp_path):
            pass
        (tmp_path / LOCK_NAME).write_text(json.dumps({"pid": "four", "host": 3}))
        with RunLock(tmp_path):
            pass

    def test_foreign_host_lock_is_honoured(self, tmp_path):
        # A pid from another machine can never be probed, so the lock
        # holds even though that pid is (coincidentally) dead here.
        (tmp_path / LOCK_NAME).write_text(
            json.dumps({"pid": 2**22 - 1, "host": "some-other-host.invalid"})
        )
        with pytest.raises(StateDirLocked):
            RunLock(tmp_path).acquire()

    def test_release_is_idempotent_and_unheld_release_is_noop(self, tmp_path):
        lock = RunLock(tmp_path)
        lock.release()  # never acquired: must not unlink anything
        with RunLock(tmp_path):
            lock2 = RunLock(tmp_path)
            lock2.release()  # unheld: the owner's file survives
            assert os.path.exists(lock2.path)


class TestLockThroughFacade:
    def test_concurrent_infer_into_same_state_dir_fails(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        state = tmp_path / "run"
        state.mkdir()
        with RunLock(state):  # simulate the other live run
            with pytest.raises(UsageError):
                infer(paths, config=InferenceConfig(state_dir=state))

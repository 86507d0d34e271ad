"""Crash/kill resume properties: interrupted == uninterrupted, byte for byte.

The headline guarantee of :mod:`repro.ckpt`: a run killed after any
committed shard, then resumed, renders the *same bytes* as a run that
was never interrupted — in the driver and on the process pool, across
learner methods, with
contracts (``REPRO_CHECKS=1``) verifying the roundtrip and
resume-equals-fresh invariants in-process.

Kills are injected with ``FaultPlan.kill_after_shards`` through the
real CLI in a subprocess — the driver ``os._exit``\\ s with
``CRASH_EXIT_STATUS`` *after* the shard commits durably, which is
exactly the window a SIGKILL would hit between commit and completion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import InferenceConfig, InferenceSession, infer
from repro.ckpt.manifest import load_manifest
from repro.errors import CorpusError, UsageError
from repro.obs.recorder import StatsRecorder
from repro.runtime.parallel import PROCESS_CORPUS_FLOOR
from repro.runtime.resilience import CRASH_EXIT_STATUS, FaultPlan

from .conftest import write_corpus

_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def cli_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=_REPO_SRC, REPRO_CHECKS="1")
    env.pop("REPRO_FAULTS", None)
    return env


def run_cli(*argv: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=cli_env(),
        capture_output=True,
        text=True,
    )


class TestFreshEqualsPlain:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("method", ["idtd", "crx"])
    def test_checkpointed_run_matches_uncheckpointed(
        self, tmp_path, monkeypatch, backend, method
    ):
        if backend == "process":
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            paths = write_corpus(tmp_path, PROCESS_CORPUS_FLOOR)
        else:
            paths = write_corpus(tmp_path, 20)
        plain = infer(
            paths, config=InferenceConfig(method=method)
        ).render()
        recorder = StatsRecorder()
        checkpointed = infer(
            paths,
            config=InferenceConfig(
                method=method,
                state_dir=tmp_path / "run",
                jobs=4,
                recorder=recorder,
            ),
        ).render()
        assert checkpointed == plain
        assert recorder.snapshot()["counters"][f"parallel.backend.{backend}"] == 1
        manifest = load_manifest(tmp_path / "run")
        assert manifest is not None and manifest.complete
        assert sum(len(s.documents) for s in manifest.shards) == len(paths)

    def test_shard_count_is_jobs_on_any_host(self, tmp_path, monkeypatch):
        # The driver folds at 1 CPU, the pool at 8: same shards, same
        # state files.
        paths = write_corpus(tmp_path, PROCESS_CORPUS_FLOOR)
        manifests = []
        for cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            state = tmp_path / f"run{cpus}"
            config = InferenceConfig(state_dir=state, jobs=4, faults=None)
            infer(paths, config=config)
            manifest = load_manifest(state)
            assert manifest is not None and manifest.complete
            manifests.append(
                [(s.documents, s.state_file, s.digest) for s in manifest.shards]
            )
        assert len(manifests[0]) == 4
        assert manifests[0] == manifests[1]

    def test_resume_over_unchanged_corpus_reparses_nothing(self, tmp_path):
        paths = write_corpus(tmp_path, 16)
        state = tmp_path / "run"
        first = infer(
            paths, config=InferenceConfig(state_dir=state)
        ).render()
        second = infer(
            paths,
            config=InferenceConfig(state_dir=state, resume=True),
        ).render()
        assert second == first


class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [0, 1, 2])
    def test_kill_then_resume_is_byte_identical(self, tmp_path, kill_after):
        paths = write_corpus(tmp_path, 24)
        state = tmp_path / "run"
        common = ("--jobs", "4", "--check")

        clean = run_cli("infer", *paths, *common)
        assert clean.returncode == 0, clean.stderr

        killed = run_cli(
            "infer",
            *paths,
            *common,
            "--state-dir",
            str(state),
            "--fault-plan",
            json.dumps({"kill_after_shards": [kill_after]}),
        )
        assert killed.returncode == CRASH_EXIT_STATUS, killed.stderr
        partial = load_manifest(state)
        assert partial is not None and not partial.complete
        assert len(partial.shards) >= 1  # the killed shard committed first
        assert (state / "lock").exists()  # died holding the lock

        resumed = run_cli(
            "infer", *paths, *common, "--state-dir", str(state), "--resume"
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout
        final = load_manifest(state)
        assert final is not None and final.complete

    @pytest.mark.parametrize("method", ["idtd", "crx"])
    def test_kill_resume_across_methods(self, tmp_path, method):
        paths = write_corpus(tmp_path, 18)
        state = tmp_path / "run"
        common = ("--method", method, "--jobs", "3")
        clean = run_cli("infer", *paths, *common)
        killed = run_cli(
            "infer",
            *paths,
            *common,
            "--state-dir",
            str(state),
            "--fault-plan",
            '{"kill_after_shards": [0]}',
        )
        assert killed.returncode == CRASH_EXIT_STATUS, killed.stderr
        resumed = run_cli(
            "infer", *paths, *common, "--state-dir", str(state), "--resume"
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout

    def test_repeated_kills_then_final_resume(self, tmp_path):
        # Crash on every attempt's first fresh shard: each retry still
        # makes durable progress, so the chain terminates and agrees
        # with the clean run.
        paths = write_corpus(tmp_path, 24)
        state = tmp_path / "run"
        common = ("--jobs", "4")
        clean = run_cli("infer", *paths, *common)
        flags = ["--state-dir", str(state)]
        for attempt in range(4):
            crashed = run_cli(
                "infer",
                *paths,
                *common,
                *flags,
                "--fault-plan",
                '{"kill_after_shards": [0]}',
            )
            flags = ["--state-dir", str(state), "--resume"]
            if crashed.returncode == 0:
                break  # everything already cached: nothing fresh to kill
            assert crashed.returncode == CRASH_EXIT_STATUS, crashed.stderr
        resumed = run_cli("infer", *paths, *common, *flags)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout


class TestGuardRails:
    def test_existing_run_without_resume_is_refused(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        state = tmp_path / "run"
        infer(paths, config=InferenceConfig(state_dir=state))
        with pytest.raises(UsageError, match="resume"):
            infer(paths, config=InferenceConfig(state_dir=state))

    def test_resume_requires_state_dir(self):
        with pytest.raises(UsageError):
            InferenceConfig(resume=True)

    def test_sessions_reject_state_dir(self, tmp_path):
        with pytest.raises(UsageError):
            InferenceSession(
                config=InferenceConfig(state_dir=tmp_path)
            )

    def test_state_dir_requires_paths_not_parsed_documents(self, tmp_path):
        from repro.xmlio.parser import parse_file

        paths = write_corpus(tmp_path, 3)
        documents = [parse_file(path) for path in paths]
        literals = [Path(path).read_text(encoding="utf-8") for path in paths]
        for source in (documents, literals):
            with pytest.raises(UsageError):
                infer(
                    source,
                    config=InferenceConfig(state_dir=tmp_path / "run"),
                )


class TestDegradedCheckpoints:
    def test_strict_resume_never_reuses_a_shard_with_quarantines(self, tmp_path):
        paths = write_corpus(tmp_path, 12)
        (tmp_path / "doc002.xml").write_text("<r><item>", encoding="utf-8")
        state = tmp_path / "run"
        infer(paths, config=InferenceConfig(state_dir=state, max_quarantine=None))
        with pytest.raises(CorpusError):
            infer(paths, config=InferenceConfig(state_dir=state, resume=True))

    def test_missing_file_is_quarantined_and_its_shard_reused(self, tmp_path):
        paths = write_corpus(tmp_path, 12)
        os.unlink(paths[5])
        skip = {"max_quarantine": None, "state_dir": tmp_path / "run"}
        first = infer(paths, config=InferenceConfig(**skip))
        recorder = StatsRecorder()
        resumed = infer(
            paths, config=InferenceConfig(**skip, resume=True, recorder=recorder)
        )
        assert "ckpt.write" not in recorder.snapshot()["counters"]  # all reused
        survivors = paths[:5] + paths[6:]
        assert resumed.render() == first.render() == infer(survivors).render()
        for result in (first, resumed):
            assert [doc.path for doc in result.degradation.quarantined] == [paths[5]]

    @pytest.mark.parametrize(
        "extra",
        [
            {"shard_deadline": 30.0},
            {"faults": FaultPlan(worker_crashes=[0])},
            {"faults": FaultPlan(shard_timeouts=[1])},
            {"faults": FaultPlan(corrupt_docs=[3])},
            {"faults": FaultPlan(element_failures=["item"])},
        ],
    )
    def test_every_policy_checkpoints(self, tmp_path, extra):
        paths = write_corpus(tmp_path, 12)
        config = {"method": "idtd", "jobs": 2, "max_quarantine": None, **extra}
        plain = infer(paths, config=InferenceConfig(**config))
        checkpointed = infer(paths, config=InferenceConfig(state_dir=tmp_path / "run", **config))
        assert checkpointed.render() == plain.render()
        assert checkpointed.degradation.to_dict() == plain.degradation.to_dict()

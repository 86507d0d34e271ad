"""The atomic artifact writers every durable path now goes through.

``repro.fsio`` backs the checkpoint codec and manifest and the obs
trace writer; the benchmark JSON writer inlines the same discipline.
The property under test: after any write the destination holds
the complete new content, with no remnant of the old, and no temp
debris survives a successful write.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fsio import atomic_write_bytes, atomic_write_text


class TestAtomicWriters:
    def test_bytes_roundtrip_and_no_debris(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_overwrite_replaces_completely(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "x" * 10_000)
        atomic_write_text(target, "short")
        assert target.read_text() == "short"  # no long-file remnant

    def test_write_into_missing_directory_raises_cleanly(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "absent" / "file.txt", "data")


class TestSweptWriters:
    def test_trace_writer_is_atomic(self, tmp_path):
        from repro.obs.recorder import StatsRecorder
        from repro.obs.report import write_trace_path

        recorder = StatsRecorder()
        with recorder.span("parse"):
            recorder.count("docs")
        target = tmp_path / "trace.jsonl"
        lines = write_trace_path(recorder.snapshot(), str(target))
        content = target.read_text().splitlines()
        assert len(content) == lines
        assert json.loads(content[-1])["type"] == "summary"
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_bench_json_writer_keeps_other_sections(self, tmp_path):
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))
        try:
            from perf_record import update_bench_json
        finally:
            sys.path.pop(0)
        target = str(tmp_path / "BENCH.json")
        update_bench_json("alpha", {"value": 1}, path=target)
        update_bench_json("beta", {"value": 2}, path=target)
        with open(target, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["alpha"] == {"value": 1}
        assert data["beta"] == {"value": 2}
        assert "_meta" in data
        assert os.listdir(tmp_path) == ["BENCH.json"]

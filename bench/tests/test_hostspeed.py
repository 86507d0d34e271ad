"""The host-speed sampler: probes in the calling process and in its forks."""

from __future__ import annotations

import os
import time

import pytest

import hostspeed


def busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        hostspeed.probe_work()


def test_sampler_records_probes_while_the_process_works(tmp_path) -> None:
    prefix = str(tmp_path / "speed")
    sampler = hostspeed.SpeedSampler(prefix)
    started = time.perf_counter()
    sampler.start()
    try:
        busy(0.2)
    finally:
        sampler.stop()
    ended = time.perf_counter()
    records = hostspeed.read_probes(prefix)
    assert len(records) >= 5
    assert all(started <= at <= ended and seconds > 0 for at, seconds in records)
    count = len(records)
    busy(0.05)  # stopped: no more probes
    assert len(hostspeed.read_probes(prefix)) == count


def test_forked_children_restart_the_sampler(tmp_path) -> None:
    prefix = str(tmp_path / "speed")
    sampler = hostspeed.SpeedSampler(prefix)
    sampler.start()
    try:
        pid = os.fork()
        if pid == 0:
            try:
                busy(0.2)
            finally:
                os._exit(0)
        busy(0.2)
        _, status = os.waitpid(pid, 0)
    finally:
        sampler.stop()
    assert status == 0
    files = sorted(path.name for path in tmp_path.iterdir())
    assert files == sorted([f"speed.{os.getpid()}", f"speed.{pid}"])
    assert all((tmp_path / name).stat().st_size > 0 for name in files)


def test_probe_seconds_averages_inside_the_interval() -> None:
    records = [(1.0, 0.1), (2.0, 0.3), (3.0, 0.5)]
    assert hostspeed.probe_seconds(records, 1.5, 3.0) == pytest.approx(0.4)
    assert hostspeed.probe_seconds(records, 3.5, 4.0) is None


def test_read_probes_skips_a_torn_last_record(tmp_path) -> None:
    data = hostspeed._RECORD.pack(1.0, 0.25) + b"\x00\x01"
    (tmp_path / "speed.1").write_bytes(data)
    (tmp_path / "other.1").write_bytes(hostspeed._RECORD.pack(9.0, 9.0))
    assert hostspeed.read_probes(str(tmp_path / "speed")) == [(1.0, 0.25)]


def test_calibration_window_times_the_fixed_workload() -> None:
    window = hostspeed.calibration_window()
    assert 0 < window < 100 * hostspeed.CALIBRATION_NOMINAL_S

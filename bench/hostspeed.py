"""How fast the host runs Python right now, to report times in reference seconds.

A shared host runs each CPU at about half speed for spells of a fraction
of a second, more or less often from one minute to the next; the guest
sees no steal time, so CPU time inflates with wall time.  Two fixed
pure-Python workloads measure it, and neither touches the program:

* a **calibration window** (:func:`calibration_window`, about 0.15 s)
  timed in a fresh process right after it has imported the program,
  which scales that process's set-up time;
* a **probe** (:func:`probe_work`, about 60 µs) that
  :class:`SpeedSampler` runs every 10 ms from a ``SIGALRM`` handler
  inside the timed call itself, in the calling process and in every
  process it forks, which scales the call.

A time scaled by ``nominal / measured`` reads what it would on the
reference host (a quiet 2-CPU cloud VM), where the nominal constants
below were measured.
"""

from __future__ import annotations

import os
import signal
import struct
import time

#: Calls of :func:`calibration_work` per calibration window.
CALIBRATION_CALLS = 50

#: Seconds one calibration window takes on the reference host.
CALIBRATION_NOMINAL_S = 0.150

#: Thread CPU seconds one :func:`probe_work` call takes on the reference host.
PROBE_NOMINAL_S = 60e-6

#: Seconds between probes.  At about 60 µs a probe, the sampler costs
#: under 1% of the call it samples, the same on every commit.
PROBE_INTERVAL_S = 0.01

_RECORD = struct.Struct("dd")  # perf_counter at the probe, thread CPU seconds it took


def calibration_work() -> int:
    """A fixed pure-Python workload: string building, dict counting, sorting.

    It exercises what the program spends its time on (interpreter
    dispatch, small strings, dicts, lists) and nothing of the program
    itself.
    """
    counts: dict[str, int] = {}
    parts = []
    for index in range(6000):
        name = f"e{index % 251}"
        counts[name] = counts.get(name, 0) + 1
        parts.append(f"<{name}>{index}</{name}>")
    text = "".join(parts)
    found = 0
    position = text.find("<e1")
    while position >= 0:
        found += 1
        position = text.find("<e1", position + 1)
    return found + len(sorted(counts, key=lambda key: (counts[key], key)))


def calibration_window() -> float:
    """Seconds for :data:`CALIBRATION_CALLS` calls of :func:`calibration_work`."""
    started = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        calibration_work()
    return time.perf_counter() - started


def probe_work() -> int:
    """The sampler's probe: a few hundred dict and string operations."""
    total = 0
    counts: dict[int, int] = {}
    for index in range(300):
        key = index & 31
        counts[key] = counts.get(key, 0) + index
        total += len(str(index))
    return total


class SpeedSampler:
    """Times :func:`probe_work` every :data:`PROBE_INTERVAL_S` in this process.

    Records go to ``<prefix>.<pid>``.  Processes forked after
    :meth:`start` (worker pools) restart the timer, which fork does not
    inherit, and write their own file, so a call spread over worker
    processes is sampled where its work runs.  Probes time themselves in
    thread CPU time: waiting for the interpreter lock or for this
    program's other processes does not count, a slower host does.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._fd: int | None = None
        os.register_at_fork(after_in_child=self._restart_in_child)

    def start(self) -> None:
        self._open()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _open(self) -> None:
        self._fd = os.open(
            f"{self.prefix}.{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def _restart_in_child(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._open()
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _probe(self, signum: int, frame: object) -> None:
        if self._fd is None:
            return
        at = time.perf_counter()
        started = time.thread_time()
        probe_work()
        os.write(self._fd, _RECORD.pack(at, time.thread_time() - started))


def read_probes(prefix: str) -> list[tuple[float, float]]:
    """Every ``(time, seconds)`` record any process wrote under ``prefix``."""
    directory, stem = os.path.split(prefix)
    records = []
    for name in os.listdir(directory or "."):
        if name.startswith(os.path.basename(stem) + "."):
            with open(os.path.join(directory, name), "rb") as handle:
                data = handle.read()
            usable = len(data) - len(data) % _RECORD.size
            records.extend(_RECORD.iter_unpack(data[:usable]))
    return records


def probe_seconds(records: list[tuple[float, float]], start: float, end: float) -> float | None:
    """Mean probe seconds in ``[start, end]``; None if no probe fell there."""
    inside = [seconds for at, seconds in records if start <= at <= end]
    return sum(inside) / len(inside) if inside else None

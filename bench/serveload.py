"""The daemon as a user sees it: a subprocess answering HTTP on a unix socket.

This module speaks only HTTP and process management; it never imports
``repro``.  Load is a closed loop: each connection sends its next
request only after the previous reply arrived, as callers that wait
for their answer do.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass


class UnixConnection(http.client.HTTPConnection):
    """``http.client`` over an AF_UNIX socket (path relative to the cwd)."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def call(connection: http.client.HTTPConnection, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    connection.request(method, path, body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


class Daemon:
    """``python3 -m repro serve --unix PATH`` started from the checkout root.

    It runs through ``bench/sampled.py``, which starts the host-speed
    sampler (probes under ``speed_prefix``) and then the same module.
    The socket path is relative so it stays under the 108-byte AF_UNIX
    limit however deep the checkout sits.
    """

    def __init__(self, root: str, socket_path: str, log_path: str, speed_prefix: str) -> None:
        self.root = root
        self.socket_path = socket_path
        self.log_path = log_path
        self.speed_prefix = speed_prefix
        self.process: subprocess.Popen[bytes] | None = None
        self.started_at = self.healthy_at = 0.0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the daemon; seconds from spawn until ``/healthz`` answers 200."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sampled.py")
        started = self.started_at = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, launcher, self.speed_prefix, "serve", "--unix", self.socket_path],
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}; see {self.log_path}")
            if time.perf_counter() - started > timeout:
                self.stop()
                raise RuntimeError(f"daemon not healthy after {timeout} s")
            try:
                connection = UnixConnection(self.socket_path, timeout=5.0)
                status, _ = call(connection, "GET", "/healthz")
                connection.close()
                if status == 200:
                    self.healthy_at = time.perf_counter()
                    return self.healthy_at - started
            except OSError:
                pass
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) so far."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> None:
        """Ask for a graceful drain; kill if it does not exit in time."""
        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                connection = UnixConnection(self.socket_path, timeout=5.0)
                call(connection, "POST", "/shutdown")
                connection.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process = None


@dataclass
class Request:
    kind: str  # "infer" | "append" | "validate" | ...
    method: str
    path: str
    body: bytes
    key: object = None  # what the correctness check needs to know


@dataclass
class Reply:
    request: Request
    sent: float
    seconds: float
    status: int
    payload: bytes


def closed_loop(
    socket_path: str,
    streams: list[Iterator[Request]],
    seconds: float,
    milestone: tuple[int, Callable[[], None]] | None = None,
) -> list[Reply]:
    """One thread per stream, each on its own connection, for ``seconds``.

    A request is only sent while time remains; the reply to the last one
    is still awaited, so every request sent is answered.  A failed
    connection is counted as status 0 and reopened.  ``milestone``
    ``(count, callback)`` calls ``callback`` once, when ``count`` replies
    have arrived.
    """
    deadline = time.perf_counter() + seconds
    replies: list[list[Reply]] = [[] for _ in streams]
    arrived = itertools.count(1)
    lock = threading.Lock()

    def drive(index: int) -> None:
        connection = UnixConnection(socket_path)
        try:
            for request in streams[index]:
                sent = time.perf_counter()
                if sent >= deadline:
                    break
                try:
                    status, payload = call(connection, request.method, request.path, request.body)
                except (OSError, http.client.HTTPException) as exc:
                    status, payload = 0, repr(exc).encode()
                    connection.close()
                    connection = UnixConnection(socket_path)
                replies[index].append(
                    Reply(request, sent, time.perf_counter() - sent, status, payload)
                )
                if milestone is not None:
                    with lock:
                        if next(arrived) == milestone[0]:
                            milestone[1]()
        finally:
            connection.close()

    threads = [threading.Thread(target=drive, args=(index,)) for index in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")
    return [reply for per_connection in replies for reply in per_connection]


def json_body(payload: object) -> bytes:
    return json.dumps(payload).encode("utf-8")

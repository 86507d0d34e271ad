"""Daemon throughput benchmark: requests per second through repro.serve.

Drives a live :class:`~repro.serve.daemon.ServerThread` over a unix socket —
the full stack (HTTP parse, admission, thread-pool dispatch, façade
inference, JSON render) with no TCP port allocation flakiness — and
records the ``serve`` section of ``BENCH_serve.json``:

* ``infer``   — one-shot ``POST /infer`` on the small-corpus profile,
  sequential over one keep-alive connection; this is the headline
  number :mod:`benchmarks.perf_gate` holds a 50 req/s floor under.
* ``healthz`` — ``GET /healthz``, the pure protocol/admission overhead
  ceiling (no inference work).
* ``session_append`` — incremental ``POST /sessions/<id>/append``, one
  document per request: the monoid-fold path.

Latency percentiles (p50/p99) come from per-request wall timings on
the client side, so they include everything a real caller sees.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import time
from typing import Any

from perf_record import update_bench_json
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.serve.daemon import ServeConfig, ServerThread
from repro.xmlio.dtd import parse_dtd

BENCH_SERVE_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_serve.json",
)

CORPUS_DTD = (
    "<!ELEMENT r (meta?, item+)>"
    "<!ELEMENT meta (#PCDATA)>"
    "<!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)>"
    "<!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY>"
)


class UnixHTTPConnection(http.client.HTTPConnection):
    """http.client over an AF_UNIX socket."""

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def _small_corpus(count: int) -> list[str]:
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(42))
    return [serialize(document) for document in generator.corpus(count)]


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def _drive(
    conn: http.client.HTTPConnection,
    requests: list[tuple[str, str, bytes]],
) -> dict[str, Any]:
    """Send every request sequentially; return throughput + latency."""
    latencies: list[float] = []
    started = time.perf_counter()
    for method, path, body in requests:
        t0 = time.perf_counter()
        conn.request(method, path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        latencies.append(time.perf_counter() - t0)
        assert response.status in (200, 201), (
            f"{method} {path} -> {response.status}: {payload[:200]!r}"
        )
    total = time.perf_counter() - started
    latencies.sort()
    return {
        "requests": len(requests),
        "seconds": round(total, 4),
        "req_per_s": round(len(requests) / total, 2) if total else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
    }


def test_serve_throughput_recorded(tmp_path, scale):
    """req/s and p50/p99 through the live daemon, written to BENCH_serve.json."""
    documents = _small_corpus(40 if scale.is_full else 20)
    infer_body = json.dumps({"documents": documents}).encode()
    rounds = 300 if scale.is_full else 100

    socket_path = str(tmp_path / "bench.sock")
    with ServerThread(ServeConfig(unix_path=socket_path)):
        conn = UnixHTTPConnection(socket_path)

        healthz = _drive(conn, [("GET", "/healthz", b"")] * rounds)
        infer = _drive(conn, [("POST", "/infer", infer_body)] * rounds)

        conn.request("POST", "/sessions", b"{}")
        response = conn.getresponse()
        sid = json.loads(response.read())["session"]
        assert response.status == 201
        appends = [
            (
                "POST",
                f"/sessions/{sid}/append",
                json.dumps({"documents": [documents[i % len(documents)]]}).encode(),
            )
            for i in range(rounds)
        ]
        session_append = _drive(conn, appends)
        conn.close()

    payload = {
        "profile": f"{len(documents)}-doc small corpus",
        "healthz": healthz,
        "infer": infer,
        "session_append": session_append,
    }
    table = Table(
        headers=("endpoint", "requests", "req/s", "p50 ms", "p99 ms"),
        title="daemon throughput (unix socket, sequential keep-alive)",
    )
    for name in ("healthz", "infer", "session_append"):
        row = payload[name]
        table.add(
            name,
            str(row["requests"]),
            f"{row['req_per_s']:.1f}",
            f"{row['p50_ms']:.2f}",
            f"{row['p99_ms']:.2f}",
        )
    table.show()
    update_bench_json("serve", payload, path=BENCH_SERVE_JSON)
    # perf_gate.py enforces the committed baseline with a relative
    # band; this floor is the absolute meaning of the number — a warm
    # daemon must clear 50 one-shot inferences per second on the
    # small-corpus profile.
    assert infer["req_per_s"] >= 50.0, (
        f"daemon served {infer['req_per_s']:.1f} req/s on the small-corpus "
        "profile; the floor is 50"
    )

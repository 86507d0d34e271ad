"""End-to-end tests for the asyncio daemon (:mod:`repro.serve.daemon`).

Real sockets, real threads: each test starts a :class:`ServerThread`
on an ephemeral port (or a unix socket) and speaks HTTP/1.1 at it with
:mod:`http.client`.  Timing-sensitive behaviours (backpressure,
deadlines, drain) are gated on :class:`threading.Event`, never on
sleeps alone.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any

import pytest

from repro import api
from repro.errors import UsageError
from repro.serve.app import ReproApp, Response
from repro.serve.daemon import ServeConfig, ServerThread

DOCS = [
    "<catalog><item/><item/><price/></catalog>",
    "<catalog><item/><price/></catalog>",
    "<catalog><price/></catalog>",
]


class UnixHTTPConnection(http.client.HTTPConnection):
    """http.client over an AF_UNIX socket."""

    def __init__(self, path: str, timeout: float = 10.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def request(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict[str, Any], dict[str, str]]:
    """One request/response on an open connection."""
    raw = json.dumps(body).encode() if body is not None else b""
    conn.request(method, path, raw, headers or {})
    response = conn.getresponse()
    payload = json.loads(response.read())
    return response.status, payload, dict(response.getheaders())


class GateApp(ReproApp):
    """A ReproApp with one extra, event-gated route for timing tests."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(
        self,
        method: str,
        target: str,
        body: bytes,
        *,
        deadline: float | None = None,
    ) -> Response:
        if target == "/slow":
            self.entered.set()
            self.release.wait(timeout=30)
            return Response(status=200, payload={"slow": True})
        return super().handle(method, target, body, deadline=deadline)


class TestRoundTrips:
    def test_tcp_infer_round_trip(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, payload, _ = request(
                conn, "POST", "/infer", {"documents": DOCS}
            )
            conn.close()
        assert status == 200
        assert payload["dtd"] == api.infer(DOCS).render()

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with ServerThread(ServeConfig(unix_path=path)) as server:
            assert server.port is None
            conn = UnixHTTPConnection(path)
            status, payload, _ = request(conn, "GET", "/healthz")
            conn.close()
            assert status == 200
            assert payload["status"] == "ok"
        # graceful stop removes the socket file
        with pytest.raises(OSError):
            UnixHTTPConnection(path).connect()

    def test_keep_alive_reuses_connection(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            for _ in range(3):
                status, _, headers = request(conn, "GET", "/healthz")
                assert status == 200
                assert headers["Connection"] == "keep-alive"
            conn.close()

    def test_connection_close_honoured(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, _, headers = request(
                conn, "GET", "/healthz", headers={"Connection": "close"}
            )
            conn.close()
        assert status == 200
        assert headers["Connection"] == "close"

    def test_404_and_422_over_the_wire(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, _, _ = request(conn, "GET", "/nope")
            assert status == 404
            status, payload, _ = request(
                conn, "POST", "/infer", {"documents": ["<a><b></a>"]}
            )
            assert status == 422
            assert payload["error"]["type"] == "XmlSyntaxError"
            conn.close()

    def test_protocol_error_answers_400_and_closes(self):
        with ServerThread(ServeConfig(port=0)) as server:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
            sock.close()
        assert raw.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"Connection: close" in raw


class TestSessionsOverHttp:
    def test_session_chunks_match_one_shot(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, payload, _ = request(conn, "POST", "/sessions", {})
            assert status == 201
            sid = payload["session"]
            for document in DOCS:
                status, _, _ = request(
                    conn,
                    "POST",
                    f"/sessions/{sid}/append",
                    {"documents": [document]},
                )
                assert status == 200
            status, payload, _ = request(conn, "GET", f"/sessions/{sid}/dtd")
            assert status == 200
            assert payload["dtd"] == api.infer(DOCS).render()
            status, payload, _ = request(conn, "DELETE", f"/sessions/{sid}")
            assert status == 200
            status, _, _ = request(conn, "GET", f"/sessions/{sid}/dtd")
            assert status == 404
            conn.close()

    def test_concurrent_sessions_stay_isolated(self):
        corpora = {
            "a": [f"<a>{'<x/>' * n}</a>" for n in range(1, 6)],
            "b": [f"<b><y/>{'<z/>' * n}</b>" for n in range(5)],
        }
        with ServerThread(ServeConfig(port=0, max_concurrency=4)) as server:
            setup = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            ids = {}
            for key in corpora:
                _, payload, _ = request(setup, "POST", "/sessions", {})
                ids[key] = payload["session"]
            setup.close()

            failures: list[str] = []

            def feed(key: str) -> None:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                for document in corpora[key]:
                    status, _, _ = request(
                        conn,
                        "POST",
                        f"/sessions/{ids[key]}/append",
                        {"documents": [document]},
                    )
                    if status != 200:
                        failures.append(f"{key}: append -> {status}")
                conn.close()

            threads = [
                threading.Thread(target=feed, args=(key,)) for key in corpora
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert failures == []

            check = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            for key, docs in corpora.items():
                status, payload, _ = request(
                    check, "GET", f"/sessions/{ids[key]}/dtd"
                )
                assert status == 200
                assert payload["dtd"] == api.infer(docs).render(), key
            check.close()


class TestBackpressure:
    def test_429_when_full_then_recovers(self):
        app = GateApp()
        config = ServeConfig(port=0, max_concurrency=1)
        with ServerThread(config, app) as server:
            results: list[int] = []

            def occupy() -> None:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                status, _, _ = request(conn, "GET", "/slow")
                results.append(status)
                conn.close()

            blocker = threading.Thread(target=occupy)
            blocker.start()
            assert app.entered.wait(timeout=10)

            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, payload, headers = request(conn, "GET", "/healthz")
            assert status == 429
            assert payload["error"]["type"] == "OverCapacity"
            assert headers["Retry-After"] == "1"

            app.release.set()
            blocker.join(timeout=10)
            assert results == [200]

            # capacity freed: the same connection now gets through
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, _ = request(conn, "GET", "/healthz")
                if status == 200:
                    break
            assert status == 200
            conn.close()


class TestDeadlines:
    def test_wall_clock_deadline_answers_503(self):
        app = GateApp()
        with ServerThread(ServeConfig(port=0, max_concurrency=2), app) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, payload, headers = request(
                conn, "GET", "/slow", headers={"X-Repro-Deadline": "0.2"}
            )
            assert status == 503
            assert payload["error"]["type"] == "DeadlineExceeded"
            assert headers["Retry-After"] == "1"
            app.release.set()
            # the overrun worker still finishes and frees its slot
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, payload, _ = request(conn, "GET", "/healthz")
                if status == 200 and payload["active_requests"] == 1:
                    break
            assert payload["active_requests"] == 1  # just this request
            conn.close()

    def test_bad_deadline_header_is_400(self):
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, payload, _ = request(
                conn, "GET", "/healthz", headers={"X-Repro-Deadline": "soon"}
            )
            conn.close()
        assert status == 400
        assert "must be a number" in payload["error"]["message"]

    def test_engine_shard_timeout_maps_to_503_with_degradation(self, tmp_path):
        paths = []
        for index, text in enumerate(DOCS):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(text)
            paths.append(str(path))
        with ServerThread(ServeConfig(port=0)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            status, payload, _ = request(
                conn,
                "POST",
                "/infer",
                {
                    "paths": paths,
                    "config": {
                        "jobs": 2,
                        "faults": {"shard_timeouts": [0], "attempts": 99},
                    },
                },
                # the request deadline reaches the shard-deadline
                # machinery; the injected timeout then exhausts retries
                headers={"X-Repro-Deadline": "30"},
            )
            conn.close()
        assert status == 503
        assert payload["error"]["type"] == "ShardTimeout"
        degradation = payload["error"]["degradation"]
        assert degradation is not None
        assert degradation["retried_shards"]


class TestShutdown:
    def test_remote_shutdown_drains_in_flight_requests(self):
        app = GateApp()
        config = ServeConfig(port=0, max_concurrency=2, drain_timeout=30.0)
        server = ServerThread(config, app).start()
        results: list[int] = []

        def occupy() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            status, _, _ = request(conn, "GET", "/slow")
            results.append(status)
            conn.close()

        blocker = threading.Thread(target=occupy)
        blocker.start()
        assert app.entered.wait(timeout=10)

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        status, payload, _ = request(conn, "POST", "/shutdown")
        conn.close()
        assert status == 200
        assert payload["draining"] is True

        # in-flight work completes during the drain window
        app.release.set()
        blocker.join(timeout=30)
        assert results == [200]

        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=2)

    def test_draining_server_answers_503_on_kept_alive_connections(self):
        app = GateApp()
        config = ServeConfig(port=0, max_concurrency=2, drain_timeout=30.0)
        server = ServerThread(config, app).start()
        try:
            blocker_conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            blocker_result: list[int] = []

            def occupy() -> None:
                status, _, _ = request(blocker_conn, "GET", "/slow")
                blocker_result.append(status)

            blocker = threading.Thread(target=occupy)
            blocker.start()
            assert app.entered.wait(timeout=10)

            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, _, _ = request(conn, "POST", "/shutdown")
            assert status == 200
            # the shutdown takes effect on the loop moments later; the
            # kept-alive connection then sees 503 Draining
            status = 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and status != 503:
                try:
                    status, payload, _ = request(conn, "GET", "/healthz")
                except (http.client.HTTPException, OSError):
                    pytest.skip("drain closed the connection first")
            assert status == 503
            assert payload["error"]["type"] == "Draining"
            conn.close()
        finally:
            app.release.set()
            server.stop()

    def test_shutdown_route_disabled(self):
        config = ServeConfig(port=0, allow_remote_shutdown=False)
        with ServerThread(config) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            status, _, _ = request(conn, "POST", "/shutdown")
            conn.close()
        assert status == 400


class TestServeConfig:
    def test_needs_a_listener(self):
        with pytest.raises(UsageError, match="at least one listener"):
            ServeConfig()

    def test_port_range(self):
        with pytest.raises(UsageError, match="port must be"):
            ServeConfig(port=70000)

    def test_max_concurrency_floor(self):
        with pytest.raises(UsageError, match="max_concurrency"):
            ServeConfig(port=0, max_concurrency=0)

    def test_default_deadline_positive(self):
        with pytest.raises(UsageError, match="default_deadline"):
            ServeConfig(port=0, default_deadline=0)

    def test_drain_timeout_nonnegative(self):
        with pytest.raises(UsageError, match="drain_timeout"):
            ServeConfig(port=0, drain_timeout=-1)

    def test_ephemeral_port_is_reported(self):
        with ServerThread(ServeConfig(port=0)) as server:
            assert isinstance(server.port, int)
            assert server.port > 0

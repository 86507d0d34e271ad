"""The daemon's application core: routes, sessions, error mapping.

Everything here is synchronous and transport-agnostic — the asyncio
daemon (:mod:`repro.serve.daemon`) parses HTTP and calls
:meth:`ReproApp.handle` on a worker thread; tests call it directly
with no sockets at all.  The app speaks **only** the public façade
(:mod:`repro.api`): inference, validation, diffing and sessions all go
through the same entry points a library user gets, so the daemon can
never drift from the library's semantics (lint rule R001 enforces
this structurally).

Error mapping is the :mod:`repro.errors` split, transposed onto HTTP:

======================  ======
:class:`UsageError`     400
unknown session         404
:class:`CorpusError`    422
:class:`ShardTimeout`   503 (+ ``Retry-After``, partial degradation)
:class:`InternalError`  500
======================  ======
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .. import api
from ..errors import CorpusError, ReproError, ShardTimeout, UsageError
from ..obs.recorder import NULL_RECORDER, StatsRecorder
from ..obs.report import summary_dict

#: InferenceConfig fields a request may set (everything serializable;
#: the recorder is a process-level concern the app owns).
CONFIG_KEYS = frozenset(
    {
        "method",
        "jobs",
        "numeric",
        "support_threshold",
        "sparse_threshold",
        "infer_attributes",
        "cache",
        "max_quarantine",
        "shard_deadline",
        "faults",
    }
)

#: What ``documents`` entries must look like: the markup test of
#: :func:`repro.xmlio.parser.is_xml_text`, which decides for the
#: façade whether a string is a literal or a path (whitespace or a
#: byte-order mark, then ``<``).
_XML_LITERAL = re.compile(r"[\s\ufeff]*<")


class NotFoundError(UsageError):
    """The request names a route or resource that does not exist (→ 404)."""


class UnknownSessionError(NotFoundError):
    """The request names a session that does not exist (→ 404)."""


@dataclass
class Response:
    """What one request produced: a status, a JSON payload, headers."""

    status: int
    payload: dict[str, Any]
    headers: dict[str, str] = field(default_factory=dict)

    def body(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


def status_for(error: BaseException) -> int:
    """The HTTP status for an exception, mirroring ``exit_code_for``."""
    if isinstance(error, ShardTimeout):
        return 503
    if isinstance(error, NotFoundError):
        return 404
    if isinstance(error, UsageError):
        return 400
    if isinstance(error, CorpusError):
        return 422
    return 500


def error_response(error: BaseException) -> Response:
    """The JSON error envelope, with any partial degradation attached."""
    status = status_for(error)
    degradation = getattr(error, "degradation", None)
    payload: dict[str, Any] = {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "degradation": (
                degradation.to_dict() if degradation is not None else None
            ),
        }
    }
    headers = {"Retry-After": "1"} if status in (429, 503) else {}
    return Response(status=status, payload=payload, headers=headers)


@dataclass
class _Session:
    """One live session plus its lock and per-session recorder."""

    id: str
    session: api.InferenceSession
    recorder: StatsRecorder | None
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionStore:
    """Thread-safe registry of live sessions with deterministic ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._ids = itertools.count(1)

    def create(
        self, session: api.InferenceSession, recorder: StatsRecorder | None
    ) -> _Session:
        with self._lock:
            entry = _Session(
                id=f"s{next(self._ids)}", session=session, recorder=recorder
            )
            self._sessions[entry.id] = entry
            return entry

    def get(self, session_id: str) -> _Session:
        with self._lock:
            entry = self._sessions.get(session_id)
        if entry is None:
            raise UnknownSessionError(f"no such session: {session_id}")
        return entry

    def close(self, session_id: str) -> _Session:
        with self._lock:
            entry = self._sessions.pop(session_id, None)
        if entry is None:
            raise UnknownSessionError(f"no such session: {session_id}")
        with entry.lock:
            entry.session.close()
        return entry

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            entries = list(self._sessions.values())
        return [
            {"id": entry.id, "documents": entry.session.total_documents}
            for entry in entries
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


def _parse_body(body: bytes) -> dict[str, Any]:
    if not body:
        return {}
    try:
        parsed = json.loads(body)
    except json.JSONDecodeError as exc:
        raise UsageError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise UsageError(
            f"request body must be a JSON object, got {type(parsed).__name__}"
        )
    return parsed


def _source_from(body: dict[str, Any]) -> list[str]:
    """The document source a request carries: literals and/or paths."""
    documents = body.get("documents", [])
    paths = body.get("paths", [])
    for name, values in (("documents", documents), ("paths", paths)):
        if not isinstance(values, list) or not all(
            isinstance(value, str) for value in values
        ):
            raise UsageError(f"{name} must be a list of strings")
    for document in documents:
        if _XML_LITERAL.match(document) is None:
            raise UsageError(
                "documents must be XML literals; use 'paths' for "
                "server-local files"
            )
    source: list[str] = list(documents) + list(paths)
    if not source:
        raise UsageError("request needs 'documents' and/or 'paths'")
    return source


def _config_from(
    body: dict[str, Any],
    *,
    deadline: float | None,
    recorder: StatsRecorder | None,
) -> api.InferenceConfig:
    """An :class:`~repro.api.InferenceConfig` from a request.

    A request deadline maps onto the existing shard-deadline machinery
    unless the config sets its own (explicit wins: it is the more
    deliberate choice).  ``faults`` must be a JSON object, read by
    :meth:`~repro.runtime.resilience.FaultPlan.from_mapping`; absent or
    ``null``, the config's default (``REPRO_FAULTS``) stands.
    """
    raw = body.get("config", {})
    if not isinstance(raw, dict):
        raise UsageError(
            f"config must be a JSON object, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise UsageError(
            f"unknown config keys: {', '.join(unknown)} "
            f"(expected a subset of {', '.join(sorted(CONFIG_KEYS))})"
        )
    kwargs: dict[str, Any] = dict(raw)
    faults = kwargs.pop("faults", None)
    if faults is not None:
        if not isinstance(faults, dict):
            raise UsageError(
                f"faults must be a JSON object, got {type(faults).__name__}"
            )
        kwargs["faults"] = api.FaultPlan.from_mapping(faults)
    if deadline is not None and "shard_deadline" not in kwargs:
        kwargs["shard_deadline"] = deadline
    if recorder is not None:
        kwargs["recorder"] = recorder
    return api.InferenceConfig(**kwargs)


def _request_recorder(body: dict[str, Any]) -> StatsRecorder | None:
    """Opt-in per-request stats.

    The recorder's measured cost (``obs.recorder_overhead`` in
    ``bench/README.md``) is a 0.94–1.01x wall-clock ratio on batch
    inference and 1.14x with ``jobs=2``.
    """
    if body.get("stats"):
        return StatsRecorder()
    return None


def _stats_payload(recorder: StatsRecorder | None) -> dict[str, Any] | None:
    if recorder is None:
        return None
    return summary_dict(recorder.snapshot())


def _degradation_payload(
    result: api.InferenceResult,
) -> dict[str, Any] | None:
    if not result.degradation.degraded:
        return None
    return result.degradation.to_dict()


class ReproApp:
    """Route dispatch over the façade, with request accounting."""

    def __init__(
        self,
        *,
        on_shutdown: Callable[[], None] | None = None,
        runtime_info: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.sessions = SessionStore()
        self._on_shutdown = on_shutdown
        self._runtime_info = runtime_info
        self._counters: dict[str, int] = {}
        self._counters_lock = threading.Lock()
        self._started = time.monotonic()

    def bind_runtime(
        self,
        *,
        on_shutdown: Callable[[], None] | None,
        runtime_info: Callable[[], dict[str, Any]] | None,
    ) -> None:
        """Wire daemon callbacks into an externally-supplied app.

        Constructor-supplied callbacks win; only unset slots are
        filled, so an app can still opt out of remote shutdown.
        """
        if self._on_shutdown is None:
            self._on_shutdown = on_shutdown
        if self._runtime_info is None:
            self._runtime_info = runtime_info

    def count(self, name: str, delta: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def counters(self) -> dict[str, int]:
        with self._counters_lock:
            return dict(self._counters)

    # -- dispatch --------------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        body: bytes,
        *,
        deadline: float | None = None,
    ) -> Response:
        """One request, start to finish; never raises."""
        started = time.perf_counter()
        try:
            response = self._dispatch(method, target, body, deadline)
            self.count(f"responses.{response.status}")
        except ReproError as exc:
            response = error_response(exc)
            self.count(f"responses.{response.status}")
        # lint: allow R003 — last-resort handler: maps to a 500 response
        except Exception as exc:
            response = error_response(exc)
            self.count("responses.500")
        response.payload.setdefault(
            "elapsed_ms", round((time.perf_counter() - started) * 1000, 3)
        )
        return response

    def _dispatch(
        self, method: str, target: str, body: bytes, deadline: float | None
    ) -> Response:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        segments = path.strip("/").split("/")
        self.count("requests")
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/stats" and method == "GET":
            return self._stats()
        if path == "/infer" and method == "POST":
            return self._infer(_parse_body(body), deadline)
        if path == "/validate" and method == "POST":
            return self._validate(_parse_body(body))
        if path == "/diff" and method == "POST":
            return self._diff(_parse_body(body))
        if path == "/shutdown" and method == "POST":
            return self._shutdown()
        if path == "/sessions" and method == "POST":
            return self._session_create(_parse_body(body))
        if path == "/sessions" and method == "GET":
            return self._session_list()
        if len(segments) == 2 and segments[0] == "sessions":
            if method == "DELETE":
                return self._session_close(segments[1])
        if len(segments) == 3 and segments[0] == "sessions":
            session_id, action = segments[1], segments[2]
            if action == "append" and method == "POST":
                return self._session_append(session_id, _parse_body(body))
            if action == "dtd" and method == "GET":
                return self._session_dtd(session_id)
        raise NotFoundError(f"no route for {method} {path}")

    # -- endpoints -------------------------------------------------------------

    def _healthz(self) -> Response:
        payload: dict[str, Any] = {
            "status": "ok",
            "sessions": len(self.sessions),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        if self._runtime_info is not None:
            payload.update(self._runtime_info())
        return Response(status=200, payload=payload)

    def _stats(self) -> Response:
        payload: dict[str, Any] = {
            "counters": self.counters(),
            "sessions": self.sessions.snapshot(),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        if self._runtime_info is not None:
            payload.update(self._runtime_info())
        return Response(status=200, payload=payload)

    def _infer(self, body: dict[str, Any], deadline: float | None) -> Response:
        recorder = _request_recorder(body)
        config = _config_from(body, deadline=deadline, recorder=recorder)
        result = api.infer(_source_from(body), config=config)
        fmt = body.get("format", "dtd")
        if fmt not in ("dtd", "xsd"):
            raise UsageError(f"unknown format {fmt!r}: expected 'dtd' or 'xsd'")
        rendered = result.render() if fmt == "dtd" else result.to_xsd()
        return Response(
            status=200,
            payload={
                "dtd" if fmt == "dtd" else "xsd": rendered,
                "elements": len(result.dtd.elements),
                "degradation": _degradation_payload(result),
                "stats": _stats_payload(recorder),
            },
        )

    def _validate(self, body: dict[str, Any]) -> Response:
        dtd = body.get("dtd")
        if not isinstance(dtd, str):
            raise UsageError("validate needs 'dtd': DTD text")
        recorder = _request_recorder(body)
        max_violations = body.get("max_violations")
        if max_violations is not None and not isinstance(max_violations, int):
            raise UsageError("max_violations must be an integer")
        config = api.ValidationConfig(
            max_violations=max_violations,
            recorder=recorder if recorder is not None else NULL_RECORDER,
        )
        result = api.validate(_source_from(body), dtd, config)
        payload = result.to_dict()
        payload["stats"] = _stats_payload(recorder)
        return Response(status=200, payload=payload)

    def _diff(self, body: dict[str, Any]) -> Response:
        old, new = body.get("old"), body.get("new")
        if not isinstance(old, str) or not isinstance(new, str):
            raise UsageError("diff needs 'old' and 'new': DTD text")
        config = api.DiffConfig(include_equal=bool(body.get("include_equal")))
        result = api.diff(old, new, config)
        return Response(status=200, payload=result.to_dict())

    def _shutdown(self) -> Response:
        if self._on_shutdown is None:
            raise UsageError("this server does not accept remote shutdown")
        self._on_shutdown()
        return Response(status=200, payload={"draining": True})

    # -- sessions --------------------------------------------------------------

    def _session_create(self, body: dict[str, Any]) -> Response:
        recorder = _request_recorder(body)
        config = _config_from(body, deadline=None, recorder=recorder)
        entry = self.sessions.create(
            api.InferenceSession(config), recorder
        )
        self.count("sessions.created")
        return Response(status=201, payload={"session": entry.id})

    def _session_list(self) -> Response:
        return Response(
            status=200, payload={"sessions": self.sessions.snapshot()}
        )

    def _session_append(
        self, session_id: str, body: dict[str, Any]
    ) -> Response:
        entry = self.sessions.get(session_id)
        source = _source_from(body)
        with entry.lock:
            receipt = entry.session.append(source)
        return Response(
            status=200,
            payload={
                "session": entry.id,
                "documents": receipt.documents,
                "total_documents": receipt.total_documents,
                "elements": receipt.elements,
                "stats": _stats_payload(entry.recorder),
            },
        )

    def _session_dtd(self, session_id: str) -> Response:
        entry = self.sessions.get(session_id)
        with entry.lock:
            result = entry.session.current_dtd()
        return Response(
            status=200,
            payload={
                "session": entry.id,
                "dtd": result.render(),
                "elements": len(result.dtd.elements),
                "total_documents": entry.session.total_documents,
                "degradation": _degradation_payload(result),
                "stats": _stats_payload(entry.recorder),
            },
        )

    def _session_close(self, session_id: str) -> Response:
        entry = self.sessions.close(session_id)
        self.count("sessions.closed")
        return Response(status=200, payload={"session": entry.id, "closed": True})

"""Route-level tests for :class:`repro.serve.app.ReproApp`.

These drive :meth:`ReproApp.handle` directly — no sockets, no threads —
so every route, error mapping and session behaviour is covered
synchronously.  The daemon tests (test_daemon.py) add the transport.
"""

from __future__ import annotations

import json
from typing import Any

import pytest

from repro import api
from repro.errors import (
    CorpusError,
    InternalError,
    ShardTimeout,
    UsageError,
)
from repro.runtime.resilience import DegradationReport, QuarantinedDocument
from repro.serve.app import (
    NotFoundError,
    ReproApp,
    Response,
    UnknownSessionError,
    error_response,
    status_for,
)

DOCS = [
    "<catalog><item/><item/><price/></catalog>",
    "<catalog><item/><price/></catalog>",
    "<catalog><price/></catalog>",
]

#: DOCS plus one intruder (``gift``) that ``support_threshold=2`` drops.
NOISY = [*DOCS, "<catalog><item/><gift/><price/></catalog>"]


def call(
    app: ReproApp,
    method: str,
    target: str,
    body: dict[str, Any] | None = None,
    *,
    deadline: float | None = None,
) -> Response:
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle(method, target, raw, deadline=deadline)


@pytest.fixture
def app() -> ReproApp:
    return ReproApp()


class TestStatusMapping:
    def test_status_for(self):
        assert status_for(ShardTimeout("x")) == 503
        assert status_for(NotFoundError("x")) == 404
        assert status_for(UnknownSessionError("x")) == 404
        assert status_for(UsageError("x")) == 400
        assert status_for(CorpusError("x")) == 422
        assert status_for(InternalError("x")) == 500
        assert status_for(RuntimeError("x")) == 500

    def test_error_envelope(self):
        response = error_response(UsageError("bad input"))
        assert response.status == 400
        assert response.payload["error"]["type"] == "UsageError"
        assert response.payload["error"]["message"] == "bad input"
        assert response.payload["error"]["degradation"] is None
        assert "Retry-After" not in response.headers

    def test_degradation_rides_the_envelope(self):
        report = DegradationReport()
        report.quarantined.append(
            QuarantinedDocument(path="bad.xml", cause="boom", position=3)
        )
        error = ShardTimeout("shard 0 blew its deadline")
        error.degradation = report
        response = error_response(error)
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        degradation = response.payload["error"]["degradation"]
        assert degradation["quarantined"][0]["path"] == "bad.xml"


class TestBasicRoutes:
    def test_healthz(self, app):
        response = call(app, "GET", "/healthz")
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["sessions"] == 0

    def test_unknown_route_is_404(self, app):
        assert call(app, "GET", "/nope").status == 404

    def test_wrong_method_is_404(self, app):
        assert call(app, "DELETE", "/infer").status == 404

    def test_trailing_slash_tolerated(self, app):
        assert call(app, "GET", "/healthz/").status == 200

    def test_query_string_ignored(self, app):
        assert call(app, "GET", "/healthz?probe=1").status == 200

    def test_handle_never_raises(self, app):
        response = call(app, "POST", "/infer", {"documents": 7})
        assert response.status == 400

    def test_stats_counts_responses(self, app):
        call(app, "GET", "/healthz")
        call(app, "GET", "/nope")
        response = call(app, "GET", "/stats")
        counters = response.payload["counters"]
        assert counters["responses.200"] == 1
        assert counters["responses.404"] == 1
        # the /stats request itself is counted before the snapshot
        assert counters["requests"] == 3

    def test_elapsed_ms_present(self, app):
        response = call(app, "GET", "/healthz")
        assert response.payload["elapsed_ms"] >= 0

    def test_runtime_info_merged(self):
        app = ReproApp(runtime_info=lambda: {"active_requests": 2})
        assert call(app, "GET", "/healthz").payload["active_requests"] == 2

    def test_shutdown_without_callback_is_400(self, app):
        assert call(app, "POST", "/shutdown").status == 400

    def test_shutdown_fires_callback(self):
        fired = []
        app = ReproApp(on_shutdown=lambda: fired.append(True))
        response = call(app, "POST", "/shutdown")
        assert response.status == 200
        assert response.payload["draining"] is True
        assert fired == [True]


class TestInfer:
    def test_one_shot_matches_library(self, app):
        # An explicit empty plan: an ambient REPRO_FAULTS worker crash
        # would retry batch's one shard and report a degradation.
        response = call(
            app, "POST", "/infer", {"documents": DOCS, "config": {"faults": {}}}
        )
        assert response.status == 200
        assert response.payload["dtd"] == api.infer(DOCS).render()
        assert response.payload["elements"] == 3
        assert response.payload["degradation"] is None
        assert response.payload["stats"] is None

    def test_xsd_format(self, app):
        response = call(
            app, "POST", "/infer", {"documents": DOCS, "format": "xsd"}
        )
        assert response.status == 200
        assert response.payload["xsd"] == api.infer(DOCS).to_xsd()

    def test_unknown_format_is_400(self, app):
        response = call(
            app, "POST", "/infer", {"documents": DOCS, "format": "rng"}
        )
        assert response.status == 400

    def test_config_honoured(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": DOCS, "config": {"method": "crx"}},
        )
        expected = api.infer(DOCS, config=api.InferenceConfig(method="crx"))
        assert response.payload["dtd"] == expected.render()

    def test_streaming_support_threshold_matches_batch(self, app):
        config = {"support_threshold": 2}
        batch = call(app, "POST", "/infer", {"documents": NOISY, "config": config})
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": NOISY, "config": {**config, "streaming": True}},
        )
        assert response.status == 200
        assert response.payload["dtd"] == batch.payload["dtd"]
        assert "gift" not in response.payload["dtd"]

    def test_unknown_config_key_is_400(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": DOCS, "config": {"recorder": "mine"}},
        )
        assert response.status == 400
        assert "unknown config keys" in response.payload["error"]["message"]

    def test_empty_source_is_400(self, app):
        assert call(app, "POST", "/infer", {}).status == 400

    def test_non_xml_document_is_400(self, app):
        response = call(app, "POST", "/infer", {"documents": ["notxml"]})
        assert response.status == 400
        assert "paths" in response.payload["error"]["message"]

    def test_malformed_xml_is_422(self, app):
        response = call(app, "POST", "/infer", {"documents": ["<a><b></a>"]})
        assert response.status == 422

    def test_malformed_xml_is_quarantined_in_skip_mode(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": [*DOCS, "<a><b></a>"], "config": {"on_error": "skip"}},
        )
        assert response.status == 200
        assert response.payload["dtd"] == api.infer(DOCS).render()
        (quarantined,) = response.payload["degradation"]["quarantined"]
        assert quarantined["path"] == "<document #3>"

    def test_bad_json_body_is_400(self, app):
        response = app.handle("POST", "/infer", b"{nope")
        assert response.status == 400

    def test_non_object_body_is_400(self, app):
        response = app.handle("POST", "/infer", b"[1, 2]")
        assert response.status == 400

    def test_stats_opt_in(self, app):
        response = call(app, "POST", "/infer", {"documents": DOCS, "stats": True})
        stats = response.payload["stats"]
        assert stats is not None
        assert "wall_seconds" in stats

    def test_request_deadline_maps_to_shard_deadline(self, app, tmp_path):
        paths = []
        for index, text in enumerate(DOCS):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(text)
            paths.append(str(path))
        # A persistent injected timeout on shard 0 exhausts retries and
        # surfaces as ShardTimeout — but only because the request
        # deadline flowed into the shard-deadline machinery.
        response = call(
            app,
            "POST",
            "/infer",
            {
                "paths": paths,
                "config": {
                    "jobs": 2,
                    "streaming": True,
                    "faults": {"shard_timeouts": [0], "attempts": 99},
                },
            },
            deadline=5.0,
        )
        assert response.status == 503
        error = response.payload["error"]
        assert error["type"] == "ShardTimeout"
        degradation = error["degradation"]
        assert degradation is not None
        assert degradation["retried_shards"], (
            "partial report should show the retries burned before aborting"
        )

    def test_explicit_shard_deadline_wins_over_request_deadline(self, app):
        # config.shard_deadline present → request deadline must not
        # override it; with no faults the run just succeeds.
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": DOCS, "config": {"shard_deadline": 30.0}},
            deadline=0.001,
        )
        assert response.status == 200


class TestValidate:
    DTD = "<!ELEMENT catalog (item*, price)>\n<!ELEMENT item EMPTY>\n<!ELEMENT price EMPTY>\n"

    def test_valid_documents(self, app):
        response = call(
            app, "POST", "/validate", {"documents": DOCS, "dtd": self.DTD}
        )
        assert response.status == 200
        assert response.payload["valid"] is True
        assert response.payload["total_violations"] == 0

    def test_invalid_document_reports_violations(self, app):
        response = call(
            app,
            "POST",
            "/validate",
            {"documents": ["<catalog><item/></catalog>"], "dtd": self.DTD},
        )
        assert response.status == 200
        assert response.payload["valid"] is False
        (document,) = response.payload["documents"]
        assert document["violation_count"] == 1

    def test_max_violations_truncates(self, app):
        bad = "<catalog>" + "<unknown/>" * 5 + "<price/></catalog>"
        response = call(
            app,
            "POST",
            "/validate",
            {"documents": [bad], "dtd": self.DTD, "max_violations": 2},
        )
        (document,) = response.payload["documents"]
        assert document["truncated"] is True
        assert len(document["violations"]) == 2
        assert document["violation_count"] > 2

    def test_missing_dtd_is_400(self, app):
        assert call(app, "POST", "/validate", {"documents": DOCS}).status == 400

    def test_bad_dtd_text_is_422(self, app):
        response = call(
            app,
            "POST",
            "/validate",
            {"documents": DOCS, "dtd": "<!ELEMENT broken"},
        )
        assert response.status == 422


class TestDiff:
    OLD = "<!ELEMENT a (b, c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n"
    NEW = "<!ELEMENT a (b, c?)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n"

    def test_diff_reports_relations(self, app):
        response = call(app, "POST", "/diff", {"old": self.OLD, "new": self.NEW})
        assert response.status == 200
        assert response.payload["equivalent"] is False
        (entry,) = [
            e for e in response.payload["entries"] if e["element"] == "a"
        ]
        assert entry["relation"] == "looser"

    def test_equivalent_schemas(self, app):
        response = call(app, "POST", "/diff", {"old": self.OLD, "new": self.OLD})
        assert response.payload["equivalent"] is True
        assert response.payload["entries"] == []

    def test_include_equal(self, app):
        response = call(
            app,
            "POST",
            "/diff",
            {"old": self.OLD, "new": self.OLD, "include_equal": True},
        )
        assert len(response.payload["entries"]) == 3

    def test_missing_operand_is_400(self, app):
        assert call(app, "POST", "/diff", {"old": self.OLD}).status == 400


class TestSessions:
    def test_lifecycle(self, app):
        created = call(app, "POST", "/sessions", {})
        assert created.status == 201
        sid = created.payload["session"]
        assert sid == "s1"

        first = call(
            app, "POST", f"/sessions/{sid}/append", {"documents": DOCS[:2]}
        )
        assert first.status == 200
        assert first.payload["documents"] == 2
        assert first.payload["total_documents"] == 2

        second = call(
            app, "POST", f"/sessions/{sid}/append", {"documents": DOCS[2:]}
        )
        assert second.payload["total_documents"] == 3

        dtd = call(app, "GET", f"/sessions/{sid}/dtd")
        assert dtd.status == 200
        assert dtd.payload["dtd"] == api.infer(DOCS).render()
        assert dtd.payload["total_documents"] == 3

        listed = call(app, "GET", "/sessions")
        assert listed.payload["sessions"] == [{"id": sid, "documents": 3}]

        closed = call(app, "DELETE", f"/sessions/{sid}")
        assert closed.status == 200
        assert closed.payload["closed"] is True
        assert call(app, "GET", f"/sessions/{sid}/dtd").status == 404

    def test_session_ids_are_deterministic(self, app):
        ids = [call(app, "POST", "/sessions", {}).payload["session"]
               for _ in range(3)]
        assert ids == ["s1", "s2", "s3"]

    def test_unknown_session_is_404(self, app):
        assert call(app, "GET", "/sessions/s99/dtd").status == 404
        assert call(app, "DELETE", "/sessions/s99").status == 404
        assert (
            call(app, "POST", "/sessions/s99/append", {"documents": DOCS})
            .status
            == 404
        )

    def test_session_config_honoured(self, app):
        created = call(
            app, "POST", "/sessions", {"config": {"method": "crx"}}
        )
        sid = created.payload["session"]
        call(app, "POST", f"/sessions/{sid}/append", {"documents": DOCS})
        dtd = call(app, "GET", f"/sessions/{sid}/dtd")
        expected = api.infer(DOCS, config=api.InferenceConfig(method="crx"))
        assert dtd.payload["dtd"] == expected.render()

    def test_session_accepts_numeric_config(self, app):
        created = call(
            app, "POST", "/sessions", {"config": {"numeric": True}}
        )
        sid = created.payload["session"]
        call(app, "POST", f"/sessions/{sid}/append", {"documents": DOCS})
        dtd = call(app, "GET", f"/sessions/{sid}/dtd")
        expected = api.infer(DOCS, config=api.InferenceConfig(numeric=True))
        assert dtd.payload["dtd"] == expected.render()

    def test_session_accepts_support_threshold_config(self, app):
        config = {"support_threshold": 2}
        created = call(app, "POST", "/sessions", {"config": config})
        assert created.status == 201
        sid = created.payload["session"]
        for chunk in (NOISY[:2], NOISY[2:]):
            appended = call(
                app, "POST", f"/sessions/{sid}/append", {"documents": chunk}
            )
            assert appended.status == 200
        dtd = call(app, "GET", f"/sessions/{sid}/dtd")
        one_shot = call(app, "POST", "/infer", {"documents": NOISY, "config": config})
        assert dtd.status == 200
        assert dtd.payload["dtd"] == one_shot.payload["dtd"]
        assert "gift" not in dtd.payload["dtd"]

    def test_session_stats_opt_in(self, app):
        created = call(app, "POST", "/sessions", {"stats": True})
        sid = created.payload["session"]
        appended = call(
            app, "POST", f"/sessions/{sid}/append", {"documents": DOCS}
        )
        assert appended.payload["stats"] is not None

    def test_dtd_on_empty_session_is_400(self, app):
        sid = call(app, "POST", "/sessions", {}).payload["session"]
        assert call(app, "GET", f"/sessions/{sid}/dtd").status == 400


class TestInferMethods:
    """The extension learners through /infer, and the canonical
    unknown-method error shared with the CLI."""

    SHUFFLED = [
        "<r><a/><b/><c/></r>",
        "<r><c/><b/><a/></r>",
        "<r><b/><c/><a/></r>",
        "<r><c/><a/><b/></r>",
    ]
    REPEATED = [
        "<r><a/><b/><a/></r>",
        "<r><a/><a/></r>",
    ]

    def test_sire_through_infer(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": self.SHUFFLED, "config": {"method": "sire"}},
        )
        assert response.status == 200
        assert "<!ELEMENT r (a & b & c)>" in response.payload["dtd"]

    def test_kore_through_infer(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": self.REPEATED, "config": {"method": "kore"}},
        )
        assert response.status == 200
        assert "<!ELEMENT r (a,b?,a)>" in response.payload["dtd"]

    def test_unknown_method_is_400_with_the_canonical_message(self, app):
        response = call(
            app,
            "POST",
            "/infer",
            {"documents": DOCS, "config": {"method": "bogus"}},
        )
        assert response.status == 400
        assert response.payload["error"]["message"] == (
            "unknown method 'bogus': expected one of "
            "'auto', 'idtd', 'crx', 'kore', 'sire'"
        )

    def test_session_accepts_extension_methods(self, app):
        created = call(
            app, "POST", "/sessions", {"config": {"method": "sire"}}
        )
        assert created.status in (200, 201)
        session_id = created.payload["session"]
        appended = call(
            app,
            "POST",
            f"/sessions/{session_id}/append",
            {"documents": self.SHUFFLED},
        )
        assert appended.status == 200
        rendered = call(app, "GET", f"/sessions/{session_id}/dtd")
        assert "<!ELEMENT r (a & b & c)>" in rendered.payload["dtd"]

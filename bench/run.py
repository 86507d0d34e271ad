"""The benchmark: four seeded workloads, end to end or layer by layer.

    python3 bench/run.py --workload corpus-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --out DIR      # all four workloads
    python3 bench/run.py --smoke                 # tiny sizes, both passes, all workloads

With ``--trace 0`` every workload reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the separate traced pass that
gives the per-layer metrics and a self-time table.  Each timed call
runs in a fresh process (``probe.py``), so caches start cold as they do
for a command-line user; the daemon runs as its own process.  Outputs
are checked after timing.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in reference seconds (see ``hostspeed``): a shared
host runs each CPU at about half speed for spells of a fraction of a
second, which moves raw timings by up to 2x.  A call's raw seconds are
scaled by the host's speed sampled during that very call, in every
process doing its work; a set-up time by a calibration window timed
right after it.  Raw values are kept in the run records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import select
import shutil
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import corpora
import serveload
from hostspeed import CALIBRATION_NOMINAL_S, PROBE_NOMINAL_S, probe_seconds, read_probes
from stats import Tracer, format_table, layer_table, percentile, quartiles, summary

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("corpus-batch", "corpus-stream", "learners-wide", "serve-mixed")
PROBE_TIMEOUT = 170.0
CONNECTIONS = 2
SESSIONS_PER_CONNECTION = 2
SPEED_BUCKET_S = 1.0  # the daemon's latencies are scaled per bucket of this many seconds
RSS_AFTER_REPLIES = 1000  # the daemon's peak RSS is read after this many measured replies
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s", "MB/s")


@dataclass(frozen=True)
class Size:
    medium: int = 2000  # documents of the batch and stream corpus (about 2 MB)
    pool: int = 4000  # documents of the daemon's request bodies (about 4 MB)
    wide: int = 300  # documents of the 64-symbol corpus (about 0.36 MB)
    bodies: int = 200  # distinct /infer bodies
    warmup: float = 2.0  # daemon warm-up seconds before measuring
    daemon_starts: int = 3  # set-up samples for serve-mixed
    trace_repeats: int = 3  # api.infer calls with and without the recorder
    trace_blocks: int = 20  # blocks of 10 requests per connection in the traced load
    trace_bodies: int = 100  # /infer bodies replayed in-process and sequentially
    healthz: int = 300  # sequential /healthz calls (protocol floor)
    serve_seconds: float | None = None  # measured daemon seconds (None: --seconds)


SIZES = {
    "default": Size(),
    "smoke": Size(
        medium=200, pool=200, wide=60, bodies=10, warmup=0.5, daemon_starts=1,
        trace_repeats=1, trace_blocks=2, trace_bodies=5, healthz=20, serve_seconds=3.0,
    ),
}


class SetupError(Exception):
    """The program could not be set up: no result can be reported."""


class ProbeFailed(Exception):
    """A probe imported the program, then one of its calls failed."""


def probe_factor(records: list[tuple[float, float]], start: float, end: float, default: float = 1.0) -> float:
    """Raw seconds in ``[start, end]`` times this are reference seconds."""
    seconds = probe_seconds(records, start, end)
    return PROBE_NOMINAL_S / seconds if seconds else default


def normalized(value: float, unit: str, factor: float) -> float:
    if unit in TIME_UNITS:
        return value * factor
    if unit in RATE_UNITS:
        return value / factor
    return value


@dataclass
class Outcome:
    """Checks made and samples taken by one workload pass.

    ``samples`` and ``metrics`` hold reference-second values; ``raw``
    the same samples as measured.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    busy: float = 0.0  # reference seconds of set-up and calls so far

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def add(self, name: str, raw: float, factor: float = 1.0) -> None:
        self.samples.setdefault(name, []).append(raw * factor)
        self.raw.setdefault(name, []).append(raw)


class Context:
    """One invocation: its seed, sizes, scratch directory and probes."""

    def __init__(self, seed: int, size: Size, seconds: float) -> None:
        self.seed = seed
        self.size = size
        self.seconds = seconds
        self.work = os.path.join(BENCH, "_work", f"run-{os.getpid()}")
        self._specs = 0
        self._corpora: dict[str, corpora.Corpus] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def corpus(self, name: str) -> corpora.Corpus:
        """Generate, log and write a corpus (and its edited copy) once."""
        if name not in self._corpora:
            if name in ("medium", "pool"):
                shape, count = corpora.schema(), getattr(self.size, name)
            else:
                shape, count = corpora.schema(copies=4), self.size.wide
            corpus = corpora.generate(name, self.seed, shape, count)
            print(corpus.describe(), file=sys.stderr)
            corpora.write_documents(corpus.documents, self.path(name))
            corpora.write_documents(corpus.edited(), self.path(f"{name}-edited"))
            self._corpora[name] = corpus
        return self._corpora[name]

    def probe(
        self, tasks: list[dict[str, Any]], calibrate: bool = False, speed: bool = False
    ) -> tuple[float, dict[str, Any]]:
        """Run ``tasks`` in a fresh process; seconds to ready, and its result.

        ``calibrate`` times a calibration window after set-up; ``speed``
        samples the host's speed during each task (``probe_s``).
        """
        self._specs += 1
        spec = self.path(f"spec-{self._specs}.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "root": ROOT,
                    "tasks": tasks,
                    "calibrate": calibrate,
                    "speed": self.path(f"speed-{self._specs}") if speed else None,
                },
                handle,
            )
        errors = self.path(f"probe-{self._specs}.err")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        started = time.perf_counter()
        with open(errors, "wb") as stderr:
            process = subprocess.Popen(
                [sys.executable, os.path.join(BENCH, "probe.py"), spec],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
            )
        try:
            assert process.stdout is not None
            ready_line = b""
            if select.select([process.stdout], [], [], PROBE_TIMEOUT)[0]:
                ready_line = process.stdout.readline()
            ready = time.perf_counter() - started
            output, _ = process.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        with open(errors, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        if ready_line.strip() != b"ready":
            raise SetupError(f"probe did not import the program (exit {process.returncode}):\n{tail}")
        if process.returncode != 0:
            raise ProbeFailed(f"probe exited {process.returncode}:\n{tail}")
        return ready, json.loads(output.splitlines()[-1])

    def call(self, outcome: Outcome, task: dict[str, Any], metric: str) -> dict[str, Any] | None:
        """One timed call in a fresh process; adds its set-up, time and RSS.

        Returns the call's result, or None (a failed check) if it failed.
        """
        try:
            ready, payload = self.probe([task], calibrate=True, speed=True)
        except ProbeFailed as exc:
            outcome.check(False, str(exc))
            return None
        result = payload["results"][0]
        setup_factor = CALIBRATION_NOMINAL_S / payload["calibration_s"]
        call_factor = PROBE_NOMINAL_S / result["probe_s"] if result["probe_s"] else setup_factor
        outcome.add("setup_s", ready, setup_factor)
        outcome.add(metric, result["seconds"], call_factor)
        outcome.add("peak_rss_mb", payload["peak_rss_mb"])
        outcome.busy += ready * setup_factor + result["seconds"] * call_factor
        return result


def loop(ctx: Context, outcome: Outcome, cycle: Callable[[], None], calls: int) -> None:
    """Run whole cycles of ``calls`` calls each until ``ctx.seconds`` pass.

    ``ops_per_s`` is calls per reference second of set-up plus call
    time, the rate of a user running them back to back.
    """
    busy: list[float] = []
    started = time.perf_counter()
    while not busy or time.perf_counter() - started < ctx.seconds:
        before = outcome.busy
        cycle()
        busy.append(outcome.busy - before)
    outcome.metrics["ops_per_s"] = calls / quartiles(busy)[1]
    outcome.notes.append(f"{len(busy)} cycles of {calls} fresh-process calls")


def infer_task(source: str, config: dict[str, Any] | None = None, dtd_out: str | None = None) -> dict[str, Any]:
    return {"op": "infer", "source": source, "config": config or {}, "dtd_out": dtd_out}


def validate_task(source: str, dtd: str) -> dict[str, Any]:
    return {"op": "validate", "source": source, "dtd": dtd}


def check_valid(outcome: Outcome, result: dict[str, Any], what: str) -> None:
    outcome.check(
        result["invalid_count"] == 0,
        f"{result['invalid_count']} of {result['documents']} documents invalid against {what}: {result['invalid']}",
    )


# -- workloads, tracing off ----------------------------------------------------


def corpus_batch(ctx: Context) -> Outcome:
    """Batch inference of the shared corpus, then validation against it."""
    outcome = Outcome()
    ctx.corpus("medium")
    source, dtd = ctx.path("medium"), ctx.path("batch.dtd")
    digests: list[str] = []

    def cycle() -> None:
        result = ctx.call(outcome, infer_task(source, dtd_out=dtd), "wall_s")
        if result is None:
            return
        digests.append(result["sha256"])
        outcome.check(result["sha256"] == digests[0], "batch DTD differs between repeats")
        result = ctx.call(outcome, validate_task(source, dtd), "followup_s")
        if result is not None:
            check_valid(outcome, result, "the batch DTD")

    loop(ctx, outcome, cycle, 2)
    return outcome


def corpus_stream(ctx: Context) -> Outcome:
    """``jobs=2``, then a checkpoint resume after 1% scattered edits."""
    outcome = Outcome()
    ctx.corpus("medium")
    source, edited = ctx.path("medium"), ctx.path("medium-edited")
    pristine = ctx.path("state-pristine")
    reference, reference_edited = ctx.path("batch.dtd"), ctx.path("edited.dtd")
    # Untimed: the batch references, and the checkpoint every resume starts from.
    _, payload = ctx.probe(
        [
            infer_task(source, dtd_out=reference),
            infer_task(source, {"jobs": 2, "state_dir": pristine}),
            infer_task(edited, dtd_out=reference_edited),
            validate_task(source, reference),
            validate_task(edited, reference_edited),
        ]
    )
    batch, checkpointed, batch_edited, valid, valid_edited = payload["results"]
    outcome.check(checkpointed["sha256"] == batch["sha256"], "checkpointed DTD differs from batch")
    check_valid(outcome, valid, "the batch DTD")
    check_valid(outcome, valid_edited, "the edited corpus's batch DTD")
    state = ctx.path("state")

    def cycle() -> None:
        result = ctx.call(outcome, infer_task(source, {"jobs": 2}), "wall_s")
        if result is not None:
            outcome.check(result["sha256"] == batch["sha256"], "jobs=2 DTD differs from batch")
        shutil.rmtree(state, ignore_errors=True)
        shutil.copytree(pristine, state)
        task = infer_task(edited, {"jobs": 2, "state_dir": state, "resume": True})
        result = ctx.call(outcome, task, "followup_s")
        if result is not None:
            outcome.check(
                result["sha256"] == batch_edited["sha256"],
                "resumed DTD differs from a fresh batch run on the edited corpus",
            )

    loop(ctx, outcome, cycle, 2)
    return outcome


def learners_wide(ctx: Context) -> Outcome:
    """``method=auto`` and ``method=kore`` on the 64-symbol corpus."""
    outcome = Outcome()
    ctx.corpus("wide")
    source = ctx.path("wide")
    dtds = {"auto": ctx.path("auto.dtd"), "kore": ctx.path("kore.dtd")}
    digests: dict[str, list[str]] = {"auto": [], "kore": []}

    def cycle() -> None:
        for method, metric in (("auto", "wall_s"), ("kore", "followup_s")):
            result = ctx.call(outcome, infer_task(source, {"method": method}, dtds[method]), metric)
            if result is None:
                continue
            digests[method].append(result["sha256"])
            outcome.check(result["sha256"] == digests[method][0], f"{method} DTD differs between repeats")

    loop(ctx, outcome, cycle, 2)
    if digests["auto"] and digests["kore"]:
        _, payload = ctx.probe([validate_task(source, dtds["auto"]), validate_task(source, dtds["kore"])])
        check_valid(outcome, payload["results"][0], "the auto DTD")
        check_valid(outcome, payload["results"][1], "the kore DTD")
    return outcome


@dataclass
class ServeInputs:
    """A corpus as request bodies, and the per-connection request plans."""

    source: str
    literals: list[str]
    bodies: list[list[int]]
    body_json: list[bytes]
    dtd: str

    @classmethod
    def build(cls, ctx: Context, name: str) -> ServeInputs:
        corpus = ctx.corpus(name)
        literals = [document.decode("utf-8") for document in corpus.documents]
        width = corpora.BODY_DOCUMENTS
        count = min(ctx.size.bodies, len(literals) // width)
        bodies = [list(range(b * width, (b + 1) * width)) for b in range(count)]
        body_json = [
            serveload.json_body({"documents": [literals[index] for index in body]})
            for body in bodies
        ]
        return cls(ctx.path(name), literals, bodies, body_json, corpus.dtd)

    def requests(self, ctx: Context, connection: int, sessions: list[str]) -> Iterator[serveload.Request]:
        plan = corpora.serve_plan(
            ctx.seed, connection, len(self.bodies), len(self.literals), SESSIONS_PER_CONNECTION
        )
        for op in plan:
            if op[0] == "infer":
                yield serveload.Request("infer", "POST", "/infer", self.body_json[op[1]], op[1])
            elif op[0] == "append":
                session = sessions[connection * SESSIONS_PER_CONNECTION + op[1]]
                body = {"documents": [self.literals[index] for index in op[2]]}
                yield serveload.Request(
                    "append", "POST", f"/sessions/{session}/append",
                    serveload.json_body(body), (session, op[2]),
                )
            else:
                body = {"documents": [self.literals[index] for index in op[1]], "dtd": self.dtd}
                yield serveload.Request("validate", "POST", "/validate", serveload.json_body(body))


def open_sessions(daemon: serveload.Daemon) -> list[str]:
    connection = serveload.UnixConnection(daemon.socket_path)
    try:
        sessions = []
        for _ in range(CONNECTIONS * SESSIONS_PER_CONNECTION):
            status, payload = serveload.call(connection, "POST", "/sessions", b"{}")
            if status != 201:
                raise SetupError(f"POST /sessions answered {status}: {payload[:200]!r}")
            sessions.append(json.loads(payload)["session"])
        return sessions
    finally:
        connection.close()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_replies(
    ctx: Context,
    outcome: Outcome,
    inputs: ServeInputs,
    replies: list[serveload.Reply],
    sessions: list[str],
    daemon: serveload.Daemon,
) -> None:
    """Every reply 2xx and right: /infer and session DTDs against in-process ``api.infer``."""
    appended: dict[str, list[int]] = {session: [] for session in sessions}
    infer_digests: dict[int, list[str]] = {}
    for reply in replies:
        request = reply.request
        if not outcome.check(
            200 <= reply.status < 300, f"{request.kind} answered {reply.status}: {reply.payload[:200]!r}"
        ):
            continue
        payload = json.loads(reply.payload)
        if request.kind == "infer":
            infer_digests.setdefault(request.key, []).append(_sha(payload["dtd"]))
        elif request.kind == "append":
            session, indexes = request.key
            appended[session].extend(indexes)
        else:
            outcome.check(payload["valid"] is True, f"/validate rejected generated documents: {payload}")
    connection = serveload.UnixConnection(daemon.socket_path)
    session_digests = {}
    try:
        for session, indexes in appended.items():
            if not indexes:
                continue
            status, payload = serveload.call(connection, "GET", f"/sessions/{session}/dtd")
            if outcome.check(status == 200, f"GET /sessions/{session}/dtd answered {status}"):
                session_digests[session] = _sha(json.loads(payload)["dtd"])
    finally:
        connection.close()
    groups = {f"body-{body}": inputs.bodies[body] for body in infer_digests}
    groups.update({f"session-{session}": appended[session] for session in session_digests})
    _, payload = ctx.probe([{"op": "expect", "source": inputs.source, "groups": groups}])
    expected = payload["results"][0]
    for body, digests in infer_digests.items():
        wrong = sum(digest != expected[f"body-{body}"] for digest in digests)
        outcome.check(wrong == 0, f"/infer of body {body} differs from api.infer in {wrong} replies")
    for session, digest in session_digests.items():
        outcome.check(
            digest == expected[f"session-{session}"],
            f"session {session} DTD differs from api.infer over its appended documents",
        )


def serve_mixed(ctx: Context) -> Outcome:
    """The daemon under a closed loop of /infer, session appends and /validate."""
    outcome = Outcome()
    inputs = ServeInputs.build(ctx, "pool")
    speed = ctx.path("speed-daemon")
    daemon = serveload.Daemon(ROOT, os.path.relpath(ctx.path("d.sock"), ROOT), ctx.path("daemon.log"), speed)
    setups, rss = [], []
    try:
        for start in range(ctx.size.daemon_starts):
            seconds = daemon.start()
            setups.append((daemon.started_at, daemon.healthy_at, seconds))
            if start + 1 < ctx.size.daemon_starts:
                daemon.stop()
        sessions = open_sessions(daemon)
        streams = [inputs.requests(ctx, connection, sessions) for connection in range(CONNECTIONS)]
        warm = serveload.closed_loop(daemon.socket_path, streams, ctx.size.warmup)
        # Peak RSS after a fixed number of replies, not at the end: the
        # sessions grow with every append, and a faster run appends more.
        measured = serveload.closed_loop(
            daemon.socket_path, streams, ctx.size.serve_seconds or ctx.seconds,
            milestone=(RSS_AFTER_REPLIES, lambda: rss.append(daemon.peak_rss_mb())),
        )
        rss.append(daemon.peak_rss_mb())
        check_replies(ctx, outcome, inputs, warm + measured, sessions, daemon)
    finally:
        daemon.stop()
    records = read_probes(speed)
    for started_at, healthy_at, seconds in setups:
        outcome.add("setup_s", seconds, probe_factor(records, started_at, healthy_at))
    outcome.add("peak_rss_mb", rss[0])
    begin = min(reply.sent for reply in measured)
    end = max(reply.sent + reply.seconds for reply in measured)
    window_factor = probe_factor(records, begin, end)
    buckets: dict[int, float] = {}

    def factor_at(moment: float) -> float:
        bucket = int((moment - begin) / SPEED_BUCKET_S)
        if bucket not in buckets:
            low = begin + bucket * SPEED_BUCKET_S
            buckets[bucket] = probe_factor(records, low, low + SPEED_BUCKET_S, window_factor)
        return buckets[bucket]

    ok = [reply for reply in measured if 200 <= reply.status < 300]
    for reply in ok:
        if reply.request.kind in ("infer", "append"):
            metric = "wall_s" if reply.request.kind == "infer" else "followup_s"
            outcome.add(metric, reply.seconds, factor_at(reply.sent))
    outcome.metrics["ops_per_s"] = len(ok) / (end - begin) / window_factor
    outcome.notes.append(
        f"{len(measured)} requests in {end - begin:.1f} s over {CONNECTIONS} connections "
        f"after {len(warm)} warm-up requests; host speed x{window_factor:.3f}"
    )
    return outcome


UNTRACED = {
    "corpus-batch": corpus_batch,
    "corpus-stream": corpus_stream,
    "learners-wide": learners_wide,
    "serve-mixed": serve_mixed,
}


# -- the traced pass -----------------------------------------------------------


def traced(
    ctx: Context, workload: str, units: dict[str, str]
) -> tuple[Outcome, list[dict[str, Any]], list[dict[str, Any]]]:
    """Every layer's public calls on this workload's inputs, with spans."""
    outcome = Outcome()
    name = {"learners-wide": "wide", "serve-mixed": "pool"}.get(workload, "medium")
    inputs = ServeInputs.build(ctx, name)
    config = {"jobs": 2} if workload == "corpus-stream" else {}
    plan = corpora.serve_plan(ctx.seed, 0, len(inputs.bodies), len(inputs.literals))
    replay = (op[1] for op in plan if op[0] == "infer")
    replay_bodies = [next(replay) for _ in range(ctx.size.trace_bodies)]
    tracer = Tracer(f"{workload}-{ctx.seed}", prefix="p")
    speed = ctx.path(f"speed-trace-{workload}")
    daemon = serveload.Daemon(ROOT, os.path.relpath(ctx.path("t.sock"), ROOT), ctx.path("daemon.log"), speed)
    with tracer.span("trace", workload=workload) as root:
        _, payload = ctx.probe(
            [
                {
                    "op": "layers",
                    "source": ctx.path(name),
                    "edited": ctx.path(f"{name}-edited"),
                    "state_dir": ctx.path(f"trace-state-{workload}"),
                    "config": config,
                    "repeats": ctx.size.trace_repeats,
                    "bodies": [inputs.bodies[body] for body in replay_bodies],
                    "trace_id": tracer.trace_id,
                    "parent_span": root["id"],
                }
            ],
            speed=True,
        )
        layers = payload["results"][0]
        child_factor = PROBE_NOMINAL_S / layers["probe_s"] if layers["probe_s"] else 1.0
        try:
            with tracer.span("serve.probe") as serving:
                with tracer.span("serve.setup"):
                    daemon.start()
                connection = serveload.UnixConnection(daemon.socket_path)
                healthz, daemon_infer = [], []
                try:
                    for _ in range(ctx.size.healthz):
                        with tracer.span("serve.healthz") as record:
                            status, _ = serveload.call(connection, "GET", "/healthz")
                        outcome.check(status == 200, f"/healthz answered {status}")
                        healthz.append((record["end"] - record["start"]) * 1000)
                    for body in replay_bodies:
                        with tracer.span("serve.infer", body=body) as record:
                            status, _ = serveload.call(connection, "POST", "/infer", inputs.body_json[body])
                        outcome.check(status == 200, f"/infer answered {status}")
                        daemon_infer.append((record["end"] - record["start"]) * 1000)
                finally:
                    connection.close()
                sessions = open_sessions(daemon)
                streams = [
                    itertools.islice(inputs.requests(ctx, index, sessions), 10 * ctx.size.trace_blocks)
                    for index in range(CONNECTIONS)
                ]
                with tracer.span("serve.load"):
                    replies = serveload.closed_loop(daemon.socket_path, streams, PROBE_TIMEOUT)
        finally:
            daemon.stop()
    serve_factor = probe_factor(read_probes(speed), serving["start"], serving["end"])
    for reply in replies:
        outcome.check(200 <= reply.status < 300, f"{reply.request.kind} answered {reply.status}")

    def latencies(kind: str) -> list[float]:
        return [r.seconds * 1000 for r in replies if r.request.kind == kind and 200 <= r.status < 300]

    served = {
        "serve.healthz_p50_ms": percentile(healthz, 0.5),
        "serve.infer_overhead_ms": percentile(daemon_infer, 0.5)
        - percentile(layers["inprocess_infer_ms"], 0.5) * child_factor / serve_factor,
        "serve.rejected": sum(reply.status == 429 for reply in replies),
        "serve.infer_p90_ms": percentile(latencies("infer"), 0.9),
        "serve.infer_p99_ms": percentile(latencies("infer"), 0.99),
        "serve.append_p90_ms": percentile(latencies("append"), 0.9),
        "serve.append_p99_ms": percentile(latencies("append"), 0.99),
        "serve.validate_p50_ms": percentile(latencies("validate"), 0.5),
    }
    for metric, value in layers["metrics"].items():
        outcome.metrics[metric] = normalized(value, units[metric], child_factor)
    for metric, value in served.items():
        outcome.metrics[metric] = normalized(value, units[metric], serve_factor)
    outcome.notes.append(f"host speed x{child_factor:.3f} (layers), x{serve_factor:.3f} (daemon)")
    spans = tracer.spans + layers["spans"]
    spans.sort(key=lambda span: span["start"])
    return outcome, spans, layer_table(spans, root["id"])


# -- reporting -----------------------------------------------------------------


def load_benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def report(workload: str, seed: int, outcome: Outcome, declared: list[dict[str, Any]]) -> dict[str, Any]:
    """Print one workload's metrics; return them as the result's ``metrics``.

    A metric with samples reports their median (``peak_rss_mb`` their
    maximum) with quartiles and count; the ``raw`` column is the same
    statistic before scaling to reference seconds.
    """
    rows, metrics = [], {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if outcome.samples.get(name):
            stats = summary(outcome.samples[name])
            pick = max if name == "peak_rss_mb" else (lambda values: quartiles(values)[1])
            value, raw = pick(outcome.samples[name]), pick(outcome.raw[name])
            rows.append((name, unit, f"{value:.6g}", f"{stats['q1']:.6g}", f"{stats['q3']:.6g}", stats["n"], f"{raw:.6g}"))
        elif name in outcome.metrics:
            value = outcome.metrics[name]
            rows.append((name, unit, f"{value:.6g}", "", "", 1, ""))
        else:
            raise ProbeFailed(f"{workload}: no measurement of {name}; every call failed")
        metrics[name] = {"value": value, "unit": unit}
    print(f"\n== {workload} (seed {seed}) ==")
    for note in outcome.notes:
        print(note)
    print(format_table(("metric", "unit", "value", "q1", "q3", "n", "raw"), rows))
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    return metrics


def print_layers(workload: str, table: list[dict[str, Any]]) -> None:
    print(f"\n-- {workload}: spans by layer (raw seconds; self time excludes child spans) --")
    print(
        format_table(
            ("span", "calls", "total s", "self s", "share of wall"),
            [
                (row["name"], row["calls"], f"{row['total_s']:.4f}", f"{row['self_s']:.4f}", f"{row['share']:.1%}")
                for row in table
            ],
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="1: the traced pass only")
    parser.add_argument("--out", default=None, help="directory for run records and traces")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, a 3 s serve run, both passes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else benchmark["run_seconds"])
    passes = [args.trace] if args.trace is not None else ([0, 1] if args.smoke else [0])
    out = args.out or os.path.join(BENCH, "_out")
    os.makedirs(out, exist_ok=True)
    ctx = Context(args.seed, SIZES["smoke" if args.smoke else "default"], seconds)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    total = Outcome()
    metrics: dict[str, Any] = {}
    try:
        os.makedirs(ctx.work, exist_ok=True)
        for trace in passes:
            for workload in workloads:
                started = time.perf_counter()
                if trace:
                    outcome, spans, table = traced(ctx, workload, units)
                    declared = benchmark["per_layer"]
                    trace_path = os.path.join(out, f"trace-{workload}.jsonl")
                    with open(trace_path, "w", encoding="utf-8") as handle:
                        for span in spans:
                            handle.write(json.dumps(span) + "\n")
                    outcome.notes.append(f"trace: {len(spans)} spans in {trace_path}")
                else:
                    outcome = UNTRACED[workload](ctx)
                    declared = benchmark["end_to_end"]
                result = report(workload, args.seed, outcome, declared)
                if trace:
                    print_layers(workload, table)
                print(f"({time.perf_counter() - started:.1f} s)")
                total.attempted += outcome.attempted
                total.failed += outcome.failed
                record = {
                    "workload": workload, "seed": args.seed, "trace": trace,
                    "result": {
                        "correct": outcome.failed == 0, "attempted": outcome.attempted,
                        "failed": outcome.failed, "metrics": result,
                    },
                    "samples": outcome.samples,
                    "raw": outcome.raw,
                }
                with open(os.path.join(out, "runs.jsonl"), "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
                if len(workloads) == 1 and len(passes) == 1:
                    metrics = result
                else:
                    metrics.update({f"{workload}.{name}": value for name, value in result.items()})
    except (SetupError, ProbeFailed) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(ctx.work))  # only when no other run is using it
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted, "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

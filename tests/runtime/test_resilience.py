"""The fault-tolerant runtime: quarantine, retries, injected failures.

Every test drives a *deterministic* :class:`FaultPlan` — the same hook
the CI ``resilience`` job uses — so crash recovery, shard retries and
document quarantine are exercised without any real nondeterminism.
The corpus seed honours ``REPRO_TEST_SEED`` so the CI flakiness guard
can replay the module under several different corpora.
"""

import json
import os
import random

import pytest

from repro.api import InferenceConfig, InferenceResult, infer
from repro.cli import main
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import (
    CorpusError,
    InternalError,
    QuarantineExceeded,
    ShardTimeout,
    UsageError,
)
from repro.obs.recorder import StatsRecorder
from repro.runtime.resilience import (
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    FaultPlan,
    InjectedElementFailure,
    QuarantinedDocument,
    RetryPolicy,
    load_document,
)
from repro.runtime.parallel import parallel_evidence
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import XmlSyntaxError, parse_document

#: Varied by the CI flakiness guard (three runs, three seeds) so the
#: resilience machinery is exercised over different generated corpora.
SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

DTD_SOURCE = (
    "<!ELEMENT r (item+)><!ELEMENT item (name, price?)>"
    "<!ELEMENT name (#PCDATA)><!ELEMENT price (#PCDATA)>"
)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    # The CI resilience job exports a canned REPRO_FAULTS for the whole
    # suite; these tests inject their own plans and must not compose
    # with an ambient one.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def write_corpus(directory, count, seed=None):
    generator = XmlGenerator(
        parse_dtd(DTD_SOURCE), random.Random(SEED + 3 if seed is None else seed)
    )
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index:03d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.from_json(
            '{"worker_crashes": [1], "corrupt_docs": [0, 2], '
            '"element_failures": ["item"], "attempts": 2}'
        )
        assert plan.crashes(1, 0) and plan.crashes(1, 1)
        assert not plan.crashes(1, 2)  # attempts window cleared
        assert plan.corrupts(0) and plan.corrupts(2) and not plan.corrupts(1)
        assert FaultPlan.from_mapping(plan.to_dict()) == plan

    def test_soft_element_failure_hits_idtd_only(self):
        plan = FaultPlan(element_failures=frozenset({"item"}))
        assert plan.fails_element("item", "idtd")
        assert not plan.fails_element("item", "crx")
        hard = FaultPlan(element_failures_hard=frozenset({"item"}))
        assert hard.fails_element("item", "idtd")
        assert hard.fails_element("item", "crx")

    def test_learner_salt_only_for_element_faults(self):
        assert FaultPlan(worker_crashes=frozenset({0})).learner_salt() == ()
        assert FaultPlan(corrupt_docs=frozenset({1})).learner_salt() == ()
        salted = FaultPlan(element_failures=frozenset({"item"}))
        assert salted.learner_salt() != ()

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(corrupt_docs=frozenset({0}))

    @pytest.mark.parametrize(
        "text",
        [
            '{"bogus_key": []}',
            '{"worker_crashes": [-1]}',
            '{"worker_crashes": [true]}',
            '{"worker_crashes": "0"}',
            '{"element_failures": [""]}',
            '{"element_failures": [3]}',
            '{"attempts": 0}',
            '{"attempts": "two"}',
            "[1, 2]",
            "{not json",
        ],
    )
    def test_malformed_plans_are_usage_errors(self, text):
        with pytest.raises(UsageError):
            FaultPlan.from_json(text)

    def test_from_cli_inline_and_file(self, tmp_path):
        inline = FaultPlan.from_cli('{"corrupt_docs": [4]}')
        assert inline.corrupts(4)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"shard_timeouts": [1]}', encoding="utf-8")
        assert FaultPlan.from_cli(f"@{plan_file}").times_out(1, 0)
        assert FaultPlan.from_cli(str(plan_file)).times_out(1, 0)
        with pytest.raises(UsageError, match="cannot read fault plan"):
            FaultPlan.from_cli(str(tmp_path / "missing.json"))

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": '{"corrupt_docs": [1]}'})
        assert plan is not None and plan.corrupts(1)
        monkeypatch.setenv("REPRO_FAULTS", '{"worker_crashes": [0]}')
        ambient = FaultPlan.from_env()
        assert ambient is not None and ambient.crashes(0, 0)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        one, two = RetryPolicy(seed=7), RetryPolicy(seed=7)
        for shard in range(3):
            for attempt in range(1, 5):
                assert one.delay(shard, attempt) == two.delay(shard, attempt)

    def test_delay_bounds_and_growth(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.3, seed=0)
        assert policy.delay(0, 0) == 0.0
        for attempt in range(1, 8):
            delay = policy.delay(0, attempt)
            # jitter scales the bounded exponential into [0.5x, 1.0x]
            assert 0.0 <= delay <= 0.3

    def test_different_shards_get_different_jitter(self):
        policy = RetryPolicy()
        delays = {policy.delay(shard, 1) for shard in range(16)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(UsageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(UsageError):
            RetryPolicy(backoff_base=-1.0)


class TestCrashRecovery:
    @pytest.mark.parametrize("backend", ["thread", "process", "serial"])
    def test_injected_crash_recovers_byte_identically(self, tmp_path, backend):
        paths = write_corpus(tmp_path, 12)
        jobs = None if backend == "serial" else 2
        baseline = infer(
            paths, config=InferenceConfig(streaming=True, jobs=jobs, backend=backend)
        )
        faulty = infer(
            paths,
            config=InferenceConfig(
                streaming=True,
                jobs=jobs,
                backend=backend,
                faults={"worker_crashes": [0]},
            ),
        )
        assert faulty.dtd.render() == baseline.dtd.render()
        assert faulty.degradation is not None
        (retry,) = faulty.degradation.retried_shards
        assert retry.shard == 0
        assert retry.reason == "worker-crash"
        assert retry.attempts == 2
        assert not retry.resharded

    def test_batch_is_one_shard_that_retries(self, tmp_path):
        paths = write_corpus(tmp_path, 12)
        faulty = infer(paths, config=InferenceConfig(faults={"worker_crashes": [0]}))
        assert faulty.dtd.render() == infer(paths).dtd.render()
        (retry,) = faulty.degradation.retried_shards
        assert (retry.shard, retry.reason, retry.attempts) == (0, "worker-crash", 2)

    def test_timeout_injection_retries_with_timeout_reason(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True,
                jobs=2,
                backend="thread",
                faults={"shard_timeouts": [1]},
            ),
        )
        (retry,) = result.degradation.retried_shards
        assert retry.reason == "timeout" and retry.shard == 1

    def test_persistent_crash_reshards_to_serial(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        # The plan outlasts the retry budget (3 faulty attempts vs
        # max_attempts=3), so the shard must fall back to per-document
        # serial processing in the driver — and still produce the
        # byte-identical DTD, because reshard only moves *where* the
        # documents are folded.
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True,
                jobs=2,
                backend="thread",
                faults={"worker_crashes": [0], "attempts": 3},
            ),
        )
        baseline = infer(paths, config=InferenceConfig(streaming=True, jobs=2))
        assert result.dtd.render() == baseline.dtd.render()
        (retry,) = result.degradation.retried_shards
        # 3 crashed pool attempts + the final serial pass = 4
        assert retry.resharded and retry.attempts == 4

    def test_persistent_timeout_is_shard_timeout_in_strict_mode(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        with pytest.raises(ShardTimeout, match="shard 0"):
            infer(
                paths,
                config=InferenceConfig(
                    streaming=True,
                    jobs=2,
                    backend="thread",
                    faults={"shard_timeouts": [0], "attempts": 3},
                ),
            )

    def test_persistent_timeout_reshards_in_skip_mode(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True,
                jobs=2,
                backend="thread",
                on_error="skip",
                faults={"shard_timeouts": [0], "attempts": 3},
            ),
        )
        (retry,) = result.degradation.retried_shards
        assert retry.resharded and retry.reason == "timeout"

    def test_shard_deadline_passthrough_on_clean_run(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True, jobs=2, backend="thread", shard_deadline=60.0
            ),
        )
        assert result.degradation is not None
        assert not result.degradation.degraded


class TestQuarantine:
    def test_corrupt_files_are_quarantined_deterministically(self, tmp_path):
        paths = write_corpus(tmp_path, 10)
        broken = tmp_path / "doc003.xml"
        broken.write_text("<r><item>truncat", encoding="utf-8")
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True, jobs=2, backend="thread", on_error="skip"
            ),
        )
        (doc,) = result.degradation.quarantined
        assert doc.path == str(broken)
        assert doc.cause
        survivors = [path for path in paths if path != str(broken)]
        baseline = infer(
            survivors, config=InferenceConfig(streaming=True, jobs=2)
        )
        assert result.dtd.render() == baseline.dtd.render()

    def test_strict_mode_raises_on_first_bad_document(self, tmp_path):
        paths = write_corpus(tmp_path, 4)
        (tmp_path / "doc001.xml").write_text("not xml", encoding="utf-8")
        with pytest.raises(CorpusError):
            infer(paths, config=InferenceConfig(streaming=True, jobs=2))
        with pytest.raises(CorpusError):
            infer(paths)  # batch path, same strictness

    def test_strict_clean_run_has_no_degradation_report(self, tmp_path):
        paths = write_corpus(tmp_path, 4)
        result = infer(paths)
        assert result.degradation is None

    def test_max_quarantine_caps_skips(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        config = InferenceConfig(
            streaming=True,
            jobs=2,
            backend="thread",
            on_error="skip",
            max_quarantine=1,
            faults={"corrupt_docs": [0, 3, 5]},
        )
        with pytest.raises(QuarantineExceeded, match="max_quarantine=1"):
            infer(paths, config=config)

    def test_max_quarantine_caps_batch_path_too(self):
        docs = ["<r><item><name/></item></r>"] * 4
        with pytest.raises(QuarantineExceeded):
            infer(
                docs,
                config=InferenceConfig(
                    on_error="skip",
                    max_quarantine=0,
                    faults={"corrupt_docs": [2]},
                ),
            )

    def test_quarantining_everything_is_an_error(self, tmp_path):
        path = tmp_path / "only.xml"
        path.write_text("<broken", encoding="utf-8")
        with pytest.raises(CorpusError, match="all 1 documents"):
            infer([str(path)], config=InferenceConfig(on_error="skip"))

    def test_literal_documents_quarantine_by_index(self):
        docs = [
            "<r><item><name/></item></r>",
            "<r><item><name/><price/></item></r>",
            "<r><item><name/></item><item><name/></item></r>",
        ]
        result = infer(
            docs,
            config=InferenceConfig(
                on_error="skip", faults={"corrupt_docs": [1]}
            ),
        )
        (doc,) = result.degradation.quarantined
        assert doc.path == "<document #1>"
        baseline = infer([docs[0], docs[2]])
        assert result.dtd.render() == baseline.dtd.render()

    @pytest.mark.parametrize(
        "options",
        [{}, {"streaming": True}, {"jobs": 2, "backend": "process"}],
        ids=["batch", "streaming", "jobs"],
    )
    def test_malformed_literal_is_quarantined(self, options):
        docs = [
            "<r><item><name/></item></r>",
            "<r><item><name/></r>",
            "<r><item><name/><price/></item></r>",
        ]
        result = infer(docs, config=InferenceConfig(on_error="skip", **options))
        (doc,) = result.degradation.quarantined
        with pytest.raises(XmlSyntaxError) as syntax:
            parse_document(docs[1])
        assert (doc.path, doc.cause) == ("<document #1>", str(syntax.value))
        assert doc.position == syntax.value.position
        assert result.dtd.render() == infer([docs[0], docs[2]]).dtd.render()

    def test_load_document_passes_documents_through(self):
        document = parse_document("<r><item><name/></item></r>")
        report = DegradationReport()
        assert (
            load_document(document, 0, on_error="skip", report=report)
            is document
        )
        assert not report.degraded


class TestElementFallback:
    def test_soft_failure_falls_back_to_crx(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        result = infer(
            paths,
            config=InferenceConfig(
                # auto would pick crx on a corpus this small, and the
                # soft fault only hits the idtd learner
                method="idtd",
                on_error="skip",
                faults={"element_failures": ["item"]},
            ),
        )
        (fallback,) = result.degradation.fallbacks
        assert fallback.element == "item"
        assert (fallback.from_method, fallback.to_method) == ("idtd", "crx")
        assert result.report.method_used["item"] == "crx"

    def test_hard_failure_falls_back_to_any(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        result = infer(
            paths,
            config=InferenceConfig(
                method="idtd",
                on_error="skip",
                faults={"element_failures_hard": ["item"]},
            ),
        )
        steps = [
            (entry.from_method, entry.to_method)
            for entry in result.degradation.fallbacks
        ]
        assert steps == [("idtd", "crx"), ("crx", "any")]
        assert result.report.method_used["item"] == "any"
        assert "<!ELEMENT item ANY>" in result.dtd.render()

    def test_soft_failure_never_hits_crx_method(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        result = infer(
            paths,
            config=InferenceConfig(
                method="crx",
                on_error="skip",
                faults={"element_failures": ["item"]},
            ),
        )
        assert result.degradation.fallbacks == []

    def test_strict_mode_propagates_injected_learner_failure(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        with pytest.raises(InjectedElementFailure):
            infer(
                paths,
                config=InferenceConfig(
                    faults={"element_failures_hard": ["item"]}
                ),
            )

    def test_degraded_derivations_do_not_poison_the_cache(self, tmp_path):
        paths = write_corpus(tmp_path, 6)
        degraded = infer(
            paths,
            config=InferenceConfig(
                on_error="skip", faults={"element_failures_hard": ["item"]}
            ),
        )
        assert "<!ELEMENT item ANY>" in degraded.dtd.render()
        clean = infer(paths)
        assert "ANY" not in clean.dtd.render()
        # ... and the degraded rerun still degrades (no aliasing either way).
        again = infer(
            paths,
            config=InferenceConfig(
                on_error="skip", faults={"element_failures_hard": ["item"]}
            ),
        )
        assert again.dtd.render() == degraded.dtd.render()


class TestCounters:
    def test_resilience_counters_reach_the_recorder(self, tmp_path):
        paths = write_corpus(tmp_path, 10)
        recorder = StatsRecorder()
        result = infer(
            paths,
            config=InferenceConfig(
                streaming=True,
                jobs=2,
                backend="thread",
                on_error="skip",
                recorder=recorder,
                faults={"worker_crashes": [0], "corrupt_docs": [1, 6]},
            ),
        )
        assert len(result.degradation.quarantined) == 2
        counters = recorder.snapshot()["counters"]
        assert counters["resilience.quarantined"] == 2
        assert counters["resilience.retried_shards"] == 1
        assert counters["resilience.failures.worker-crash"] == 1
        assert counters["parallel.backend.thread"] == 1


class TestConfigValidation:
    def test_rejects_unknown_on_error(self):
        with pytest.raises(UsageError, match="on_error"):
            InferenceConfig(on_error="ignore")

    def test_max_quarantine_requires_skip_mode(self):
        with pytest.raises(UsageError, match="max_quarantine"):
            InferenceConfig(max_quarantine=3)
        with pytest.raises(UsageError, match="max_quarantine"):
            InferenceConfig(on_error="skip", max_quarantine=-1)

    def test_shard_deadline_must_be_positive(self):
        with pytest.raises(UsageError, match="shard_deadline"):
            InferenceConfig(streaming=True, shard_deadline=0.0)

    def test_faults_type_is_checked(self):
        with pytest.raises(UsageError, match="faults"):
            InferenceConfig(faults=42)

    def test_faults_accepts_mapping_json_and_plan(self):
        for faults in (
            {"corrupt_docs": [1]},
            '{"corrupt_docs": [1]}',
            FaultPlan(corrupt_docs=frozenset({1})),
        ):
            config = InferenceConfig(on_error="skip", faults=faults)
            assert isinstance(config.faults, FaultPlan)
            assert config.resilient

    def test_empty_plan_normalizes_to_none(self):
        config = InferenceConfig(faults={})
        assert config.faults is None
        assert not config.resilient

    def test_env_plan_is_picked_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '{"corrupt_docs": [0]}')
        config = InferenceConfig(on_error="skip")
        assert config.faults is not None and config.faults.corrupts(0)
        # An explicit plan (even an empty one) beats the environment.
        explicit = InferenceConfig(faults={"corrupt_docs": [5]})
        assert not explicit.faults.corrupts(0)

    def test_resilient_evidence_validates_inputs(self):
        with pytest.raises(UsageError, match="backend"):
            parallel_evidence([], backend="gpu")
        with pytest.raises(UsageError, match="jobs"):
            parallel_evidence([], jobs=0)
        with pytest.raises(UsageError, match="on_error"):
            parallel_evidence([], on_error="maybe")


class TestCli:
    def _corpus_with_bad_doc(self, tmp_path):
        paths = write_corpus(tmp_path, 4)
        (tmp_path / "doc002.xml").write_text("<r><item>", encoding="utf-8")
        return paths

    def test_skip_mode_prints_partial_dtd_and_summary(self, tmp_path, capsys):
        paths = self._corpus_with_bad_doc(tmp_path)
        code = main(["infer", *paths, "--on-error", "skip"])
        captured = capsys.readouterr()
        assert code == 0
        assert "<!ELEMENT item" in captured.out
        assert "degraded run: 1 quarantined" in captured.err
        assert "doc002.xml" in captured.err

    def test_strict_mode_exits_one_on_bad_doc(self, tmp_path, capsys):
        paths = self._corpus_with_bad_doc(tmp_path)
        code = main(["infer", *paths])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_max_quarantine_exceeded_exits_one(self, tmp_path, capsys):
        paths = self._corpus_with_bad_doc(tmp_path)
        code = main(
            ["infer", *paths, "--on-error", "skip", "--max-quarantine", "0"]
        )
        assert code == 1
        assert "max_quarantine=0" in capsys.readouterr().err

    def test_fault_plan_flag_injects(self, tmp_path, capsys):
        paths = write_corpus(tmp_path, 4)
        code = main(
            [
                "infer",
                *paths,
                "--on-error",
                "skip",
                "--fault-plan",
                '{"corrupt_docs": [1]}',
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "injected fault: corrupt document #1" in captured.err

    def test_fault_plan_file(self, tmp_path, capsys):
        paths = write_corpus(tmp_path, 4)
        plan = tmp_path / "plan.json"
        plan.write_text('{"corrupt_docs": [0]}', encoding="utf-8")
        code = main(
            ["infer", *paths, "--on-error", "skip", "--fault-plan", f"@{plan}"]
        )
        assert code == 0
        assert "quarantined" in capsys.readouterr().err

    def test_malformed_fault_plan_exits_one(self, tmp_path, capsys):
        paths = write_corpus(tmp_path, 2)
        code = main(["infer", *paths, "--fault-plan", '{"bogus": []}'])
        assert code == 1
        assert "unknown fault plan keys" in capsys.readouterr().err

    def test_injected_learner_failure_is_internal_exit_two(
        self, tmp_path, capsys
    ):
        paths = write_corpus(tmp_path, 4)
        code = main(
            [
                "infer",
                *paths,
                "--fault-plan",
                '{"element_failures_hard": ["item"]}',
            ]
        )
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_stats_include_resilience_counters(self, tmp_path, capsys):
        paths = self._corpus_with_bad_doc(tmp_path)
        code = main(["infer", *paths, "--on-error", "skip", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "resilience.quarantined" in captured.err


class TestAcceptanceScenario:
    def test_two_hundred_docs_one_crash_two_corrupt(self, tmp_path):
        """The PR's acceptance scenario, end to end."""
        paths = write_corpus(tmp_path, 200)
        recorder = StatsRecorder()
        config = InferenceConfig(
            streaming=True,
            jobs=2,
            backend="thread",
            on_error="skip",
            recorder=recorder,
            faults={"worker_crashes": [0], "corrupt_docs": [5, 17]},
        )
        result = infer(paths, config=config)
        assert isinstance(result, InferenceResult)
        quarantined = [doc.path for doc in result.degradation.quarantined]
        assert quarantined == [paths[5], paths[17]]
        (retry,) = result.degradation.retried_shards
        assert retry.shard == 0 and retry.reason == "worker-crash"
        clean = [
            path
            for index, path in enumerate(paths)
            if index not in (5, 17)
        ]
        baseline = infer(
            clean, config=InferenceConfig(streaming=True, jobs=2, backend="thread")
        )
        assert result.dtd.render() == baseline.dtd.render()

    def test_same_plan_in_strict_mode_aborts(self, tmp_path):
        paths = write_corpus(tmp_path, 20)
        with pytest.raises(CorpusError, match="corrupt document #5"):
            infer(
                paths,
                config=InferenceConfig(
                    streaming=True,
                    jobs=2,
                    backend="thread",
                    faults={"worker_crashes": [0], "corrupt_docs": [5, 17]},
                ),
            )


class TestReportShape:
    def test_to_dict_is_json_serializable(self, tmp_path):
        paths = write_corpus(tmp_path, 8)
        result = infer(
            paths,
            config=InferenceConfig(
                method="idtd",
                streaming=True,
                jobs=2,
                backend="thread",
                on_error="skip",
                faults={
                    "worker_crashes": [1],
                    "corrupt_docs": [2],
                    "element_failures": ["item"],
                },
            ),
        )
        payload = json.loads(json.dumps(result.degradation.to_dict()))
        assert [doc["path"] for doc in payload["quarantined"]] == [paths[2]]
        assert payload["retried_shards"][0]["reason"] == "worker-crash"
        assert payload["fallbacks"][0]["element"] == "item"

    def test_quarantine_cap_message_names_last_document(self):
        report = DegradationReport()
        report.add_quarantine(
            QuarantinedDocument(path="a.xml", cause="bad"), limit=1
        )
        with pytest.raises(QuarantineExceeded, match="b.xml"):
            report.add_quarantine(
                QuarantinedDocument(path="b.xml", cause="worse"), limit=1
            )

    def test_default_retry_policy_is_shared(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3

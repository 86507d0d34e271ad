"""The observability substrate: recorders, snapshots, reports, traces."""

import io
import json
import pickle

from repro.obs.check_trace import validate_trace_lines
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder, StatsRecorder
from repro.obs.report import (
    format_stats,
    iter_trace_lines,
    phase_totals,
    summary_dict,
    write_trace,
)


class TestNullRecorder:
    def test_disabled(self):
        assert NULL_RECORDER.enabled is False

    def test_span_is_a_noop_context_manager(self):
        with NULL_RECORDER.span("parse", file="x.xml"):
            pass

    def test_count_is_a_noop(self):
        NULL_RECORDER.count("documents")

    def test_satisfies_the_protocol(self):
        assert isinstance(NullRecorder(), Recorder)
        assert isinstance(StatsRecorder(), Recorder)


class TestSpans:
    def test_span_records_name_attrs_duration(self):
        recorder = StatsRecorder()
        with recorder.span("parse", file="a.xml"):
            pass
        (span,) = recorder.spans
        assert span["name"] == "parse"
        assert span["attrs"] == {"file": "a.xml"}
        assert span["duration"] is not None and span["duration"] >= 0

    def test_nesting_records_parents(self):
        recorder = StatsRecorder()
        with recorder.span("shard"):
            with recorder.span("parse"):
                pass
            with recorder.span("extract"):
                with recorder.span("soa"):
                    pass
        by_name = {span["name"]: span for span in recorder.spans}
        assert by_name["shard"]["parent"] is None
        assert by_name["parse"]["parent"] == by_name["shard"]["id"]
        assert by_name["extract"]["parent"] == by_name["shard"]["id"]
        assert by_name["soa"]["parent"] == by_name["extract"]["id"]

    def test_closing_the_outermost_span_samples_memory(self):
        recorder = StatsRecorder()
        with recorder.span("parse"):
            pass
        assert recorder.memory_samples
        assert recorder.memory_samples[0]["peak_rss_kb"] > 0


class TestCountersAndAggregates:
    def test_counters_accumulate(self):
        recorder = StatsRecorder()
        recorder.count("documents")
        recorder.count("documents")
        recorder.count("child_sequences", 7)
        assert recorder.counters["documents"] == 2
        assert recorder.counters["child_sequences"] == 7


class TestSnapshotsAndMerging:
    def test_snapshot_is_picklable(self):
        recorder = StatsRecorder()
        with recorder.span("parse"):
            recorder.count("documents")
        snapshot = recorder.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_merge_tags_shards_and_remaps_ids(self):
        worker = StatsRecorder()
        with worker.span("shard", index=0):
            with worker.span("parse"):
                pass
        worker.count("documents", 3)

        driver = StatsRecorder()
        with driver.span("emit"):
            pass
        before = len(driver.spans)
        driver.merge_snapshot(worker.snapshot(), shard=0)

        merged = driver.spans[before:]
        assert all(span["shard"] == 0 for span in merged)
        shard_span = next(s for s in merged if s["name"] == "shard")
        parse_span = next(s for s in merged if s["name"] == "parse")
        assert shard_span["id"] >= before
        assert parse_span["parent"] == shard_span["id"]
        assert driver.counters["documents"] == 3

    def test_merging_two_shards_keeps_ids_distinct(self):
        driver = StatsRecorder()
        for index in range(2):
            worker = StatsRecorder()
            with worker.span("shard", index=index):
                pass
            driver.merge_snapshot(worker.snapshot(), shard=index)
        ids = [
            span["id"] for span in driver.spans if span["id"] is not None
        ]
        assert len(ids) == len(set(ids))
        assert sorted(span["shard"] for span in driver.spans) == [0, 1]


class TestReports:
    def _snapshot(self):
        recorder = StatsRecorder()
        with recorder.span("parse", file="a.xml"):
            pass
        with recorder.span("extract"):
            pass
        with recorder.span("soa", element="r"):
            pass
        recorder.count("documents")
        return recorder.snapshot()

    def test_phase_totals_sum_spans(self):
        snapshot = self._snapshot()
        totals = phase_totals(snapshot)
        assert totals["parse"]["calls"] == 1
        assert totals["soa"]["calls"] == 1
        (soa,) = [span for span in snapshot["spans"] if span["name"] == "soa"]
        assert totals["soa"]["seconds"] == soa["duration"]

    def test_format_stats_mentions_phases_and_counters(self):
        text = format_stats(self._snapshot())
        for needle in ("parse", "extract", "soa", "wall clock",
                       "documents", "peak RSS"):
            assert needle in text

    def test_summary_dict_shape(self):
        summary = summary_dict(self._snapshot())
        assert set(summary) == {
            "phases", "wall_seconds", "counters", "peak_rss_kb"
        }
        assert summary["counters"]["documents"] == 1
        assert summary["phases"]["parse"]["calls"] == 1


class TestTraces:
    def test_trace_lines_validate(self):
        snapshot = StatsRecorder().snapshot()
        assert validate_trace_lines(list(iter_trace_lines(snapshot))) == []

    def test_trace_ends_with_one_summary(self):
        recorder = StatsRecorder()
        with recorder.span("parse"):
            pass
        lines = list(iter_trace_lines(recorder.snapshot()))
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records].count("summary") == 1
        assert records[-1]["type"] == "summary"

    def test_write_trace_roundtrip(self):
        recorder = StatsRecorder()
        with recorder.span("rewrite", element="book"):
            recorder.count("rewrite.steps", 4)
        stream = io.StringIO()
        written = write_trace(recorder.snapshot(), stream)
        lines = stream.getvalue().splitlines()
        assert len(lines) == written
        assert validate_trace_lines(lines) == []

    def test_validator_rejects_garbage(self):
        assert validate_trace_lines(["not json"])
        missing_key = json.dumps({"type": "span", "name": "x"})
        assert validate_trace_lines([missing_key])
        no_summary = json.dumps({
            "type": "span", "id": 0, "parent": None, "name": "parse",
            "attrs": {}, "start": 0.0, "duration": 0.1, "count": 1,
            "shard": None,
        })
        assert validate_trace_lines([no_summary])

"""Percentiles, quartiles and the self-time arithmetic of the trace tables."""

from __future__ import annotations

import statistics

import pytest

from stats import Tracer, covered, layer_table, percentile, quartiles, self_times, spread, summary


def span(identifier: str, parent: str | None, start: float, end: float, name: str | None = None) -> dict:
    return {"id": identifier, "parent": parent, "trace": "t", "name": name or identifier, "start": start, "end": end}


def test_percentile_interpolates_between_ranks() -> None:
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(values, 0.9) == pytest.approx(3.7)
    assert percentile([5.0], 0.99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("values", [[1.0, 2.0], [3.0, 1.0, 2.0], [float(v) for v in range(10)], [1.0, 1.0, 9.0, 9.0, 5.0]])
def test_quartiles_match_statistics_quantiles(values: list[float]) -> None:
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_quartiles_and_spread_of_one_value() -> None:
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert spread([2.0]) == 0.0
    assert summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_spread_is_iqr_over_median() -> None:
    values = [float(v) for v in range(1, 11)]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_covered_is_the_length_of_the_union() -> None:
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0  # disjoint
    assert covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0  # overlapping
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0  # nested
    assert covered([(1.0, 2.0), (0.0, 1.0)]) == 2.0  # touching, unsorted


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 3.0, 6.0),  # overlaps a: children cover 1..6
        span("a1", "a", 1.5, 2.5),
        span("late", "root", 9.0, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["late"] == pytest.approx(3.0)


def test_layer_table_rows_sum_to_wall_with_unattributed_last() -> None:
    spans = [
        span("root", None, 0.0, 10.0, "trace"),
        span("p1", "root", 0.0, 1.5, "xmlio.parse"),
        span("p2", "root", 1.5, 2.5, "xmlio.parse"),
        span("f", "root", 3.0, 7.0, "core.finalize"),
        span("i", "f", 3.0, 6.0, "core.idtd"),
    ]
    table = layer_table(spans, "root")
    assert [row["name"] for row in table] == ["core.idtd", "xmlio.parse", "core.finalize", "unattributed"]
    rows = {row["name"]: row for row in table}
    assert rows["xmlio.parse"]["calls"] == 2
    assert rows["xmlio.parse"]["total_s"] == pytest.approx(2.5)
    assert rows["core.finalize"]["total_s"] == pytest.approx(4.0)
    assert rows["core.finalize"]["self_s"] == pytest.approx(1.0)
    assert rows["unattributed"]["self_s"] == pytest.approx(3.5)
    assert sum(row["self_s"] for row in table) == pytest.approx(10.0)
    assert sum(row["share"] for row in table) == pytest.approx(1.0)


def test_tracer_records_parents_and_trace_id() -> None:
    tracer = Tracer("w-1", prefix="c", parent="p1")
    with tracer.span("outer") as outer:
        with tracer.span("inner", element="x") as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] == "p1"
    assert inner["element"] == "x"
    assert {record["trace"] for record in tracer.spans} == {"w-1"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert [record["name"] for record in tracer.spans] == ["inner", "outer"]

"""``compare.py``'s parent-versus-change rule on synthetic runs."""

from __future__ import annotations

import json

import pytest

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "xmlio.parse_s", "unit": "s", "better": "lower"}],
}

STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def scaled(values: list[float], factor: float) -> list[float]:
    return [value * factor for value in values]


def test_a_clear_win_is_a_gain() -> None:
    assert compare.verdict(STEADY, scaled(STEADY, 0.9), "lower", 0.1) == ("gain", 10)


def test_a_gain_needs_nine_wins_in_ten() -> None:
    change = scaled(STEADY, 0.9)
    change[0] = change[1] = 1.03  # two lost pairs, spread still inside the bound
    assert compare.verdict(STEADY, change, "lower", 0.1)[0] == "same"


def test_a_gain_needs_medians_further_apart_than_the_parent_iqr() -> None:
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0]
    change = [value - 0.01 for value in parent]  # wins every pair, by less than the IQR
    assert compare.verdict(parent, change, "lower", None)[0] == "same"


def test_worse_beyond_the_bound_is_a_regression() -> None:
    assert compare.verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.1)[0] == "regression"
    assert compare.verdict(STEADY, scaled(STEADY, 1.05), "lower", 0.1)[0] == "same"


def test_higher_is_better_metrics_flip_the_direction() -> None:
    assert compare.verdict(STEADY, scaled(STEADY, 1.2), "higher", 0.1)[0] == "gain"
    assert compare.verdict(STEADY, scaled(STEADY, 0.8), "higher", 0.1)[0] == "regression"


def test_spread_wider_than_the_bound_is_unresolved() -> None:
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, scaled(noisy, 1.15), "lower", 0.1)[0] == "unresolved"


def test_unresolved_unless_every_change_run_beats_every_parent_run() -> None:
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, scaled(noisy, 0.3), "lower", 0.1)[0] == "gain"


def test_fewer_than_ten_pairs_decide_nothing() -> None:
    assert compare.verdict(STEADY[:5], scaled(STEADY[:5], 0.5), "lower", 0.1)[0].startswith("too few")


def write_runs(path, workload: str, seeds: list[int], metrics: dict[str, list[float]], failed: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, seed in enumerate(seeds):
            result = {
                "correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": values[index], "unit": "s"} for name, values in metrics.items()},
            }
            handle.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, "result": result}) + "\n")


def test_files_pair_up_by_seed_and_print_one_row_per_metric(tmp_path, capsys) -> None:
    seeds = list(range(1, 11))
    write_runs(tmp_path / "p.jsonl", "corpus-batch", seeds, {"wall_s": STEADY, "ops_per_s": STEADY})
    # The change's file lists the seeds in reverse: pairing is by seed, not by line.
    write_runs(
        tmp_path / "c.jsonl", "corpus-batch", seeds[::-1],
        {"wall_s": scaled(STEADY, 0.8)[::-1], "ops_per_s": scaled(STEADY, 1.0)[::-1]},
    )
    status = compare.compare(str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), BENCHMARK)
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("corpus-batch")]
    assert status == 0
    assert len(lines) == 2
    assert "wall_s" in lines[0] and lines[0].rstrip().endswith("gain") and "10/10" in lines[0]
    assert lines[1].rstrip().endswith("same")


def test_a_regression_sets_the_exit_status(tmp_path) -> None:
    seeds = list(range(10))
    write_runs(tmp_path / "p.jsonl", "serve-mixed", seeds, {"wall_s": STEADY})
    write_runs(tmp_path / "c.jsonl", "serve-mixed", seeds, {"wall_s": scaled(STEADY, 1.3)})
    assert compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")]) == 1


def test_more_failures_void_a_gain(tmp_path, capsys) -> None:
    seeds = list(range(10))
    write_runs(tmp_path / "p.jsonl", "corpus-batch", seeds, {"wall_s": STEADY})
    write_runs(tmp_path / "c.jsonl", "corpus-batch", seeds, {"wall_s": scaled(STEADY, 0.5)}, failed=1)
    compare.compare(str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl"), BENCHMARK)
    assert "same (more failures)" in capsys.readouterr().out


@pytest.mark.parametrize("noisy, status", [(False, 0), (True, 1)])
def test_one_file_checks_each_spread_against_its_bound(tmp_path, capsys, noisy: bool, status: int) -> None:
    wall = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0] if noisy else STEADY
    setup = [0.5, 1.5, 0.5, 1.5, 1.0, 1.0, 0.5, 1.5, 1.0, 1.0]  # set-up spread is not held to its bound
    write_runs(tmp_path / "r.jsonl", "corpus-batch", list(range(10)), {"wall_s": wall, "setup_s": setup})
    assert compare.check_spread(str(tmp_path / "r.jsonl"), BENCHMARK) == status
    out = capsys.readouterr().out
    assert ("TOO WIDE" in out) is noisy

"""The indexed shard matcher against the slicing scan it replaced.

``reference_find_run`` is ``_find_run`` as it stood before: it slices
``hashes`` at every position from ``start`` on.  The indexed version
only tries the positions of the needle's first hash and compares in
place, so it must return the same position for every input, and the
greedy, forward-only matching of a sequence of old shards must pick the
same runs.  Small hash alphabets make repeats, overlaps and near misses
common.
"""

from __future__ import annotations

from collections.abc import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.runner import _find_run

SETTINGS = settings(max_examples=300, deadline=None)

HASHES = st.lists(st.sampled_from("abc"), max_size=24)


def reference_find_run(
    hashes: Sequence[str], needle: Sequence[str], start: int
) -> int | None:
    length = len(needle)
    if length == 0:
        return None
    wanted = list(needle)
    for position in range(start, len(hashes) - length + 1):
        if hashes[position : position + length] == wanted:
            return position
    return None


def index(hashes: Sequence[str]) -> dict[str, list[int]]:
    starts: dict[str, list[int]] = {}
    for position, digest in enumerate(hashes):
        starts.setdefault(digest, []).append(position)
    return starts


@SETTINGS
@given(HASHES, HASHES, st.integers(min_value=0, max_value=30))
def test_same_position_as_the_slicing_scan(hashes, needle, start):
    assert _find_run(hashes, index(hashes), needle, start) == reference_find_run(
        hashes, needle, start
    )


@SETTINGS
@given(HASHES, st.lists(HASHES, max_size=6))
def test_same_greedy_forward_matching(hashes, shards):
    starts = index(hashes)
    position = reference_position = 0
    for needle in shards:
        found = _find_run(hashes, starts, needle, position)
        assert found == reference_find_run(hashes, needle, reference_position)
        if found is not None:
            position = reference_position = found + len(needle)


def test_edited_shard_is_rejected_after_one_comparison_run():
    hashes = [f"h{position}" for position in range(50_000)]
    needle = hashes[10_000:16_250]
    edited = list(hashes)
    edited[16_000] = "edit"
    assert _find_run(edited, index(edited), needle, 0) is None
    assert _find_run(hashes, index(hashes), needle, 0) == 10_000
    assert _find_run(hashes, index(hashes), needle, 10_001) is None

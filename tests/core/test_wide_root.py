"""A pinned iDTD run on a wide root: 51 symbols, 36 repairs.

The root's children are drawn by :class:`repro.datagen.XmlGenerator`
from two wide disjunctions around a short sequence, over too few
documents for the 2T-INF automaton to be representative, so iDTD
repairs the stuck graph 36 times.  The regex, every repair's rule,
nodes and edge count, and a digest of every added edge were recorded
before the repair search scored its candidates by count; the search
must keep choosing the same repairs.  A digest of every rewrite step
was recorded before the rewrite loop carried its closure and bucketed
its disjunction candidates; the same rules must fire on the same nodes.  The DTD bytes must also agree
across batch, streaming and ``jobs=2`` for each SORE-based method.
"""

import hashlib
import json
import random

import pytest

from repro.api import InferenceConfig, infer
from repro.core.idtd import idtd_from_soa
from repro.datagen import XmlGenerator, serialize
from repro.learning.evidence import child_sequences
from repro.learning.tinf import tinf
from repro.regex.printer import to_paper_syntax
from repro.xmlio.dtd import parse_dtd


def _choice(first: int, last: int) -> str:
    return "(" + " | ".join(f"a{i}" for i in range(first, last + 1)) + ")"


WIDE_DTD = (
    f"<!ELEMENT db (a1?, {_choice(2, 24)}*, a25, (a26, a27?)?, {_choice(28, 50)}+, a51?)>\n"
    + "".join(f"<!ELEMENT a{i} EMPTY>\n" for i in range(1, 52))
)

REGEX = (
    "a1? a2? (a10 + a14 + a22 + a23 + a15 + a13 + a16 + a20 + a4 + a3 + "
    "a18 + a8 + a12 + a11 + a21 + a17 + a9 + a5 + a19 + a7 + a24 + a6)* "
    "a25 (a26 + a33 + a27)* ((a34 + a47 + a28 + a29 + a30 + a43 + a36 + "
    "a40 + a32 + a35 + a48 + a50 + a49 + a41 + a38 + a42 + a31 + a45 + "
    "a39 + a37 + a44 + a46)* a51?)?"
)

#: ``(rule, nodes, len(new_edges))`` for each repair, in firing order.
REPAIRS = [
    ("enable_disjunction_b", (31, 36), 8),
    ("enable_disjunction_b", (4, 7), 12),
    ("enable_disjunction_b", (1, 5), 13),
    ("enable_disjunction_b", (12, 33), 13),
    ("enable_disjunction_b", (52, 54), 12),
    ("enable_disjunction_b", (14, 53), 14),
    ("enable_disjunction_b", (15, 56), 13),
    ("enable_disjunction_b", (8, 50), 14),
    ("enable_disjunction_b", (27, 41), 15),
    ("enable_disjunction_b", (20, 59), 13),
    ("enable_disjunction_b", (21, 60), 13),
    ("enable_disjunction_b", (23, 61), 14),
    ("enable_disjunction_b", (25, 28), 13),
    ("enable_disjunction_b", (30, 38), 13),
    ("enable_disjunction_b", (42, 63), 14),
    ("enable_disjunction_b", (37, 62), 15),
    ("enable_disjunction_b", (24, 39), 14),
    ("enable_disjunction_b", (29, 66), 13),
    ("enable_disjunction_b", (34, 68), 12),
    ("enable_disjunction_b", (6, 57), 16),
    ("enable_disjunction_b", (55, 70), 15),
    ("enable_disjunction_b", (44, 58), 13),
    ("enable_disjunction_b", (22, 71), 13),
    ("enable_disjunction_b", (45, 65, 69), 20),
    ("enable_disjunction_b", (43, 74), 10),
    ("enable_disjunction_b", (35, 75), 11),
    ("enable_disjunction_b", (51, 76), 11),
    ("enable_disjunction_b", (32, 77), 12),
    ("enable_disjunction_b", (64, 78), 5),
    ("enable_disjunction_b", (9, 49, 73), 24),
    ("enable_disjunction_b", (3, 81), 10),
    ("enable_disjunction_b", (2, 82), 12),
    ("enable_disjunction_b", (72, 83), 6),
    ("enable_disjunction_b", (47, 84), 4),
    ("enable_disjunction_a", (18, 26), 2),
    ("enable_disjunction_b", (19, 88), 2),
]

#: sha256 of ``repr([(rule, nodes, new_edges), ...])``.
REPAIRS_SHA256 = "bba1b59b3da22d2a46e4b975d770936b04b914af0293afcc234a2c1bae3d9311"

#: sha256 of ``repr([(rule, nodes), ...])`` over the rewrite steps, in
#: firing order (121 steps), recorded while every rule search still
#: recomputed the closure and compared all node pairs for disjunction.
STEPS_SHA256 = "f4caa1b4c39ecaa4e4888b4e797b5b02cef8e95f74100a7b205253e4db2e4ed1"

#: Every SORE-based method routes the root to iDTD: one DTD for all.
DTD_SHA256 = "affa51c170a07dbc39a56250fec90d11f2eda2859b182ca33b800a7da50e259d"


@pytest.fixture(scope="module")
def documents():
    generator = XmlGenerator(parse_dtd(WIDE_DTD), random.Random(7), repeat_continue=0.6)
    return generator.corpus(60)


@pytest.fixture(scope="module")
def paths(documents, tmp_path_factory):
    directory = tmp_path_factory.mktemp("wide")
    written = []
    for index, document in enumerate(documents):
        path = directory / f"doc{index:03d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        written.append(str(path))
    return written


def test_idtd_repairs_are_pinned(documents):
    soa = tinf(child_sequences(documents, "db"))
    assert len(soa.symbols) == 51
    result = idtd_from_soa(soa)
    assert to_paper_syntax(result.regex) == REGEX
    got = [(repair.rule, repair.nodes, len(repair.new_edges)) for repair in result.repairs]
    assert got == REPAIRS
    full = [(repair.rule, repair.nodes, repair.new_edges) for repair in result.repairs]
    assert hashlib.sha256(repr(full).encode()).hexdigest() == REPAIRS_SHA256
    steps = [(step.rule, step.nodes) for step in result.steps]
    assert len(steps) == 121
    assert hashlib.sha256(repr(steps).encode()).hexdigest() == STEPS_SHA256


@pytest.mark.parametrize("method", ["auto", "idtd", "kore"])
def test_dtd_bytes_equal_across_shapes(paths, method):
    shapes = [{}, {"streaming": True}, {"jobs": 2}]
    for options in shapes:
        # cache=False: each shape learns the root afresh
        config = InferenceConfig(method=method, cache=False, **options)
        text = infer(paths, config=config).render()
        assert hashlib.sha256(text.encode()).hexdigest() == DTD_SHA256, options


def test_stats_and_trace_explain_the_repairs(paths, tmp_path, capsys):
    from repro.cli import main
    from repro.obs import validate_trace_file

    trace = tmp_path / "trace.jsonl"
    code = main(
        ["dtd", "--method", "idtd", "--no-cache", "--stats", "--trace", str(trace), *paths]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert validate_trace_file(str(trace)) == []
    summary = json.loads(trace.read_text().splitlines()[-1])
    counters = summary["counters"]
    assert counters["repair.firings"] == len(REPAIRS) == 36
    assert counters["repair.enable_disjunction_b"] == 35
    assert counters["repair.enable_disjunction_a"] == 1
    assert counters["repair.candidates"] > counters["repair.firings"]
    # One closure per rewrite loop, the first and one after each repair;
    # every step carries it: as it was after optional and self_loop,
    # renamed after a merge.
    assert counters["rewrite.closure_computed"] == counters["repair.firings"] + 1
    assert counters["rewrite.closure_reused"] > 0
    assert counters["rewrite.closure_updated"] > 0
    assert (
        counters["rewrite.closure_reused"] + counters["rewrite.closure_updated"]
        == counters["rewrite.steps"]
    )
    shown = ("repair.", "rewrite.closure_")
    printed = dict(line.split() for line in err.splitlines() if line.startswith(shown))
    assert printed == {
        name: str(value) for name, value in counters.items() if name.startswith(shown)
    }

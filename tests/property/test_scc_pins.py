"""Pinned outputs of the three learners built on strongly connected components.

CRX's ``≈W`` classes, Trang's contracted blocks and iDTD's repair of
last resort all come from :func:`repro.automata.scc.strongly_connected_components`.
The order in which it visits roots and successors decides which
component iDTD contracts first, so the digests below were recorded from
the learners' earlier, separate SCC routines and must not move:

* a sha256 over ``to_paper_syntax`` of the Trang, CRX and iDTD output on
  a seeded sweep of random samples;
* the Table 2 ``example1``..``example5`` expressions of all three;
* the labels :func:`repro.core.idtd._contract_scc` leaves on hand-built
  GFAs with at least two disjoint looping components.  ``idtd`` itself
  almost never reaches the contraction, so it is called directly.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.automata.gfa import GFA, SINK, SOURCE
from repro.baselines.trang import trang
from repro.core.crx import crx
from repro.core.idtd import _contract_scc, idtd
from repro.datagen.corpora import TABLE2
from repro.regex.ast import Plus, Sym
from repro.regex.printer import to_paper_syntax

LEARNERS = {"trang": trang, "crx": crx, "idtd": idtd}

SWEEP_SEED = 20061
SWEEP_SIZE = 400

#: sha256 of the newline-joined expressions over :func:`_sweep`.
SWEEP_SHA256 = {
    "crx": "b8d1ec349d10f0567b2151c416aa9b72e665d585fe24a1078c1e2077406bdb11",
    "idtd": "1f00e75c848c1e346043397627bcdbe580262bcf95103501bb74ef2c5054b0ec",
    "trang": "4c403ca7a328619773ca0d62d373a8c4899ab512da5dbbddd3344f7bed207fcd",
}

#: ``(trang, crx, idtd)`` on each Table 2 row's representative sample.
TABLE2_EXPRESSIONS = {
    "example1": (
        "a1* a2? a3*",
        "a1* a2? a3*",
        "a1+ + a2? a3+",
    ),
    "example2": (
        "a1? a2? a3? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17"
        " + a18 + a5 + a6 + a7 + a8 + a9)*",
        "a1? a2? a3? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17"
        " + a18 + a5 + a6 + a7 + a8 + a9)*",
        "(a1 a2? a3?)? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + "
        "a17 + a18 + a5 + a6 + a7 + a8 + a9)*",
    ),
    "example3": (
        "a1? a2? a3? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 + "
        "a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a4 + a40 + a41 + a42 + a43 + a44 + a5 + a6 + a7 + "
        "a8 + a9)* a45+",
        "a1? a2? a3? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 + "
        "a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a4 + a40 + a41 + a42 + a43 + a44 + a5 + a6 + a7 + "
        "a8 + a9)* a45+",
        "a1? (a2 a3?)? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 +"
        " a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a40 + a41 + a42 + a43 + a44 + a4 + a5 + a6 + a7 + "
        "a8 + a9)* a45+",
    ),
    "example4": (
        "a1? a2 a3? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 "
        "+ a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a40 + a41 + a42 + a43 + a44 + a45 + a46 + a47 + "
        "a48 + a49 + a50 + a51 + a52 + a53 + a54 + a55 + a56 + a57 + "
        "a58 + a59 + a6 + a60 + a61 + a7 + a8 + a9)* a5*",
        "a1? a2 a3? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 "
        "+ a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a40 + a41 + a42 + a43 + a44 + a45 + a46 + a47 + "
        "a48 + a49 + a50 + a51 + a52 + a53 + a54 + a55 + a56 + a57 + "
        "a58 + a59 + a6 + a60 + a61 + a7 + a8 + a9)* a5*",
        "a1? a2 a3? a4? (a10 + a11 + a12 + a13 + a14 + a15 + a16 + a17 "
        "+ a18 + a19 + a20 + a21 + a22 + a23 + a24 + a25 + a26 + a27 + "
        "a28 + a29 + a30 + a31 + a32 + a33 + a34 + a35 + a36 + a37 + "
        "a38 + a39 + a40 + a41 + a42 + a43 + a44 + a45 + a46 + a47 + "
        "a48 + a49 + a50 + a51 + a52 + a53 + a54 + a55 + a56 + a57 + "
        "a58 + a59 + a6 + a60 + a61 + a7 + a8 + a9)* a5*",
    ),
    "example5": (
        "a1 (a2 + a3 + a4 + a5)*",
        "a1 (a2 + a3 + a4 + a5)*",
        "a1 ((a2 + a3 + a4) a5*)*",
    ),
}


def _sweep() -> list[list[tuple[str, ...]]]:
    """Seeded random samples over small alphabets, loops included."""
    rng = random.Random(SWEEP_SEED)
    samples: list[list[tuple[str, ...]]] = []
    while len(samples) < SWEEP_SIZE:
        alphabet = [f"s{i}" for i in range(rng.randint(1, 7))]
        words = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 8))
        ]
        if any(words):
            samples.append(words)
    return samples


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_sweep_digest(name):
    learner = LEARNERS[name]
    text = "\n".join(to_paper_syntax(learner(words)) for words in _sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256[name]


@pytest.mark.parametrize("row", TABLE2, ids=lambda row: row.element)
def test_table2_expressions(row):
    sample = row.sample()
    found = tuple(
        to_paper_syntax(LEARNERS[name](sample)) for name in ("trang", "crx", "idtd")
    )
    assert found == TABLE2_EXPRESSIONS[row.element]


def _gfa(labels: list[str], edges: list[tuple[int, int]]) -> GFA:
    """Nodes ``0..n-1`` labelled by symbol (``x+`` for a trailing ``+``).

    ``-1`` and ``-2`` in ``edges`` are the source and the sink.
    """
    gfa = GFA()
    for label in labels:
        if label.endswith("+"):
            gfa.add_node(Plus(Sym(label[:-1])))
        else:
            gfa.add_node(Sym(label))
    for tail, head in edges:
        gfa.add_edge(tail, head)
    return gfa


#: Hand-built GFAs, each with two or more disjoint looping components.
CONTRACTION_CASES = {
    # two parallel two-cycles behind one entry node
    "parallel-cycles": _gfa(
        ["a", "b", "c", "d", "e", "f"],
        [
            (SOURCE, 0), (0, 1), (0, 3), (1, 2), (2, 1), (3, 4), (4, 3),
            (2, 5), (4, 5), (5, SINK),
        ],
    ),
    # a cycle that reaches a second cycle downstream
    "chained-cycles": _gfa(
        ["a", "b", "c", "d"],
        [(SOURCE, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, SINK)],
    ),
    # self-loops only, one on a plus label
    "self-loops": _gfa(
        ["a", "b+", "c"],
        [
            (SOURCE, 0), (0, 0), (0, 1), (1, 1), (1, 2), (2, 2),
            (2, SINK), (0, SINK),
        ],
    ),
    # three cycles reached from separate entries, ids interleaved
    "interleaved-ids": _gfa(
        ["a", "b", "c", "d", "e", "f", "g"],
        [
            (SOURCE, 0), (SOURCE, 1), (SOURCE, 2), (0, 3), (3, 0),
            (1, 4), (4, 5), (5, 1), (2, 6), (6, 2), (3, SINK),
            (5, SINK), (6, SINK), (4, 6),
        ],
    ),
}

#: ``{node: label}`` after each successful ``_contract_scc`` call.
CONTRACTIONS = {
    "chained-cycles": [
        {0: "a", 1: "b", 4: "(c + d)+"},
        {4: "(c + d)+", 5: "(a + b)+"},
    ],
    "interleaved-ids": [
        {1: "b", 2: "c", 4: "e", 5: "f", 6: "g", 7: "(a + d)+"},
        {1: "b", 4: "e", 5: "f", 7: "(a + d)+", 8: "(c + g)+"},
        {7: "(a + d)+", 8: "(c + g)+", 9: "(b + e + f)+"},
    ],
    "parallel-cycles": [
        {0: "a", 1: "b", 2: "c", 5: "f", 6: "(d + e)+"},
        {0: "a", 5: "f", 6: "(d + e)+", 7: "(b + c)+"},
    ],
    "self-loops": [
        {0: "a", 1: "b+", 3: "c+"},
        {0: "a", 3: "c+", 4: "b+"},
        {3: "c+", 4: "b+", 5: "a+"},
    ],
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
def test_contraction_labels(name):
    gfa = CONTRACTION_CASES[name].copy()
    found: list[dict[int, str]] = []
    while _contract_scc(gfa):
        found.append(
            {node: to_paper_syntax(label) for node, label in sorted(gfa.labels.items())}
        )
    assert found == CONTRACTIONS[name]

"""The generator: seeded, independent of the program, and valid by construction."""

from __future__ import annotations

import ast
import itertools
import os
import subprocess
import sys
from collections import Counter

import pytest

import corpora
from conftest import BENCH

SMALL = {"medium": (corpora.schema(), 150), "wide": (corpora.schema(copies=4), 60)}


def generate(name: str, seed: int) -> corpora.Corpus:
    shape, count = SMALL[name]
    return corpora.generate(name, seed, shape, count)


def test_generator_does_not_import_the_program() -> None:
    with open(os.path.join(BENCH, "corpora.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_bytes(name: str) -> None:
    first, second = generate(name, 7), generate(name, 7)
    assert first.documents == second.documents
    assert first.edits == second.edits
    assert first.sha256() == second.sha256()


def test_same_seed_gives_identical_bytes_in_another_process() -> None:
    script = (
        "import corpora; "
        "print(corpora.generate('medium', 7, corpora.schema(), 150).sha256())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=BENCH,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for hash_seed in ("1", "2")
    }
    assert digests == {generate("medium", 7).sha256()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seed_gives_different_bytes(name: str) -> None:
    assert generate(name, 7).sha256() != generate(name, 8).sha256()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_document_is_valid_under_its_model(name: str) -> None:
    from repro import api

    corpus = generate(name, 3)
    documents = list(corpus.documents) + [replacement for _, replacement in corpus.edits]
    result = api.validate([document.decode("utf-8") for document in documents], corpus.dtd)
    invalid = [entry.to_dict() for entry in result.documents if not entry.valid]
    assert not invalid, invalid[:2]


@pytest.mark.parametrize("element, text", corpora.MODELS)
def test_models_round_trip_through_the_renderer(element: str, text: str) -> None:
    model = corpora.parse_model(text)
    assert corpora.parse_model(corpora.render_model(model)) == model


def test_sampler_covers_every_operator() -> None:
    kinds = set()

    def walk(node: corpora.Node) -> None:
        kinds.add(node[0])
        if node[0] in ("seq", "alt", "inter"):
            for part in node[1]:
                walk(part)
        elif node[0] != "sym":
            walk(node[1])

    for _, text in corpora.MODELS:
        walk(corpora.parse_model(text))
    assert kinds == {"sym", "seq", "alt", "inter", "opt", "star", "plus"}


def test_edits_replace_one_percent_of_documents() -> None:
    corpus = corpora.generate("medium", 5, corpora.schema(), 400)
    indexes = [index for index, _ in corpus.edits]
    assert len(indexes) == 4 == len(set(indexes))
    edited = corpus.edited()
    assert sum(a != b for a, b in zip(edited, corpus.documents)) == 4


def test_root_children_repeat_only_as_pairs_of_repeated() -> None:
    import re

    for document in generate("wide", 4).documents:
        names = re.findall(rb'<([\w]+) id="', document)
        for name, count in Counter(names).items():
            assert count == (2 if name.endswith(b"repeated") else 1)


def test_serve_plan_is_seeded_and_keeps_the_mix_in_every_block() -> None:
    plan = list(itertools.islice(corpora.serve_plan(3, 0, bodies=50, documents=1000), 200))
    again = list(itertools.islice(corpora.serve_plan(3, 0, bodies=50, documents=1000), 200))
    other = list(itertools.islice(corpora.serve_plan(3, 1, bodies=50, documents=1000), 200))
    assert plan == again != other
    for start in range(0, 200, 10):
        kinds = Counter(op[0] for op in plan[start : start + 10])
        assert kinds == {"infer": 6, "append": 3, "validate": 1}
    bodies = Counter(op[1] for op in plan if op[0] == "infer")
    assert bodies.most_common(1)[0][0] == 0  # Zipf: rank 0 is the most popular
    for op in plan:
        if op[0] == "append":
            assert op[1] in (0, 1) and 1 <= len(op[2]) <= 3
        elif op[0] == "validate":
            assert len(op[1]) == 5


def test_parse_model_rejects_malformed_text() -> None:
    for text in ("(a1, a2", "(a1 | a2, a3)", "(a1 $ a2)", "a1)"):
        with pytest.raises(ValueError):
            corpora.parse_model(text)

"""Identity pins: the DTD bytes of the benchmark's smoke corpora, by digest.

The benchmark's seed-1 ``medium`` and ``wide`` corpora at its ``smoke``
sizes (200 and 60 documents, built by ``bench/corpora.py``, which
imports nothing of ``repro``) are inferred by every method in four
shapes — batch, ``jobs=2``, a ``state_dir`` run and a session fed in two
appends — with the content-model cache off and no fault plan.  Every
shape must render the bytes whose sha256 :data:`DTD_DIGESTS` pins.

The spilled leg patches :data:`~repro.learning.evidence.WORD_CAP` to 1
on fewer than :data:`~repro.runtime.parallel.PROCESS_CORPUS_FLOOR`
documents, so every shard folds in this process (where the patch
applies) and every bag spills into learner states.  It pins the DTDs
and the names of the checkpoint state files, which are digests of the
state payloads: a change to how a learner state dehydrates moves them.

A refactor of the learners, the evidence or the runtime must leave
every digest here unchanged; regenerate the table only for a change
that means to alter output bytes, and say so.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import InferenceConfig, InferenceSession, infer
from repro.ckpt.manifest import load_manifest
from repro.core.inference import METHODS
from repro.learning import evidence as evidence_module
from repro.runtime.parallel import PROCESS_CORPUS_FLOOR

BENCH_CORPORA = Path(__file__).resolve().parents[2] / "bench" / "corpora.py"

#: Documents of the spilled leg: under the process-pool floor.
SPILLED_DOCUMENTS = 40

#: ``(corpus, method)`` → sha256 of the rendered DTD, in every shape.
DTD_DIGESTS = {
    ("medium", "auto"): "0853a8a4fd2c50e746696480a9b0387d70471ed51be03a7d323c9b7a1980af5a",
    ("medium", "idtd"): "bbdfd16f6e6d3dcadbdadff8c20a60a4b009c6c8ed040bde0e6c3fb984c6bdea",
    ("medium", "crx"): "7e16aae1ca7cb27ebcfcb37af88d2da1739ec311d5c2d48ead452a9010e6be14",
    ("medium", "kore"): "d1eda88dd8ce17e948f32e9b0c3689195c7cdcaf96e3d24ad5407ed0a44f8208",
    ("medium", "sire"): "f6a1298dbe038926bab0c5d7cba1aecd7621f760ebae2b7646503763aa9fb6cf",
    ("wide", "auto"): "4d86bfc2322be2a5cc4b5d2cdc3d4a023acb385ce32b9eabfda0560d6c4c8f2f",
    ("wide", "idtd"): "7711284b90e3898898ca7921734a0d9a3d09ea7fa60ff5f7d01dfa3114019c02",
    ("wide", "crx"): "b808f1c736eb88806030d84c3c3a7e2d2e5b053c208d90bc29f008d60c12a5eb",
    ("wide", "kore"): "892f4ab4ee6397ac97e43aa90f5180d2296c5dc393a8b98c642290d4d3635775",
    ("wide", "sire"): "589e948dfaa47d0aa3b4cd628b3e8930c4f7a0f79db4a10deac94bab71ea7004",
}

#: ``(corpus, method)`` → sha256 of the spilled leg's DTD.
SPILLED_DIGESTS = {
    ("medium", "auto"): "1c424b0a45545d7a251b9ca5d57138faae3f7921e3d6483d21e3d11546411218",
    ("medium", "idtd"): "7e3dc91504437063584956555446cf3b17e124ec490182bbae872dbf98fc9b3c",
    ("medium", "crx"): "1c424b0a45545d7a251b9ca5d57138faae3f7921e3d6483d21e3d11546411218",
    ("medium", "kore"): "952740078616ed2557ffa99c50473539318a02e83f40b4e0d35ed158869df12f",
    ("medium", "sire"): "b3917213a593bff0b95ea53e66aa0f6342ebcad58f93e42c14c29cd18f2feec5",
    ("wide", "auto"): "e1509c940796c8a84baeeb4589d61a16b61903dfb72d1112ca14f7bfad29cede",
    ("wide", "idtd"): "836414fe9e96879fda50890b8beb765f42a945781f84d44d99ba1951e4fa3a34",
    ("wide", "crx"): "e1509c940796c8a84baeeb4589d61a16b61903dfb72d1112ca14f7bfad29cede",
    ("wide", "kore"): "371625bdcfeefa2bd2a918dea8a6ed0cb4ca84533abebf0ea76f25dba111aa75",
    ("wide", "sire"): "ac1f0c690a1523f40724438964dbc517641d392bb4a636d86e8ac3d224e87664",
}

#: corpus → the spilled ``state_dir`` run's state files, in manifest
#: order (the evidence, and so its digest, is the same for every method).
SPILLED_STATE_FILES = {
    "medium": ("efeba8da18a2fa39.state", "edeb3a8e4d989c2e.state"),
    "wide": ("d6e3057a85bb549c.state", "1c5ee126103426a6.state"),
}

SHAPES = ("batch", "jobs2", "state_dir", "session")


@functools.cache
def _corpora_module():
    spec = importlib.util.spec_from_file_location("bench_corpora", BENCH_CORPORA)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory) -> dict[str, list[str]]:
    """The smoke corpora written once, one file per document."""
    corpora = _corpora_module()
    shapes = {"medium": (corpora.schema(), 200), "wide": (corpora.schema(copies=4), 60)}
    paths = {}
    for name, (shape, count) in shapes.items():
        corpus = corpora.generate(name, 1, shape, count)
        directory = tmp_path_factory.mktemp(name)
        paths[name] = corpora.write_documents(corpus.documents, str(directory))
    return paths


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(shape: str, paths: list[str], method: str, state_dir: Path) -> str:
    """The DTD text of one shape's run, cache off and no fault plan."""
    config = InferenceConfig(method=method, cache=False, faults=None)
    if shape == "session":
        half = len(paths) // 2
        with InferenceSession(config) as session:
            session.append(paths[:half])
            session.append(paths[half:])
            return session.current_dtd().render()
    if shape == "jobs2":
        config = replace(config, jobs=2)
    elif shape == "state_dir":
        config = replace(config, jobs=2, state_dir=str(state_dir))
    return infer(paths, config=config).render()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("corpus", ["medium", "wide"])
def test_shape_renders_pinned_bytes(corpus, method, shape, corpus_paths, tmp_path):
    text = _run(shape, corpus_paths[corpus], method, tmp_path / "run")
    assert _digest(text) == DTD_DIGESTS[corpus, method]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("corpus", ["medium", "wide"])
def test_spilled_leg_renders_pinned_bytes_and_state_files(
    corpus, method, corpus_paths, tmp_path, monkeypatch
):
    assert SPILLED_DOCUMENTS < PROCESS_CORPUS_FLOOR
    monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
    paths = corpus_paths[corpus][:SPILLED_DOCUMENTS]
    run_dir = tmp_path / "run"
    texts = {shape: _run(shape, paths, method, run_dir) for shape in SHAPES}
    assert {shape: _digest(text) for shape, text in texts.items()} == {
        shape: SPILLED_DIGESTS[corpus, method] for shape in SHAPES
    }
    manifest = load_manifest(str(run_dir))
    assert tuple(shard.state_file for shard in manifest.shards) == (
        SPILLED_STATE_FILES[corpus]
    )

"""The config product: every pipeline shape composes with every error mode.

Shapes {batch, ``streaming``, ``jobs=2`` on threads, ``state_dir``,
``state_dir`` killed after its first shard and then resumed} cross
error modes {strict, skip} and every method.  One corpus holds a single
corrupt document inside the first shard, so a skip-mode run killed
after that shard must replay the quarantine from its manifest.

* skip-mode runs render the bytes of a fresh batch run over the clean
  remainder and quarantine exactly what the batch skip run does;
* strict runs on the clean remainder render those same bytes, and on
  the corrupt corpus raise :class:`~repro.errors.CorpusError`;
* ``numeric=True`` renders the batch ``numeric=True`` bytes, or raises
  its error, in every shape;
* ``support_threshold=2`` renders the batch ``support_threshold=2``
  bytes, or raises its error, in every shape, on a corpus where the
  threshold drops a name;
* the same corpus given as XML text, in the shapes that accept it
  {batch, ``streaming``, ``jobs=2``}, renders the path runs' bytes in
  both error modes and quarantines the corrupt literal at its corpus
  position with the path run's cause.

The ambient ``REPRO_FAULTS`` plan stays in force for the shapes under
test (the CI resilience job runs them under a worker crash); only the
references opt out with an explicit empty plan.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.api import InferenceConfig, infer
from repro.ckpt.manifest import load_manifest
from repro.core.inference import METHODS
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import CorpusError, ReproError, UsageError
from repro.runtime.resilience import CRASH_EXIT_STATUS
from repro.xmlio.dtd import parse_dtd

DTD_SOURCE = (
    "<!ELEMENT r (item+, note?)><!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)><!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY><!ELEMENT note (#PCDATA)>"
)
COUNT = 12
CORRUPT = 2  # inside shard 0 of a two-shard run

SHAPES = ["batch", "streaming", "jobs", "state_dir", "killed"]
LITERAL_SHAPES = ["batch", "streaming", "jobs"]  # state_dir needs files

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: Runs one checkpointed inference in a child process, which the fault
#: plan's ``kill_after_shards`` hard-kills after the first commit.
_CHILD = (
    "import json, sys\n"
    "from repro.api import InferenceConfig, infer\n"
    "infer(json.loads(sys.argv[1]), config=InferenceConfig(**json.loads(sys.argv[2])))\n"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``(all paths, clean remainder)``, the corrupt document in shard 0."""
    directory = tmp_path_factory.mktemp("corpus")
    generator = XmlGenerator(parse_dtd(DTD_SOURCE), random.Random(5))
    paths = []
    for index, document in enumerate(generator.corpus(COUNT)):
        path = directory / f"doc{index:02d}.xml"
        text = "<r><item><name>truncat" if index == CORRUPT else serialize(document)
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths, paths[:CORRUPT] + paths[CORRUPT + 1 :]


@pytest.fixture(scope="module")
def literals(corpus):
    """``corpus``'s documents as XML text, the corrupt one included."""
    paths, _clean = corpus
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


@pytest.fixture(scope="module")
def noisy(corpus, tmp_path_factory):
    """The clean remainder with one document carrying a ``gift`` intruder."""
    _paths, clean = corpus
    path = tmp_path_factory.mktemp("noisy") / "intruder.xml"
    path.write_text("<r><item><name>n</name><gift/></item></r>", encoding="utf-8")
    return [*clean[:3], str(path), *clean[4:]]


def reference(paths, method):
    return infer(paths, config=InferenceConfig(method=method, faults={})).render()


def quarantined(result):
    return [(doc.path, doc.cause) for doc in result.degradation.quarantined]


def kill_after_first_shard(paths, config):
    """Run ``config`` in a child killed right after shard 0 commits."""
    child = dict(config, faults={"kill_after_shards": [0]})
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(paths), json.dumps(child)],
        env=env,
        capture_output=True,
        text=True,
    )


def run(shape, paths, method, mode, state_dir, **options):
    """One inference of ``paths`` in ``shape``; the killed shape resumes."""
    config = {"method": method, "on_error": mode, **options}
    if shape == "streaming":
        config["streaming"] = True
    elif shape == "jobs":
        config.update(jobs=2)
    elif shape == "state_dir":
        config["state_dir"] = str(state_dir)
    elif shape == "killed":
        config.update(jobs=2, state_dir=str(state_dir))
        killed = kill_after_first_shard(paths, config)
        if mode == "strict" and len(paths) == COUNT:
            # Strict mode never commits the shard holding the corrupt
            # document: the child dies of the CorpusError instead.
            assert killed.returncode == 1 and "XmlSyntaxError" in killed.stderr
        else:
            assert killed.returncode == CRASH_EXIT_STATUS, killed.stderr
            # The one committed shard records its quarantine for resume.
            committed = load_manifest(state_dir).shards
            offsets = [[entry[0] for entry in shard.quarantined] for shard in committed]
            assert offsets == [[CORRUPT] if mode == "skip" else []]
        config["resume"] = True
    return infer(paths, config=InferenceConfig(**config))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_skip_mode_equals_batch_over_clean_remainder(corpus, tmp_path, shape, method):
    paths, clean = corpus
    result = run(shape, paths, method, "skip", tmp_path / "run")
    assert result.render() == reference(clean, method)
    batch = infer(paths, config=InferenceConfig(method=method, on_error="skip", faults={}))
    assert quarantined(result) == quarantined(batch)
    assert [path for path, _cause in quarantined(batch)] == [paths[CORRUPT]]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_strict_mode_on_clean_and_corrupt_corpora(corpus, tmp_path, shape, method):
    paths, clean = corpus
    result = run(shape, clean, method, "strict", tmp_path / "clean")
    assert result.render() == reference(clean, method)
    with pytest.raises(CorpusError):
        run(shape, paths, method, "strict", tmp_path / "corrupt")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_numeric_equals_batch(corpus, tmp_path, shape, method):
    """Same bytes, or the same refusal: annotation needs a single
    occurrence expression, which kore's repeats are not."""

    def outcome(thunk):
        try:
            return thunk().render()
        except UsageError as error:
            return f"UsageError: {error}"

    _paths, clean = corpus
    expected = outcome(
        lambda: infer(clean, config=InferenceConfig(method=method, numeric=True, faults={}))
    )
    assert outcome(
        lambda: run(shape, clean, method, "strict", tmp_path / "run", numeric=True)
    ) == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_support_threshold_equals_batch(noisy, tmp_path, shape, method):
    """The support filter counts the same words in every shape."""

    def outcome(thunk):
        try:
            return thunk().render()
        except ReproError as error:
            return f"{type(error).__name__}: {error}"

    expected = outcome(
        lambda: infer(
            noisy, config=InferenceConfig(method=method, support_threshold=2, faults={})
        )
    )
    assert "gift" not in expected
    assert "gift" in reference(noisy, method)
    assert outcome(
        lambda: run(shape, noisy, method, "strict", tmp_path / "run", support_threshold=2)
    ) == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", LITERAL_SHAPES)
def test_xml_literals_equal_paths(corpus, literals, tmp_path, shape, method):
    paths, clean = corpus
    skipped = run(shape, literals, method, "skip", tmp_path / "run")
    assert skipped.render() == reference(clean, method)
    batch = infer(paths, config=InferenceConfig(method=method, on_error="skip", faults={}))
    ((_path, cause),) = quarantined(batch)
    assert quarantined(skipped) == [(f"<document #{CORRUPT}>", cause)]
    remainder = literals[:CORRUPT] + literals[CORRUPT + 1 :]
    strict = run(shape, remainder, method, "strict", tmp_path / "clean")
    assert strict.render() == reference(clean, method)
    with pytest.raises(CorpusError):
        run(shape, literals, method, "strict", tmp_path / "corrupt")

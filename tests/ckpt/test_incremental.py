"""Incremental re-runs: only changed shards re-parse.

The manifest matches shards by *content hash runs*, so the counters
``ckpt.hit`` / ``ckpt.skip`` / ``ckpt.write`` make the reuse behaviour
directly observable: an edit invalidates exactly the shard that held
the edited document, appends re-parse only the new tail, renames cost
nothing, and corrupt cached state degrades to a re-parse instead of an
error.  Every scenario also re-asserts the headline property — the
incremental result is byte-identical to a fresh run over the new
corpus.
"""

from __future__ import annotations

import json
import os

from repro.api import InferenceConfig, infer
from repro.ckpt import codec
from repro.ckpt.manifest import MANIFEST_NAME, load_manifest
from repro.learning import evidence as evidence_module
from repro.obs.recorder import StatsRecorder

from .conftest import write_corpus

#: 40 documents over 4 shards: 10 per shard, so reuse counts
#: below are exact (sharding is by document count, not content).
COUNT = 40
JOBS = 4


def checkpointed(paths, state, resume=False):
    recorder = StatsRecorder()
    rendered = infer(
        paths,
        config=InferenceConfig(
            state_dir=state,
            resume=resume,
            jobs=JOBS,
            recorder=recorder,
            faults={},
        ),
    ).render()
    return rendered, recorder.snapshot()["counters"]


def fresh_render(paths):
    return infer(paths, config=InferenceConfig(faults={})).render()


def first_run(tmp_path):
    paths = write_corpus(tmp_path, COUNT)
    state = tmp_path / "run"
    rendered, counters = checkpointed(paths, state)
    assert counters.get("ckpt.write") == JOBS
    assert counters.get("ckpt.hit") is None
    return paths, state, rendered


class TestIncrementalReruns:
    def test_single_edit_reparses_one_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        # Rewrite one document inside the second shard with different
        # content (a fresh corpus seed guarantees different bytes).
        victim = paths[15]
        write_corpus(tmp_path, 1, seed=999, prefix="edited")
        os.replace(str(tmp_path / "edited000.xml"), victim)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.skip") == COUNT - COUNT // JOBS
        assert counters.get("ckpt.write", 0) >= 1
        assert counters.get("ckpt.gc", 0) >= 1  # the stale shard state
        assert rendered == fresh_render(paths)

    def test_appended_documents_reuse_every_old_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        extra = write_corpus(tmp_path, 4, seed=777, prefix="extra")
        paths = paths + extra

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write", 0) >= 1
        assert rendered == fresh_render(paths)

    def test_deleted_document_invalidates_only_its_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        os.unlink(paths[3])
        paths = paths[:3] + paths[4:]

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.skip") == COUNT - COUNT // JOBS
        assert rendered == fresh_render(paths)

    def test_renames_are_free(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        renamed = []
        for path in paths:
            target = os.path.join(os.path.dirname(path), "moved-" + os.path.basename(path))
            os.replace(path, target)
            renamed.append(target)

        rendered, counters = checkpointed(renamed, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write") is None  # nothing re-parsed
        assert rendered == fresh_render(renamed)

    def test_unchanged_rerun_parses_nothing_twice(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write") is None
        assert rendered == first


class TestDegradedCaches:
    def test_corrupt_state_file_degrades_to_reparse(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        manifest = load_manifest(state)
        victim = manifest.shards[1].state_file
        target = os.path.join(state, "shards", victim)
        with open(target, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"!!!")

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == 1
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.write", 0) >= 1
        assert rendered == first

    def test_sample_cap_mismatch_drops_every_shard(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        manifest_path = os.path.join(state, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["sample_cap"] = payload["sample_cap"] + 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert counters.get("ckpt.write") == JOBS
        assert rendered == first


class TestCodecUpgrade:
    """A run directory written under codec v2 — four learner states per
    element, a version-2 manifest — resumes by re-parsing every shard,
    and still renders the fresh bytes."""

    def resume_v2_run(self, tmp_path, monkeypatch, word_cap):
        paths = write_corpus(tmp_path, COUNT)
        state = tmp_path / "run"
        # A cap of 0 spills every element, which then dehydrates to the
        # v2 element form: its learner states.
        with monkeypatch.context() as patch:
            patch.setattr(evidence_module, "WORD_CAP", 0)
            patch.setattr(codec, "VERSION", 2)
            checkpointed(paths, state)
        manifest_path = os.path.join(state, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.update(version=2, word_cap=word_cap)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert counters.get("ckpt.write") == JOBS
        assert rendered == fresh_render(paths)

    def test_v2_run_dir_reparses_every_shard(self, tmp_path, monkeypatch):
        # v2 manifests carry no word_cap, which never matches.
        self.resume_v2_run(tmp_path, monkeypatch, word_cap=None)

    def test_v2_states_rejected_under_a_matching_word_cap(self, tmp_path, monkeypatch):
        self.resume_v2_run(tmp_path, monkeypatch, word_cap=evidence_module.WORD_CAP)

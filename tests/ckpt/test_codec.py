"""The checkpoint state codec: roundtrips, digests, corruption.

The codec is the durability boundary — everything the runner trusts
on resume went through :func:`encode_state` once.  These tests pin the
two properties the resume proof needs: decode(encode(x)) reproduces
the learner states exactly (byte-identical rendered DTDs), and any
tampering — bit flips, truncation, wrong magic/version, stale payload
length — is *detected*, never silently folded in.
"""

from __future__ import annotations

import json

import pytest

from repro.ckpt.codec import (
    StateDecodeError,
    decode_state,
    encode_state,
    evidence_digest,
    file_sha256,
    read_state,
    write_state,
)
from repro.ckpt.manifest import (
    MANIFEST_NAME,
    DocumentEntry,
    Manifest,
    ShardEntry,
    load_manifest,
)
from repro.core.inference import DTDInferencer
from repro.runtime.parallel import parallel_evidence

from .conftest import write_corpus


def render(evidence) -> str:
    return DTDInferencer().finalize(evidence).render()


def make_evidence(tmp_path, count=12, seed=None):
    return parallel_evidence(write_corpus(tmp_path, count, seed=seed), 1)


class TestRoundtrip:
    def test_decode_inverts_encode(self, tmp_path):
        evidence = make_evidence(tmp_path)
        restored = decode_state(encode_state(evidence))
        assert render(restored) == render(evidence)
        assert evidence_digest(restored) == evidence_digest(evidence)

    def test_digest_is_content_address(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / name).mkdir()
        one = make_evidence(tmp_path / "a", seed=5)
        same = make_evidence(tmp_path / "b", seed=5)
        other = make_evidence(tmp_path / "c", seed=6)
        assert evidence_digest(one) == evidence_digest(same)
        assert evidence_digest(one) != evidence_digest(other)

    def test_text_value_reservoir_order_survives(self, tmp_path):
        # The sample reservoirs are order-sensitive (first SAMPLE_CAP
        # values win); a codec that sorted them would still render the
        # same DTD on most corpora, so check the payload directly.
        evidence = make_evidence(tmp_path)
        element = evidence.elements["name"]
        restored = decode_state(encode_state(evidence)).elements["name"]
        assert restored.text_values == element.text_values

    def test_write_read_state_file(self, tmp_path):
        evidence = make_evidence(tmp_path)
        target = tmp_path / "shard.state"
        digest = write_state(target, evidence)
        assert digest == evidence_digest(evidence)
        assert render(read_state(target)) == render(evidence)
        assert not list(tmp_path.glob("*.tmp.*"))  # no temp debris


class TestCorruptionDetection:
    def test_flipped_payload_byte(self, tmp_path):
        data = bytearray(encode_state(make_evidence(tmp_path)))
        data[-2] ^= 0x01
        with pytest.raises(StateDecodeError):
            decode_state(bytes(data))

    def test_truncated_payload(self, tmp_path):
        data = encode_state(make_evidence(tmp_path))
        with pytest.raises(StateDecodeError):
            decode_state(data[: len(data) // 2])

    def test_wrong_magic_and_version(self, tmp_path):
        data = encode_state(make_evidence(tmp_path))
        header_line, payload = data.split(b"\n", 1)
        header = json.loads(header_line)
        for key, value in (("magic", "not-a-state"), ("version", 999)):
            bad = dict(header, **{key: value})
            blob = json.dumps(bad).encode() + b"\n" + payload
            with pytest.raises(StateDecodeError):
                decode_state(blob)

    def test_not_even_json(self):
        with pytest.raises(StateDecodeError):
            decode_state(b"<html>surprise</html>\n{}")
        with pytest.raises(StateDecodeError):
            decode_state(b"")

    def test_read_state_missing_file(self, tmp_path):
        with pytest.raises(StateDecodeError):
            read_state(tmp_path / "never-written.state")


class TestFileSha256:
    def test_matches_hashlib_over_content(self, tmp_path):
        import hashlib

        path = tmp_path / "doc.xml"
        path.write_bytes(b"<r/>" * 1000)
        assert file_sha256(path) == hashlib.sha256(b"<r/>" * 1000).hexdigest()

    def test_rename_preserves_hash(self, tmp_path):
        path = tmp_path / "before.xml"
        path.write_text("<r><item><name>x</name></item></r>")
        digest = file_sha256(path)
        moved = tmp_path / "after.xml"
        path.rename(moved)
        assert file_sha256(moved) == digest


class TestManifestVersions:
    """Version 2 records per-shard quarantines; version 1 still loads."""

    def _manifest(self, quarantined):
        documents = (DocumentEntry("a.xml", "0" * 64), DocumentEntry("b.xml", "1" * 64))
        shard = ShardEntry(documents, "x.state", "2" * 64, quarantined=quarantined)
        return Manifest(sample_cap=1000, shards=[shard])

    def test_quarantines_roundtrip(self, tmp_path):
        self._manifest(((1, "unterminated element", None),)).store(tmp_path)
        (shard,) = load_manifest(tmp_path).shards
        assert shard.quarantined == ((1, "unterminated element", None),)

    def test_version_one_loads_without_quarantines(self, tmp_path):
        payload = self._manifest(()).to_document()
        payload["version"] = 1
        del payload["shards"][0]["quarantined"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload), encoding="utf-8")
        (shard,) = load_manifest(tmp_path).shards
        assert shard.quarantined == ()

    @pytest.mark.parametrize("entry", [[2, "cause", None], [0, 7, None], "x", [0, "c"]])
    def test_malformed_quarantine_is_detected(self, tmp_path, entry):
        payload = self._manifest(()).to_document()
        payload["shards"][0]["quarantined"] = [entry]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StateDecodeError, match="quarantine"):
            load_manifest(tmp_path)

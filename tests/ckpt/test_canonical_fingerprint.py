"""Hash-randomization independence of the on-disk fingerprints.

The original durability bug: the learner states were digested as
frozensets, whose iteration order varies with ``PYTHONHASHSEED``.  Two
processes (a run and its resume, or two CI workers) would digest the
same learner state to different bytes, so content-addressed state files
never matched.  ``canonical_fingerprint`` sorts every level, and it is
now the only state digest; these tests pin that in-process, and the
subprocess test pins the whole codec path across *actually different*
hash seeds — the scenario the bug shipped in.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.core.crx import CrxState
from repro.learning.incremental import IncrementalSOA
from repro.runtime.parallel import parallel_evidence

from .conftest import write_corpus

_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: Run inside a fresh interpreter: digest a canned corpus and print the
#: content address.  Any hash-order leak into the payload changes the
#: printed digest between differently-seeded interpreters.
_DIGEST_SCRIPT = """
import sys
from repro.ckpt.codec import encode_state, evidence_digest
from repro.runtime.parallel import parallel_evidence

paths = sys.argv[1:]
evidence = parallel_evidence(paths, 1)
print(evidence_digest(evidence))
sys.stdout.buffer.write(encode_state(evidence))
"""


def _digest_under_seed(paths: list[str], seed: str) -> tuple[str, bytes]:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_REPO_SRC)
    env.pop("REPRO_FAULTS", None)
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, *paths],
        env=env,
        capture_output=True,
        check=True,
    )
    digest, _, blob = result.stdout.partition(b"\n")
    return digest.decode(), blob


class TestSubprocessHashSeeds:
    def test_digest_and_bytes_identical_across_seeds(self, tmp_path):
        paths = write_corpus(tmp_path, 10)
        baseline = _digest_under_seed(paths, "0")
        for seed in ("1", "4242", "random"):
            assert _digest_under_seed(paths, seed) == baseline, (
                f"state bytes differ under PYTHONHASHSEED={seed}: the "
                "codec is leaking hash-iteration order into the payload"
            )


class TestCanonicalForms:
    def test_soa_canonical_fingerprint_is_sorted_tuples(self):
        learner = IncrementalSOA()
        learner.add_all([("b", "a"), ("a",), ("b", "a", "b")])
        canonical = learner.soa.canonical_fingerprint()

        def fully_sorted(node: object) -> bool:
            if isinstance(node, tuple):
                return all(fully_sorted(item) for item in node)
            return not isinstance(node, (set, frozenset, dict))

        assert fully_sorted(canonical)
        again = IncrementalSOA()
        again.add_all([("b", "a"), ("a",), ("b", "a", "b")])
        assert again.soa.canonical_fingerprint() == canonical

    def test_crx_canonical_fingerprint_stable(self):
        words = [("x", "y"), ("y", "x", "x"), ()]
        one = CrxState()
        one.add_all(words)
        two = CrxState()
        two.add_all(list(words))
        assert one.canonical_fingerprint() == two.canonical_fingerprint()

    def test_dehydrated_payloads_contain_no_unsorted_sets(self, tmp_path):
        evidence = parallel_evidence(write_corpus(tmp_path, 8), 1)
        payload = evidence.dehydrate()

        def walk(node: object) -> None:
            assert not isinstance(node, (set, frozenset)), (
                "dehydrate leaked a set into the JSON payload"
            )
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, (list, tuple)):
                for value in node:
                    walk(value)

        walk(payload)

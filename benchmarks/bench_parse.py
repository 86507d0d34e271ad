"""Parse-throughput benchmark for the bulk-scanning tokenizer.

Measures raw XML parse speed (MB/s of UTF-8 input) at three corpus
scales and records them as the ``parse_throughput`` section of
``BENCH_phases.json``, where :mod:`benchmarks.perf_gate` holds a floor
under each number:

* ``small``  — many tiny documents (the quick-profile shape from
  ``bench_phases.py``): dominated by per-document dispatch;
* ``medium`` — kilobyte-scale documents: the mixed tag/text regime of
  real corpora;
* ``large``  — one multi-megabyte file parsed through
  :func:`parse_file`, which takes the mmap input path and decodes the
  mapped pages in a single pass.

The rebuild from character-at-a-time stepping to ``str.find`` runs +
regex dispatch (:mod:`repro.xmlio.scan`) took the quick profile from
~2.6 MB/s to ~10 MB/s; the gate keeps any future tokenizer change
honest about that win.
"""

from __future__ import annotations

import random

from perf_record import update_bench_json
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.evaluation.timing import best_of
from repro.obs.recorder import StatsRecorder
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import MMAP_MIN_BYTES, parse_document, parse_file

CORPUS_DTD = (
    "<!ELEMENT r (meta?, item+)>"
    "<!ELEMENT meta (#PCDATA)>"
    "<!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)>"
    "<!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY>"
)


def _small_corpus(count: int) -> list[str]:
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(42))
    return [serialize(document) for document in generator.corpus(count)]


def _medium_document(items: int) -> str:
    parts = ["<catalog>"]
    for index in range(items):
        parts.append(
            f'<item id="{index}" cat="c{index % 7}">'
            f"<name>item {index} &amp; co</name>"
            f"<price>{index % 90}.{index % 100:02d}</price>"
            f"<desc>desc with <![CDATA[raw & data]]> inside</desc>"
            "<tag/><tag/>"
            "</item>"
        )
    parts.append("</catalog>")
    return "".join(parts)


def _throughput(documents: list[str], repeats: int) -> dict[str, float]:
    total_bytes = sum(len(doc.encode("utf-8")) for doc in documents)

    def run() -> None:
        for document in documents:
            parse_document(document)

    seconds = best_of(run, repeats=repeats).seconds
    return {
        "documents": len(documents),
        "bytes": total_bytes,
        "seconds": seconds,
        "mb_per_s": total_bytes / seconds / 1e6 if seconds else 0.0,
    }


def test_parse_throughput_recorded(tmp_path, scale):
    """MB/s at three corpus scales, written to BENCH_phases.json."""
    repeats = 9 if scale.is_full else 5
    small = _throughput(_small_corpus(300 if scale.is_full else 100), repeats)
    medium = _throughput(
        [_medium_document(3000 if scale.is_full else 500)], repeats
    )

    # Large scale goes through parse_file so the mmap path is the
    # thing being measured (file > MMAP_MIN_BYTES).
    big = _medium_document(12000)  # ~1.6 MB, over the mmap threshold
    path = tmp_path / "large.xml"
    path.write_text(big, encoding="utf-8")
    recorder = StatsRecorder()

    def run_large() -> None:
        parse_file(str(path), recorder)

    seconds = best_of(run_large, repeats=3).seconds
    large_bytes = len(big.encode("utf-8"))
    large = {
        "documents": 1,
        "bytes": large_bytes,
        "seconds": seconds,
        "mb_per_s": large_bytes / seconds / 1e6 if seconds else 0.0,
        "mmap": recorder.snapshot()["counters"].get("parse.mmap", 0) > 0,
    }
    assert large["mmap"], "large file did not take the mmap path"

    payload = {"small": small, "medium": medium, "large": large}
    table = Table(
        headers=("corpus", "docs", "bytes", "MB/s"),
        title="parse throughput (bulk tokenizer)",
    )
    for name, row in payload.items():
        table.add(
            name,
            str(row["documents"]),
            str(row["bytes"]),
            f"{row['mb_per_s']:.2f}",
        )
    table.show()
    update_bench_json("parse_throughput", payload)
    # Every scale must beat the old character-at-a-time tokenizer's
    # ~2.6 MB/s ceiling with real margin; perf_gate.py enforces the
    # committed numbers with a relative band on top of this floor.
    for name, row in payload.items():
        assert row["mb_per_s"] > 3.0, (
            f"{name}: {row['mb_per_s']:.2f} MB/s is no faster than the "
            "old per-character tokenizer"
        )


def test_mmap_and_read_paths_parse_identically(tmp_path):
    """The mmap fast path must be invisible in the parsed tree.

    A file of at least ``MMAP_MIN_BYTES`` takes the mapped path (the
    padding after the root is whitespace the parser skips), a small
    file of the same document the plain read.
    """
    text = _medium_document(400)
    large = tmp_path / "large.xml"
    large.write_text(text + "\n" * MMAP_MIN_BYTES, encoding="utf-8")
    small = tmp_path / "small.xml"
    small.write_text(text, encoding="utf-8")
    assert len(text) < MMAP_MIN_BYTES
    recorder = StatsRecorder()
    mapped = parse_file(str(large), recorder)
    assert recorder.snapshot()["counters"]["parse.mmap"] == 1
    plain = parse_file(str(small), recorder)
    assert recorder.snapshot()["counters"]["parse.mmap"] == 1
    in_memory = parse_document(text)

    def shape(element):
        return (
            element.name,
            element.attributes,
            element.text_chunks,
            [shape(child) for child in element.children],
        )

    assert shape(mapped.root) == shape(plain.root) == shape(in_memory.root)


def test_throughput_counters_surface_in_stats(tmp_path):
    """parse.bytes / parse.chars land in --stats for throughput math."""
    from repro.api import InferenceConfig, infer

    paths = []
    for index, document in enumerate(_small_corpus(20)):
        path = tmp_path / f"doc{index:03d}.xml"
        path.write_text(document, encoding="utf-8")
        paths.append(str(path))
    recorder = StatsRecorder()
    infer(paths, config=InferenceConfig(recorder=recorder))
    counters = recorder.snapshot()["counters"]
    assert counters["parse.bytes"] > 0
    assert counters["parse.chars"] > 0
    assert counters["documents"] == 20

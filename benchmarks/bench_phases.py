"""Experiment E9 — per-phase cost profile and instrumentation overhead.

Two questions about the observability layer (``repro.obs``):

* **where does the time go?** — run the full pipeline (batch and
  streaming map-reduce) under a :class:`StatsRecorder` and record the
  per-phase wall-clock and peak-RSS breakdown into
  ``BENCH_phases.json`` (machine-readable, one section per pipeline);
* **what does it cost when off?** — the whole point of the
  ``Recorder`` protocol's ``enabled`` flag is that the default
  :data:`NULL_RECORDER` is nearly free.  Asserted: inference with the
  null recorder is within 5% of the pre-instrumentation fast path
  (measured as best-of-N to cut scheduler noise).
"""

from __future__ import annotations

import random

import pytest

from perf_record import update_bench_json
from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.evaluation.tables import Table
from repro.evaluation.timing import best_of
from repro.obs import StatsRecorder, summary_dict
from repro.xmlio.dtd import parse_dtd

CORPUS_DTD = (
    "<!ELEMENT r (meta?, item+)>"
    "<!ELEMENT meta (#PCDATA)>"
    "<!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)>"
    "<!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY>"
)

#: Allowed slowdown of the façade + NullRecorder over the bare engine.
OVERHEAD_CEILING = 1.05


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory, scale):
    count = 300 if scale.is_full else 100
    directory = tmp_path_factory.mktemp("phases_corpus")
    generator = XmlGenerator(parse_dtd(CORPUS_DTD), random.Random(42))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index:04d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def _profile(paths, config_kwargs):
    # cache=False: this profiles where a fresh derivation spends its
    # time; a warm content-model cache would (correctly) skip the very
    # phases this section exists to break down.
    recorder = StatsRecorder()
    result = infer(
        paths,
        config=InferenceConfig(recorder=recorder, cache=False, **config_kwargs),
    )
    result.render()
    return summary_dict(recorder.snapshot())


def test_phase_breakdown_written(corpus_paths):
    """Record per-phase wall-clock + peak RSS for every pipeline shape."""
    # backend="thread" pins the map-reduce shape: on small hosts the
    # auto cost model would degrade jobs=2 to serial and there would be
    # no shard phase to profile.
    sections = {
        "batch": {},
        "batch_idtd": {"method": "idtd"},
        "streaming": {"streaming": True},
        "mapreduce_2_jobs": {"jobs": 2, "backend": "thread"},
    }
    table = Table(
        headers=("pipeline", "wall s", "peak RSS kB", "top phase"),
        title=f"E9: phase profile, {len(corpus_paths)} documents",
    )
    payload = {}
    for name, kwargs in sections.items():
        summary = _profile(corpus_paths, kwargs)
        payload[name] = summary
        phases = summary["phases"]
        top = max(phases, key=lambda p: phases[p]["seconds"]) if phases else "-"
        table.add(
            name,
            f"{summary['wall_seconds']:.3f}",
            str(summary["peak_rss_kb"]),
            top,
        )
        # The acceptance phases must all be present somewhere.
        assert "parse" in phases and "extract" in phases and "emit" in phases
    assert "soa" in payload["batch_idtd"]["phases"]
    assert "rewrite" in payload["batch_idtd"]["phases"]
    assert "shard" in payload["mapreduce_2_jobs"]["phases"]
    table.show()
    update_bench_json("phases", payload)


def test_disabled_recorder_overhead(corpus_paths, scale):
    """Inference through the façade with the default null recorder must
    cost within 5% of the bare engine path."""
    from repro.core.inference import DTDInferencer
    from repro.learning.evidence import extract_evidence
    from repro.xmlio.parser import parse_file

    def bare():
        documents = [parse_file(path) for path in corpus_paths]
        evidence = extract_evidence(documents)
        return DTDInferencer().finalize(evidence).render()

    def facaded():
        # cache=False keeps the comparison apples-to-apples: this
        # ratio isolates facade dispatch cost, and a warm cache on the
        # facade side only would mask a dispatch regression.
        return infer(
            corpus_paths, config=InferenceConfig(cache=False)
        ).render()

    assert bare() == facaded()
    repeats = 7 if scale.is_full else 5
    bare_time = best_of(bare, repeats=repeats).seconds
    facade_time = best_of(facaded, repeats=repeats).seconds
    ratio = facade_time / bare_time if bare_time else 1.0
    update_bench_json(
        "overhead",
        {
            "bare_seconds": bare_time,
            "facade_null_recorder_seconds": facade_time,
            "ratio": ratio,
            "ceiling": OVERHEAD_CEILING,
            "repeats": repeats,
        },
    )
    print(
        f"\nnull-recorder overhead: bare {bare_time:.4f}s, "
        f"facade {facade_time:.4f}s, ratio {ratio:.3f}x"
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"facade + NullRecorder is {ratio:.3f}x the bare engine "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )


def test_enabled_recorder_cost_reported(corpus_paths, scale):
    """Informational: what does *enabled* instrumentation cost?  No
    assertion — streaming folds time two extra clock reads per child
    sequence, which is real but acceptable when you asked for stats."""
    repeats = 5 if scale.is_full else 3
    off = best_of(lambda: infer(corpus_paths).render(), repeats=repeats).seconds

    def on():
        recorder = StatsRecorder()
        return infer(
            corpus_paths, config=InferenceConfig(recorder=recorder)
        ).render()

    on_time = best_of(on, repeats=repeats).seconds
    ratio = on_time / off if off else 1.0
    update_bench_json(
        "enabled_overhead",
        {"off_seconds": off, "on_seconds": on_time, "ratio": ratio},
    )
    print(f"\nenabled-recorder cost: {ratio:.3f}x")


def test_contracts_overhead_reported(corpus_paths, scale):
    """What do the debug-mode contracts cost, off and on?

    Disabled contracts compile down to one ``contracts_enabled()``
    predicate call per guarded site (per element / per rewrite step,
    never per word), so the disabled path should be indistinguishable
    from the recorded pre-contracts baseline.  The enabled path pays
    for real invariant checking (including the deepcopy-based merge
    commutativity probe) and is informational only.
    """
    from repro.contracts import contracts_active

    repeats = 5 if scale.is_full else 3
    disabled = best_of(
        lambda: infer(corpus_paths).render(), repeats=repeats
    ).seconds

    def checked():
        with contracts_active():
            return infer(corpus_paths).render()

    enabled = best_of(checked, repeats=repeats).seconds
    ratio = enabled / disabled if disabled else 1.0
    update_bench_json(
        "contracts_overhead",
        {
            "disabled_seconds": disabled,
            "enabled_seconds": enabled,
            "enabled_over_disabled_ratio": ratio,
        },
    )
    print(f"\ncontracts cost: disabled {disabled:.4f}s, enabled {ratio:.3f}x")

"""Child-process side of the benchmark: the one module that imports ``repro``.

Run as ``python3 bench/probe.py SPEC.json`` with ``PYTHONPATH`` naming
the checkout's ``src``.  It imports the program, prints ``ready`` (the
parent times spawn → ready as set-up), runs the spec's tasks in order
and prints one JSON line with their results and the peak RSS of this
process and its reaped children.  With ``"calibrate": true`` in the spec
it first times a calibration window (the host's speed right after
set-up); with ``"speed": PREFIX`` it samples the host's speed during
the tasks, in this process and in every process it forks, and reports
the mean probe time over each timed call (see ``hostspeed``).

Every timed call goes through a public function of one layer; nothing
under ``src/`` is patched or wrapped.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace
from typing import Any

from hostspeed import SpeedSampler, calibration_window, probe_seconds, read_probes
from stats import Tracer


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _paths(directory: str) -> list[str]:
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".xml")
    )


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def task_infer(task: dict[str, Any]) -> dict[str, Any]:
    """``api.infer(source, config).render()``, timed from input to DTD text."""
    from repro import api

    config = api.InferenceConfig(**task.get("config", {}))
    started = time.perf_counter()
    text = api.infer(task["source"], config).render()
    ended = time.perf_counter()
    if task.get("dtd_out"):
        with open(task["dtd_out"], "w", encoding="utf-8") as handle:
            handle.write(text)
    return {"seconds": ended - started, "interval": [started, ended], "sha256": _sha(text)}


def task_validate(task: dict[str, Any]) -> dict[str, Any]:
    """``api.validate(source, dtd)`` over every document, timed."""
    from repro import api

    dtd = _read(task["dtd"])
    started = time.perf_counter()
    result = api.validate(task["source"], dtd)
    ended = time.perf_counter()
    invalid = [document.source for document in result.documents if not document.valid]
    return {
        "seconds": ended - started,
        "interval": [started, ended],
        "documents": len(result.documents),
        "invalid": invalid[:5],
        "invalid_count": len(invalid),
    }


def task_expect(task: dict[str, Any]) -> dict[str, Any]:
    """In-process ``api.infer`` DTD digests for lists of documents (untimed)."""
    from repro import api

    paths = _paths(task["source"])
    texts: dict[int, str] = {}

    def literal(index: int) -> str:
        if index not in texts:
            texts[index] = _read(paths[index])
        return texts[index]

    return {
        key: _sha(api.infer([literal(index) for index in indexes]).render())
        for key, indexes in task["groups"].items()
    }


def _finalize(tracer: Tracer, evidence: Any, method: str, streaming: bool) -> list[float]:
    """Per element, the learner ``api.infer`` would route it to."""
    from repro.core.crx import CrxState
    from repro.core.idtd import idtd_from_soa
    from repro.core.inference import DEFAULT_SPARSE_THRESHOLD
    from repro.learning.tinf import tinf

    seconds = []
    for name in sorted(evidence.elements):
        element = evidence.elements[name]
        count = element.nonempty_count if streaming else element.child_sequences.nonempty_total
        if element.has_text or count == 0:
            continue
        chosen = method
        if method == "auto":
            chosen = "crx" if count < DEFAULT_SPARSE_THRESHOLD else "idtd"
        with tracer.span("core.finalize", element=name, learner=chosen) as span:
            if streaming:
                (element.crx if chosen == "crx" else element.soa).infer()
            elif chosen == "crx":
                state = CrxState()
                for word, multiplicity in element.child_sequences.distinct():
                    state.add_counted(word, multiplicity)
                state.infer()
            else:
                idtd_from_soa(tinf(element.child_sequences.distinct_words()))
        seconds.append(span["end"] - span["start"])
    return seconds


def _total(tracer: Tracer, name: str) -> float:
    return sum(span["end"] - span["start"] for span in tracer.spans if span["name"] == name)


def task_layers(task: dict[str, Any]) -> dict[str, Any]:
    """The traced pass: every layer's public calls on the workload's inputs."""
    from repro import api
    from repro.ckpt.runner import checkpointed_evidence
    from repro.core.crx import CrxState
    from repro.core.idtd import idtd_from_soa
    from repro.learning.evidence import StreamingEvidence, extract_evidence
    from repro.learning.tinf import tinf
    from repro.obs.recorder import StatsRecorder
    from repro.runtime.cache import global_content_model_cache
    from repro.runtime.parallel import parallel_evidence
    from repro.xmlio.parser import parse_file
    from repro.xmlio.validate import validate

    began = time.perf_counter()
    tracer = Tracer(task["trace_id"], prefix="c", parent=task["parent_span"])
    span = tracer.span
    paths = _paths(task["source"])
    config = api.InferenceConfig(**task["config"])
    streaming = config.effective_streaming
    cache = global_content_model_cache()
    metrics: dict[str, float] = {}

    # The headline call, opaque, alternating without and with the
    # recorder; each call starts from an empty content-model cache.
    plain, recorded = [], []
    for _ in range(task["repeats"]):
        cache.invalidate()
        with span("api.infer") as record:
            result = api.infer(paths, config)
            result.render()
        plain.append(record["end"] - record["start"])
        cache.invalidate()
        with span("api.infer.recorded") as record:
            api.infer(paths, replace(config, recorder=StatsRecorder())).render()
        recorded.append(record["end"] - record["start"])
    plain.sort()
    recorded.sort()
    api_seconds = plain[len(plain) // 2]
    metrics["api.infer_s"] = api_seconds
    metrics["obs.recorder_overhead"] = recorded[len(recorded) // 2] / api_seconds

    # The same call recomposed from the layers' public functions.
    cache.invalidate()
    documents = None
    before = len(tracer.spans)
    with span("pipeline") as pipeline:
        if streaming:
            with span("runtime.parallel"):
                folded = parallel_evidence(paths, jobs=config.jobs)
            element_seconds = _finalize(tracer, folded, config.method, streaming=True)
        else:
            documents = []
            for path in paths:
                with span("xmlio.parse"):
                    documents.append(parse_file(path))
            with span("learning.extract"):
                evidence = extract_evidence(documents)
            element_seconds = _finalize(tracer, evidence, config.method, streaming=False)
        with span("xmlio.render"):
            result.dtd.render()
    layer_seconds = sum(
        record["end"] - record["start"]
        for record in tracer.spans[before:]
        if record["parent"] == pipeline["id"]
    )
    metrics["api.unattributed_s"] = api_seconds - layer_seconds
    metrics["trace.overhead"] = (pipeline["end"] - pipeline["start"]) / api_seconds
    metrics["core.max_element_s"] = max(element_seconds, default=0.0)

    if documents is None:
        documents = []
        for path in paths:
            with span("xmlio.parse"):
                documents.append(parse_file(path))
    if not streaming:
        with span("runtime.parallel"):
            parallel_evidence(paths, jobs=2)
    else:
        with span("learning.extract"):
            evidence = extract_evidence(documents)

    # Serial fold of two contiguous halves, then their merge.
    halves = []
    middle = len(documents) // 2
    for chunk in (documents[:middle], documents[middle:]):
        state = StreamingEvidence()
        for document in chunk:
            with span("learning.fold"):
                state.add_document(document)
        halves.append(state)
    with span("learning.merge"):
        halves[0].merge(halves[1])
    merged = halves[0]
    metrics["learning.state_bytes"] = len(
        json.dumps(merged.dehydrate(), sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    metrics["learning.child_sequences"] = sum(
        element.child_sequences.total for element in evidence.elements.values()
    )
    metrics["learning.distinct_words"] = sum(
        len(element.child_sequences.counts) for element in evidence.elements.values()
    )
    # Each learner on every element with children, whatever auto would
    # route there: the core learners from the batch sample, the
    # extension learners from the folded states.
    for name in sorted(merged.elements):
        element = merged.elements[name]
        if element.has_text or element.nonempty_count == 0:
            continue
        sample = evidence.elements[name].child_sequences
        with span("core.idtd", element=name):
            idtd_from_soa(tinf(sample.distinct_words()))
        with span("core.crx", element=name):
            state = CrxState()
            for word, multiplicity in sample.distinct():
                state.add_counted(word, multiplicity)
            state.infer()
        with span("learning.kore", element=name):
            element.kore.infer()
        with span("learning.sire", element=name):
            element.sire.infer()

    state_dir = task["state_dir"]
    with span("ckpt.fresh"):
        checkpointed_evidence(paths, state_dir=state_dir, jobs=2)
    metrics["ckpt.state_bytes"] = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(state_dir)
        for name in names
    )
    with span("ckpt.resume"):
        checkpointed_evidence(_paths(task["edited"]), state_dir=state_dir, resume=True, jobs=2)

    for document in documents:
        with span("xmlio.validate"):
            validate(document, result.dtd)

    # What the daemon does per /infer body, in-process, cache counted.
    cache.invalidate()
    info = cache.info()
    inprocess_ms = []
    for indexes in task["bodies"]:
        literals = [_read(paths[index]) for index in indexes]
        with span("api.infer.body") as record:
            api.infer(literals).render()
        inprocess_ms.append((record["end"] - record["start"]) * 1000)
    after = cache.info()
    hits, misses = after["hits"] - info["hits"], after["misses"] - info["misses"]
    metrics["runtime.cache_hits"] = hits
    metrics["runtime.cache_misses"] = misses
    metrics["runtime.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    parse_seconds = _total(tracer, "xmlio.parse")
    fold_seconds = _total(tracer, "learning.fold")
    parallel_seconds = _total(tracer, "runtime.parallel")
    metrics.update(
        {
            "xmlio.parse_s": parse_seconds,
            "xmlio.parse_mb_per_s": sum(map(os.path.getsize, paths)) / 1e6 / parse_seconds,
            "xmlio.render_s": _total(tracer, "xmlio.render"),
            "xmlio.validate_s": _total(tracer, "xmlio.validate"),
            "learning.extract_s": _total(tracer, "learning.extract"),
            "learning.fold_s": fold_seconds,
            "learning.merge_s": _total(tracer, "learning.merge"),
            "learning.kore_s": _total(tracer, "learning.kore"),
            "learning.sire_s": _total(tracer, "learning.sire"),
            "core.idtd_s": _total(tracer, "core.idtd"),
            "core.crx_s": _total(tracer, "core.crx"),
            "runtime.parallel_s": parallel_seconds,
            "runtime.parallel_efficiency": (parse_seconds + fold_seconds) / (2 * parallel_seconds),
            "ckpt.fresh_s": _total(tracer, "ckpt.fresh"),
            "ckpt.resume_s": _total(tracer, "ckpt.resume"),
        }
    )
    return {
        "metrics": metrics,
        "spans": tracer.spans,
        "inprocess_infer_ms": inprocess_ms,
        "interval": [began, time.perf_counter()],
    }


TASKS = {
    "infer": task_infer,
    "validate": task_validate,
    "expect": task_expect,
    "layers": task_layers,
}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    import repro
    from repro import api  # noqa: F401  (set-up ends once the façade is importable)

    source = os.path.realpath(os.path.join(spec["root"], "src")) + os.sep
    if not os.path.realpath(repro.__file__).startswith(source):
        sys.exit(f"repro was imported from {repro.__file__}, not from {source}")
    print("ready", flush=True)
    output: dict[str, Any] = {}
    if spec.get("calibrate"):
        output["calibration_s"] = calibration_window()
    sampler = SpeedSampler(spec["speed"]) if spec.get("speed") else None
    if sampler is not None:
        sampler.start()
    results = [TASKS[task["op"]](task) for task in spec["tasks"]]
    if sampler is not None:
        sampler.stop()
    from repro.runtime.parallel import shutdown_warm_pools

    shutdown_warm_pools()
    if sampler is not None:
        records = read_probes(spec["speed"])
        for task, result in zip(spec["tasks"], results):
            if task["op"] != "expect":
                result["probe_s"] = probe_seconds(records, *result["interval"])
    output.update({"results": results, "peak_rss_mb": peak_rss_mb()})
    print(json.dumps(output), flush=True)


if __name__ == "__main__":
    main()

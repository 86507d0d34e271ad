"""The unified façade: equivalence with the engine composed by hand, validation."""

import os
import random
import subprocess
import sys

import pytest

from repro import api
from repro.api import InferenceConfig, InferenceResult, infer, validate
from repro.contracts import contracts_active
from repro.core.inference import DTDInferencer
from repro.datagen.noise import inject_intruders
from repro.datagen.strings import padded_sample
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import CorpusError, UsageError
from repro.obs.recorder import StatsRecorder
from repro.regex.language import language_equivalent
from repro.regex.parser import parse_regex
from repro.learning import evidence as evidence_module
from repro.learning.evidence import StreamingEvidence, extract_evidence
from repro.runtime.parallel import PROCESS_CORPUS_FLOOR, parallel_evidence
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import parse_document, parse_file

SCHEMA = (
    "<!ELEMENT r (a+, b?, c*)>"
    "<!ELEMENT a (#PCDATA)>"
    "<!ELEMENT b (a, a?)>"
    "<!ELEMENT c EMPTY>"
)


def write_corpus(root, count):
    generator = XmlGenerator(parse_dtd(SCHEMA), random.Random(7))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = root / f"doc{index}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("api-corpus"), 12)


@pytest.fixture(scope="module")
def pool_corpus(tmp_path_factory):
    """Enough documents for ``jobs=2`` to reach the process pool."""
    return write_corpus(tmp_path_factory.mktemp("pool-corpus"), PROCESS_CORPUS_FLOOR)


def _legacy_batch(paths, **kwargs):
    documents = [parse_file(path) for path in paths]
    return DTDInferencer(**kwargs).finalize(extract_evidence(documents))


class TestFacadeMatchesLegacy:
    """Byte-identical DTD output for every config combination.

    The reference is the pipeline composed by hand, as callers did
    before the façade: extract evidence, then the engine's finalize.
    """

    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_batch(self, corpus, method):
        expected = _legacy_batch(corpus, method=method).render()
        result = infer(corpus, config=InferenceConfig(method=method))
        assert result.render() == expected

    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_streaming(self, corpus, method):
        # The capped fold composed by hand: what a default run folds.
        evidence = StreamingEvidence()
        evidence.add_documents(parse_file(path) for path in corpus)
        expected = DTDInferencer(method=method).finalize(evidence).render()
        result = infer(corpus, config=InferenceConfig(method=method))
        assert result.render() == expected
        # ... and equals the whole-bag fold on this corpus.
        assert result.render() == _legacy_batch(corpus, method=method).render()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_parallel(self, corpus, jobs):
        evidence = parallel_evidence(corpus, jobs=jobs)
        expected = DTDInferencer().finalize(evidence).render()
        result = infer(corpus, config=InferenceConfig(jobs=jobs))
        assert result.render() == expected

    def test_numeric(self, corpus):
        expected = _legacy_batch(corpus, numeric=True).render()
        result = infer(corpus, config=InferenceConfig(numeric=True))
        assert result.render() == expected

    def test_no_attributes(self, corpus):
        expected = _legacy_batch(corpus, infer_attributes=False).render()
        result = infer(corpus, config=InferenceConfig(infer_attributes=False))
        assert result.render() == expected

    def test_support_threshold_matches_cli_behaviour(self, tmp_path):
        texts = ["<r><a/><a/></r>"] * 9 + ["<r><a/><zz/></r>"]
        paths = []
        for index, text in enumerate(texts):
            path = tmp_path / f"n{index}.xml"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        result = infer(paths, config=InferenceConfig(support_threshold=3))
        rendered = result.render()
        assert "zz" not in rendered
        assert "<!ELEMENT r (a+)>" in rendered

    def test_xsd_output_matches_legacy(self, corpus):
        from repro.xmlio.xsd import dtd_to_xsd

        inferencer = DTDInferencer()
        documents = [parse_file(path) for path in corpus]
        dtd = inferencer.finalize(extract_evidence(documents))
        expected = dtd_to_xsd(dtd, text_types=inferencer.report.text_types)
        assert infer(corpus).to_xsd() == expected


class TestSourceForms:
    def test_xml_literal(self):
        result = infer("<r><x/><y/></r>")
        assert "<!ELEMENT r (x,y)>" in result.render()

    def test_xml_literal_with_a_byte_order_mark(self):
        # U+FEFF before the markup is a BOM, not the start of a path.
        literal = "\ufeff<r><x/><y/></r>"
        assert infer(literal).render() == infer(literal[1:]).render()
        assert infer([literal, "\ufeff\n<r><x/></r>"]).render() == infer(
            ["<r><x/><y/></r>", "<r><x/></r>"]
        ).render()

    def test_validate_xml_literal_with_a_byte_order_mark(self):
        dtd = "<!ELEMENT r (x, y)>\n<!ELEMENT x EMPTY>\n<!ELEMENT y EMPTY>"
        result = validate(["\ufeff<r><x/><y/></r>", "\ufeff<r><y/></r>"], dtd)
        assert [document.valid for document in result.documents] == [True, False]
        assert result.documents[0].source == "<document #0>"

    def test_parsed_document(self):
        document = parse_document("<r><x/></r>")
        assert "<!ELEMENT r (x)>" in infer(document).render()

    def test_iterable_of_documents(self):
        documents = [
            parse_document("<r><x/></r>"), parse_document("<r><x/><x/></r>")
        ]
        assert "<!ELEMENT r (x+)>" in infer(documents).render()

    def test_directory(self, corpus, tmp_path):
        import shutil
        from pathlib import Path

        for path in corpus[:3]:
            shutil.copy(path, tmp_path)
        from_dir = infer(str(tmp_path)).render()
        assert from_dir == infer(sorted(
            str(p) for p in Path(tmp_path).glob("*.xml")
        )).render()

    def test_empty_directory_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError):
            infer(str(tmp_path))

    def test_mixed_documents_and_paths(self, corpus):
        mixed = [parse_document("<r><a>t</a></r>"), corpus[0]]
        assert "<!ELEMENT r " in infer(mixed).render()

    def test_unsupported_source_type(self):
        with pytest.raises(UsageError):
            infer(42)

    def test_empty_iterable_is_usage_error(self):
        with pytest.raises(UsageError):
            infer([])

    def test_jobs_fold_parsed_documents_in_the_driver(self, pool_corpus, two_cpus):
        # Documents never cross a process boundary: the shards that would
        # go to the pool fold in the driver, in shard order.
        documents = [parse_file(path) for path in pool_corpus]
        recorder = StatsRecorder()
        sharded = infer(documents, config=InferenceConfig(jobs=2, recorder=recorder))
        assert recorder.counters["parallel.backend.serial"] == 1
        assert "parallel.backend.process" not in recorder.counters
        assert sharded.render() == infer(pool_corpus).render()

    def test_jobs_ship_xml_literals(self, pool_corpus, two_cpus):
        literals = []
        for path in pool_corpus:
            with open(path, encoding="utf-8") as handle:
                literals.append(handle.read())
        recorder = StatsRecorder()
        sharded = infer(literals, config=InferenceConfig(jobs=2, recorder=recorder))
        assert recorder.counters["parallel.backend.process"] == 1
        assert sharded.render() == infer(pool_corpus).render()

    def test_streaming_accepts_documents_without_jobs(self, monkeypatch):
        # The capped fold takes parsed documents in one shard; under a
        # cap of one word every bag spills, and the bytes stay batch's.
        documents = [
            parse_document("<r><x/></r>"), parse_document("<r><x/><y/></r>")
        ]
        batch = infer(documents).render()
        assert "<!ELEMENT r (x,y?)>" in batch
        monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
        assert infer(documents).render() == batch

    @pytest.mark.parametrize(
        "option", [{}, {"numeric": True}, {"support_threshold": 2}],
        ids=["plain", "numeric", "support"],
    )
    def test_documents_compose_with_jobs(self, option):
        documents = [parse_document("<r><x/></r>"), parse_document("<r><x/><x/></r>")]
        mixed = [*documents, "<r><x/><x/><x/></r>"]
        batch = infer(mixed, config=InferenceConfig(**option)).render()
        assert "<!ELEMENT r (x" in batch
        for jobs in (2, 3):
            assert infer(mixed, config=InferenceConfig(jobs=jobs, **option)).render() == batch


class TestUnreadableInput:
    """Every entry point reads through one reader and names what it cannot read."""

    DTD = "<!ELEMENT r (x*)>\n<!ELEMENT x EMPTY>"

    @pytest.mark.parametrize("kind", ["latin-1", "missing"])
    @pytest.mark.parametrize("entry", ["infer", "validate"])
    def test_unreadable_path_is_a_named_corpus_error(self, tmp_path, entry, kind):
        path = tmp_path / "unreadable.xml"
        if kind == "latin-1":
            path.write_bytes("<r><x>café</x></r>".encode("latin-1"))
        source = ["<r><x/></r>", str(path)]
        with pytest.raises(CorpusError) as raised:
            if entry == "infer":
                infer(source, config=InferenceConfig(faults=None))
            else:
                validate(source, self.DTD)
        assert str(raised.value).startswith(f"{path}: ")
        cause = UnicodeDecodeError if kind == "latin-1" else FileNotFoundError
        assert isinstance(raised.value.__cause__, cause)

    def test_validate_labels_literals_as_its_errors_do(self):
        literals = ["<r><x/></r>", "<r><y/></r>", "<r/>"]
        result = validate(literals, self.DTD)
        sources = [document.source for document in result.documents]
        assert sources == ["<document #0>", "<document #1>", "<document #2>"]
        with pytest.raises(CorpusError) as raised:
            validate([literals[0], "<r><x></r>", literals[2]], self.DTD)
        assert str(raised.value).startswith(f"{sources[1]}: mismatched end tag")

    def test_validate_does_not_import_the_runtime(self, tmp_path):
        # The runtime package loads the process pool; a validate call
        # must not pay for importing it.
        path = tmp_path / "doc.xml"
        path.write_text("<r><x/></r>", encoding="utf-8")
        script = (
            "import sys\n"
            "from repro import api\n"
            f"result = api.validate([{str(path)!r}, '<r><y/></r>'], {self.DTD!r})\n"
            "assert [d.valid for d in result.documents] == [True, False]\n"
            "assert 'repro.runtime' not in sys.modules, sorted(sys.modules)\n"
        )
        run_fresh_interpreter(script)

    def test_serial_infer_does_not_import_unused_modules(self, tmp_path, monkeypatch):
        # Comparison, rendering and trace-checking modules, the process
        # pool and the JSON codec load only when something calls them.
        # An ambient REPRO_FAULTS plan is JSON the default config parses.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        path = tmp_path / "doc.xml"
        path.write_text("<r><x/></r>", encoding="utf-8")
        unused = [
            "repro.automata.compare",
            "repro.automata.dfa",
            "repro.automata.dot",
            "repro.automata.elimination",
            "repro.core.numeric",
            "repro.learning.sampling",
            "repro.obs.check_trace",
            "repro.obs.report",
            "repro.xmlio.diff",
            "repro.xmlio.xsd",
            "concurrent.futures.process",
            "concurrent.futures",
            "logging",
            "json",
        ]
        script = (
            "import sys\n"
            "import repro.api\n"
            f"result = repro.api.infer([{str(path)!r}, '<r><x/><x/></r>'])\n"
            "assert result.dtd.render()\n"
            f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        run_fresh_interpreter(script)


def run_fresh_interpreter(script):
    source_root = os.path.dirname(os.path.dirname(api.__file__))
    env = {**os.environ, "PYTHONPATH": source_root}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


class TestInferenceConfigValidation:
    def test_frozen(self):
        config = InferenceConfig()
        with pytest.raises(AttributeError):
            config.method = "crx"

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            InferenceConfig("idtd")

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            InferenceConfig(method="magic")

    def test_numeric_composes_with_streaming(self):
        documents = ["<r><a/><a/></r>", "<r><a/></r>", "<r><a/><a/><a/></r>"]
        batch = infer(documents, InferenceConfig(numeric=True)).render()
        with api.InferenceSession(InferenceConfig(numeric=True)) as session:
            for document in documents:
                session.append(document)
            assert session.current_dtd().render() == batch

    def test_numeric_composes_with_jobs(self):
        assert InferenceConfig(jobs=2, numeric=True).effective_streaming

    def test_support_threshold_composes_with_streaming(self):
        documents = ["<r><a/><a/></r>"] * 9 + ["<r><a/><zz/></r>"]
        batch = infer(documents, InferenceConfig(support_threshold=3))
        sharded = infer(documents, InferenceConfig(support_threshold=3, jobs=2))
        assert sharded.render() == batch.render()
        assert "zz" not in batch.render()

    @pytest.mark.parametrize("jobs", [None, 2], ids=["batch", "jobs2"])
    def test_support_threshold_keeps_start_element(self, jobs):
        # r is the root of 50 documents but a child only once: it is the
        # start element, so it must stay declared however rare as a child.
        documents = ["<r><a/></r>"] * 50 + ["<a><r/></a>"]
        result = infer(documents, InferenceConfig(support_threshold=5, jobs=jobs))
        assert result.dtd.start == "r"
        assert result.render() == "<!ELEMENT r (a?)>\n<!ELEMENT a (r?)>\n"

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_support_threshold_removes_xhtml_intruders(self, seed):
        """The paper's <p> case: rare disallowed children disappear."""
        rng = random.Random(seed)
        target = parse_regex("(a + b + c + d)*")
        clean = padded_sample(target, 400, rng)
        noisy = inject_intruders(clean, ["table", "h1"], rate=0.01, rng=rng)
        assert noisy.corrupted_indexes
        documents = [
            "<p>" + "".join(f"<{name}/>" for name in word) + "</p>"
            for word in noisy.words
        ]
        dtd = infer(
            documents, InferenceConfig(method="idtd", support_threshold=10)
        ).dtd
        model = dtd.elements["p"].regex
        assert not {"table", "h1"} & (set(dtd.elements) | model.alphabet())
        assert language_equivalent(model, target)

    def test_nonpositive_jobs(self):
        with pytest.raises(UsageError):
            InferenceConfig(jobs=0)

    def test_negative_support_threshold(self):
        with pytest.raises(UsageError):
            InferenceConfig(support_threshold=-1)

    def test_jobs_imply_streaming(self):
        assert InferenceConfig(jobs=2).effective_streaming
        assert not InferenceConfig().effective_streaming
        assert not InferenceConfig(numeric=True).effective_streaming
        assert InferenceConfig(state_dir="run").effective_streaming

    def test_streaming_is_no_option(self):
        with pytest.raises(TypeError):
            InferenceConfig(streaming=True)


class TestResultAndRecorder:
    def test_result_fields(self, corpus):
        result = infer(corpus)
        assert isinstance(result, InferenceResult)
        assert result.dtd.elements
        assert result.report.method_used
        assert result.config.method == "auto"

    def test_recorder_sees_all_phases_batch(self, corpus):
        # cache=False: a warm content-model cache legitimately skips the
        # rewrite phase, and this test asserts a fresh derivation.
        recorder = StatsRecorder()
        result = infer(
            corpus,
            config=InferenceConfig(
                method="idtd", cache=False, recorder=recorder
            ),
        )
        result.render()
        names = {span["name"] for span in recorder.snapshot()["spans"]}
        assert {"parse", "extract", "soa", "rewrite", "emit"} <= names
        assert recorder.counters["documents"] == len(corpus)

    def test_recorder_sees_shards_when_parallel(self, pool_corpus, two_cpus):
        recorder = StatsRecorder()
        infer(pool_corpus, config=InferenceConfig(jobs=2, recorder=recorder))
        spans = recorder.snapshot()["spans"]
        shard_tags = {
            span["shard"] for span in spans if span["shard"] is not None
        }
        assert shard_tags == {0, 1}
        assert recorder.counters["shards"] == 2


class TestValidateAndDiffCounters:
    """Validate and diff count the regex language caches they consult."""

    DTD = "<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b (a+)>"

    def test_validate_counts_compilation(self):
        recorder = StatsRecorder()
        documents = ["<r><a/><b><a/></b></r>", "<r><a/></r>", "<r><b/></r>"]
        # Contracts off: their cross-check runs matches(), which looks
        # the automaton up once more per element.
        with contracts_active(False):
            result = api.validate(documents, self.DTD, api.ValidationConfig(recorder=recorder))
        assert [document.valid for document in result.documents] == [True, True, False]
        counters = recorder.counters
        # r and b are element content; a is mixed and needs no matcher.
        assert counters["validate.models_compiled"] == 2
        # r: (start, a), (a, b), (start, b); b: (start, a).
        assert counters["validate.transitions"] == 4
        # <r><b/></r>: r's children and the empty b are both bad content.
        assert counters["validate.violations"] == 2
        lookups = sum(
            counters.get(f"cache.language.automaton.{key}", 0) for key in ("hits", "misses")
        )
        assert lookups == 2  # one automaton lookup per compiled model
        assert not any(name.startswith("cache.language.inclusion.") for name in counters)

    def test_diff_counts_its_automaton_lookups(self):
        recorder = StatsRecorder()
        result = api.diff(
            self.DTD,
            self.DTD.replace("(a+)", "(a*)"),
            api.DiffConfig(recorder=recorder),
        )
        assert [entry.relation for entry in result.entries] == ["looser"]
        counters = recorder.counters
        lookups = sum(
            counters.get(f"cache.language.automaton.{key}", 0) for key in ("hits", "misses")
        )
        # r and b are compared both ways, each search building two engines.
        assert lookups == 8

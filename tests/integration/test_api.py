"""The unified façade: equivalence with the engine composed by hand, validation."""

import random

import pytest

from repro import api
from repro.api import InferenceConfig, InferenceResult, infer, validate
from repro.contracts import contracts_active
from repro.core.inference import DTDInferencer
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import UsageError
from repro.obs import StatsRecorder
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
        evidence = StreamingEvidence()
        evidence.add_documents(parse_file(path) for path in corpus)
        expected = DTDInferencer(method=method).finalize(evidence).render()
        result = infer(
            corpus, config=InferenceConfig(method=method, streaming=True)
        )
        assert result.render() == expected
        # ... and streaming output equals batch output on this corpus.
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
        assert result.documents[0].source == "document#0"

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

    def test_jobs_require_paths(self):
        document = parse_document("<r><x/></r>")
        with pytest.raises(UsageError):
            infer([document, document], config=InferenceConfig(jobs=2))

    def test_jobs_ship_xml_literals(self, pool_corpus, two_cpus):
        literals = []
        for path in pool_corpus:
            with open(path, encoding="utf-8") as handle:
                literals.append(handle.read())
        recorder = StatsRecorder()
        sharded = infer(literals, config=InferenceConfig(jobs=2, recorder=recorder))
        assert recorder.counters["parallel.backend.process"] == 1
        assert sharded.render() == infer(pool_corpus).render()

    def test_streaming_accepts_documents_without_jobs(self):
        documents = [
            parse_document("<r><x/></r>"), parse_document("<r><x/><x/></r>")
        ]
        result = infer(documents, config=InferenceConfig(streaming=True))
        assert "<!ELEMENT r (x+)>" in result.render()


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
        assert InferenceConfig(streaming=True, numeric=True).effective_streaming

    def test_numeric_composes_with_jobs(self):
        assert InferenceConfig(jobs=2, numeric=True).effective_streaming

    def test_support_threshold_composes_with_streaming(self):
        for shape in ({"streaming": True}, {"jobs": 2}):
            config = InferenceConfig(support_threshold=3, **shape)
            assert config.effective_streaming
        documents = ["<r><a/><a/></r>"] * 9 + ["<r><a/><zz/></r>"]
        batch = infer(documents, InferenceConfig(support_threshold=3))
        streamed = infer(
            documents, InferenceConfig(support_threshold=3, streaming=True)
        )
        assert streamed.render() == batch.render()
        assert "zz" not in batch.render()

    def test_nonpositive_jobs(self):
        with pytest.raises(UsageError):
            InferenceConfig(jobs=0)

    def test_negative_support_threshold(self):
        with pytest.raises(UsageError):
            InferenceConfig(support_threshold=-1)

    def test_jobs_imply_streaming(self):
        assert InferenceConfig(jobs=2).effective_streaming
        assert not InferenceConfig().effective_streaming
        assert InferenceConfig(streaming=True).effective_streaming


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

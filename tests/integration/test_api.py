"""The unified façade: equivalence with legacy entry points, validation."""

import random
import warnings

import pytest

from repro.api import InferenceConfig, InferenceResult, infer
from repro.core.inference import DTDInferencer, infer_dtd
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import UsageError
from repro.obs import StatsRecorder
from repro.runtime.parallel import infer_parallel
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.extract import extract_evidence, extract_streaming_evidence
from repro.xmlio.parser import parse_document, parse_file

SCHEMA = (
    "<!ELEMENT r (a+, b?, c*)>"
    "<!ELEMENT a (#PCDATA)>"
    "<!ELEMENT b (a, a?)>"
    "<!ELEMENT c EMPTY>"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("api-corpus")
    generator = XmlGenerator(parse_dtd(SCHEMA), random.Random(7))
    paths = []
    for index, document in enumerate(generator.corpus(12)):
        path = root / f"doc{index}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def _legacy_batch(paths, **kwargs):
    documents = [parse_file(path) for path in paths]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return DTDInferencer(**kwargs).infer(documents)


class TestFacadeMatchesLegacy:
    """Byte-identical DTD output for every config combination."""

    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_batch(self, corpus, method):
        expected = _legacy_batch(corpus, method=method).render()
        result = infer(corpus, config=InferenceConfig(method=method))
        assert result.render() == expected

    @pytest.mark.parametrize("method", ["auto", "idtd", "crx"])
    def test_streaming(self, corpus, method):
        documents = [parse_file(path) for path in corpus]
        evidence = extract_streaming_evidence(documents)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            expected = (
                DTDInferencer(method=method)
                .infer_from_streaming(evidence)
                .render()
            )
        result = infer(
            corpus, config=InferenceConfig(method=method, streaming=True)
        )
        assert result.render() == expected
        # ... and streaming output equals batch output on this corpus.
        assert result.render() == _legacy_batch(corpus, method=method).render()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_parallel(self, corpus, jobs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            expected = infer_parallel(corpus, jobs=jobs).render()
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

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            inferencer = DTDInferencer()
            dtd = inferencer.infer([parse_file(path) for path in corpus])
        expected = dtd_to_xsd(dtd, text_types=inferencer.report.text_types)
        assert infer(corpus).to_xsd() == expected


class TestSourceForms:
    def test_xml_literal(self):
        result = infer("<r><x/><y/></r>")
        assert "<!ELEMENT r (x,y)>" in result.render()

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

    def test_support_threshold_excludes_streaming(self):
        with pytest.raises(UsageError, match="--support-threshold"):
            InferenceConfig(streaming=True, support_threshold=3)

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

    def test_recorder_sees_shards_when_parallel(self, corpus):
        # backend="thread": the auto cost model rightly picks serial for
        # a corpus this small; this test is about shard snapshot merging.
        recorder = StatsRecorder()
        infer(
            corpus,
            config=InferenceConfig(
                jobs=2, backend="thread", recorder=recorder
            ),
        )
        spans = recorder.snapshot()["spans"]
        shard_tags = {
            span["shard"] for span in spans if span["shard"] is not None
        }
        assert shard_tags == {0, 1}
        assert recorder.counters["shards"] == 2


class TestDeprecatedShimsStillWork:
    """Satellite: `from repro import infer_dtd` etc. keep functioning."""

    @pytest.fixture(autouse=True)
    def _fresh_warnings(self):
        # Shims warn once per process; each test re-arms the gate so
        # pytest.warns observes the warning regardless of suite order.
        from repro.errors import reset_legacy_warnings

        reset_legacy_warnings()

    def test_infer_dtd_shim(self, corpus):
        documents = [parse_file(path) for path in corpus]
        with pytest.warns(DeprecationWarning):
            dtd = infer_dtd(documents)
        assert dtd.render() == infer(corpus).render()

    def test_infer_from_evidence_shim(self, corpus):
        documents = [parse_file(path) for path in corpus]
        evidence = extract_evidence(documents)
        with pytest.warns(DeprecationWarning):
            dtd = DTDInferencer().infer_from_evidence(evidence)
        assert dtd.render() == infer(corpus).render()

    def test_infer_parallel_shim(self, corpus):
        with pytest.warns(DeprecationWarning):
            dtd = infer_parallel(corpus, jobs=2)
        assert dtd.render() == infer(
            corpus, config=InferenceConfig(jobs=2)
        ).render()

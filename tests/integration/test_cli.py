"""Command-line interface tests."""

import random

import pytest

from repro.cli import main
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.xmlio.dtd import parse_dtd


def write_corpus(directory, count):
    dtd = parse_dtd(
        "<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>"
    )
    generator = XmlGenerator(dtd, random.Random(1))
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"doc{index}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture
def corpus_files(tmp_path):
    return write_corpus(tmp_path, 8)


class TestInfer:
    def test_dtd_output(self, corpus_files, capsys):
        assert main(["infer", *corpus_files]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT r " in out
        assert "(#PCDATA)" in out

    def test_xsd_output(self, corpus_files, capsys):
        assert main(["infer", "--format", "xsd", *corpus_files]) == 0
        out = capsys.readouterr().out
        assert "<xs:schema" in out

    def test_method_selection(self, corpus_files, capsys):
        assert main(["infer", "--method", "crx", *corpus_files]) == 0
        assert "<!ELEMENT" in capsys.readouterr().out


class TestStreamingInfer:
    def test_streaming_output_identical_to_batch(self, corpus_files, tmp_path, capsys):
        assert main(["infer", *corpus_files]) == 0
        batch = capsys.readouterr().out
        assert main(["infer", "--state-dir", str(tmp_path / "run"), *corpus_files]) == 0
        assert capsys.readouterr().out == batch

    def test_parallel_output_identical_to_batch(self, corpus_files, capsys):
        assert main(["infer", *corpus_files]) == 0
        batch = capsys.readouterr().out
        assert main(["infer", "--jobs", "2", *corpus_files]) == 0
        assert capsys.readouterr().out == batch

    def test_streaming_xsd_identical_to_batch(self, corpus_files, capsys):
        assert main(["infer", "--format", "xsd", *corpus_files]) == 0
        batch = capsys.readouterr().out
        assert main(["infer", "--format", "xsd", "--jobs", "2", *corpus_files]) == 0
        assert capsys.readouterr().out == batch

    def test_streaming_numeric_matches_batch(self, corpus_files, capsys):
        assert main(["infer", "--numeric", *corpus_files]) == 0
        batch = capsys.readouterr().out
        assert main(["infer", "--jobs", "2", "--numeric", *corpus_files]) == 0
        assert capsys.readouterr().out == batch

    def test_streaming_support_threshold_matches_batch(self, tmp_path, capsys):
        paths = []
        for index in range(10):
            path = tmp_path / f"n{index}.xml"
            path.write_text(
                "<r><a/><zz/></r>" if index == 4 else "<r><a/><a/></r>",
                encoding="utf-8",
            )
            paths.append(str(path))
        assert main(["infer", "--support-threshold", "3", *paths]) == 0
        batch = capsys.readouterr().out
        assert "zz" not in batch
        for shape in (["--jobs", "2"], ["--state-dir", str(tmp_path / "run")]):
            argv = ["infer", *shape, "--support-threshold", "3", *paths]
            assert main(argv) == 0
            assert capsys.readouterr().out == batch


class TestExitCodes:
    """0 = success, 1 = usage/input error, 2 = internal — never a traceback."""

    def test_no_files_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer"])
        assert excinfo.value.code == 1

    def test_bad_jobs_is_usage_error(self, corpus_files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--jobs", "0", *corpus_files])
        assert excinfo.value.code == 1

    def test_negative_jobs_is_usage_error(self, corpus_files, capsys):
        for jobs in ("-1", "-8"):
            with pytest.raises(SystemExit) as excinfo:
                main(["infer", "--jobs", jobs, *corpus_files])
            assert excinfo.value.code == 1

    def test_nonexistent_input_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.xml")
        assert main(["infer", missing]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_nonexistent_path_streaming(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.xml")
        assert main(["infer", "--jobs", "2", missing]) == 1
        assert "error" in capsys.readouterr().err

    def test_streaming_flag_is_gone(self, corpus_files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--streaming", *corpus_files])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --streaming" in capsys.readouterr().err

    def test_malformed_xml(self, tmp_path, capsys):
        path = tmp_path / "broken.xml"
        path.write_text("<r><unclosed></r>", encoding="utf-8")
        assert main(["infer", str(path)]) == 1
        assert "mismatched end tag" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dtd", "validate"])
    def test_malformed_xml_names_the_file(self, command, corpus_files, tmp_path, capsys):
        broken = tmp_path / "broken.xml"
        broken.write_text("<r><a></r>", encoding="utf-8")
        files = [*corpus_files[:2], str(broken), *corpus_files[2:]]
        schema = tmp_path / "r.dtd"
        schema.write_text("<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>")
        argv = ["dtd", *files] if command == "dtd" else ["validate", "-d", str(schema), *files]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {broken}: mismatched end tag </r> for <a> (line 1, column 10)" in err

    @pytest.mark.parametrize("kind", ["latin-1", "missing"])
    @pytest.mark.parametrize("command", ["dtd", "validate"])
    def test_unreadable_file_is_named(self, command, kind, corpus_files, tmp_path, capsys):
        unreadable = tmp_path / "unreadable.xml"
        if kind == "latin-1":
            unreadable.write_bytes("<r><a>café</a></r>".encode("latin-1"))
        files = [*corpus_files[:2], str(unreadable), *corpus_files[2:]]
        schema = tmp_path / "r.dtd"
        schema.write_text("<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>")
        argv = ["dtd", *files] if command == "dtd" else ["validate", "-d", str(schema), *files]
        assert main(argv) == 1
        assert f"error: {unreadable}: " in capsys.readouterr().err

    def test_undecodable_dtd_is_named(self, corpus_files, tmp_path, capsys):
        schema = tmp_path / "latin.dtd"
        schema.write_bytes("<!-- café -->\n<!ELEMENT r (a)>".encode("latin-1"))
        assert main(["validate", "-d", str(schema), corpus_files[0]]) == 1
        assert f"error: {schema}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["infer", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_dtd_for_validate(self, tmp_path, corpus_files, capsys):
        missing = str(tmp_path / "nope.dtd")
        assert main(["validate", "-d", missing, corpus_files[0]]) == 1
        assert "error" in capsys.readouterr().err

    def test_single_document_with_nonrepeating_root(self, tmp_path, capsys):
        path = tmp_path / "solo.xml"
        path.write_text("<solo><a/><b/></solo>", encoding="utf-8")
        for extra in ([], ["--jobs", "2"], ["--method", "idtd"]):
            assert main(["infer", *extra, str(path)]) == 0
            assert "<!ELEMENT solo (a,b)>" in capsys.readouterr().out

    def test_expr_empty_words_only(self, capsys):
        assert main(["expr", ""]) == 1
        assert "empty content" in capsys.readouterr().err


class TestValidate:
    def test_valid_and_invalid(self, corpus_files, tmp_path, capsys):
        dtd_path = tmp_path / "schema.dtd"
        dtd_path.write_text(
            "<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>\n",
            encoding="utf-8",
        )
        assert main(["validate", "-d", str(dtd_path), corpus_files[0]]) == 0
        assert "valid" in capsys.readouterr().out

        bad = tmp_path / "bad.xml"
        bad.write_text("<r><b/><b/></r>", encoding="utf-8")
        assert main(["validate", "-d", str(dtd_path), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestSample:
    def test_generates_valid_corpus(self, tmp_path, capsys):
        dtd_path = tmp_path / "schema.dtd"
        dtd_path.write_text(
            "<!ELEMENT r (a+, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "generated"
        assert main(
            ["sample", "-d", str(dtd_path), "-o", str(out_dir), "-n", "6"]
        ) == 0
        files = sorted(out_dir.glob("*.xml"))
        assert len(files) == 6
        capsys.readouterr()
        assert main(
            ["validate", "-d", str(dtd_path), *(str(f) for f in files)]
        ) == 0

    def test_seed_reproducibility(self, tmp_path):
        dtd_path = tmp_path / "schema.dtd"
        dtd_path.write_text("<!ELEMENT r (a*)><!ELEMENT a EMPTY>\n")
        for name in ("one", "two"):
            main(
                ["sample", "-d", str(dtd_path), "-o", str(tmp_path / name),
                 "-n", "3", "--seed", "42"]
            )
        for index in range(3):
            first = (tmp_path / "one" / f"sample{index:04d}.xml").read_text()
            second = (tmp_path / "two" / f"sample{index:04d}.xml").read_text()
            assert first == second


class TestSupportThreshold:
    def test_noise_dropped_from_inferred_dtd(self, tmp_path, capsys):
        texts = ["<r><a/><a/></r>"] * 9 + ["<r><a/><zz/></r>"]
        paths = []
        for index, text in enumerate(texts):
            path = tmp_path / f"n{index}.xml"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        assert main(["infer", "--support-threshold", "3", *paths]) == 0
        out = capsys.readouterr().out
        assert "zz" not in out
        assert "<!ELEMENT r (a+)>" in out

    def test_threshold_zero_keeps_everything(self, tmp_path, capsys):
        path = tmp_path / "d.xml"
        path.write_text("<r><zz/></r>", encoding="utf-8")
        assert main(["infer", str(path)]) == 0
        assert "zz" in capsys.readouterr().out


class TestDiff:
    def test_diff_two_dtds(self, tmp_path, capsys):
        old = tmp_path / "old.dtd"
        old.write_text("<!ELEMENT r (a, b?)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>")
        new = tmp_path / "new.dtd"
        new.write_text("<!ELEMENT r (a)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>")
        assert main(["diff", "--old", str(old), "--new", str(new)]) == 1
        out = capsys.readouterr().out
        assert "r: tighter" in out

    def test_diff_against_inferred(self, tmp_path, capsys):
        old = tmp_path / "old.dtd"
        old.write_text(
            "<!ELEMENT r (a?, b?)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
        )
        doc = tmp_path / "doc.xml"
        doc.write_text("<r><a/></r>")
        assert main(["diff", "--old", str(old), str(doc)]) == 1
        out = capsys.readouterr().out
        assert "tighter" in out

    def test_equivalent_schemas_exit_zero(self, tmp_path, capsys):
        old = tmp_path / "old.dtd"
        old.write_text("<!ELEMENT r (a)><!ELEMENT a EMPTY>")
        new = tmp_path / "new.dtd"
        new.write_text("<!ELEMENT r (a)><!ELEMENT a EMPTY>")
        assert main(["diff", "--old", str(old), "--new", str(new)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_missing_inputs_is_usage_error(self, tmp_path, capsys):
        old = tmp_path / "old.dtd"
        old.write_text("<!ELEMENT r (a)><!ELEMENT a EMPTY>")
        assert main(["diff", "--old", str(old)]) == 1


class TestStatsAndTrace:
    def test_dtd_alias(self, corpus_files, capsys):
        assert main(["dtd", *corpus_files]) == 0
        alias = capsys.readouterr().out
        assert main(["infer", *corpus_files]) == 0
        assert capsys.readouterr().out == alias

    def test_stats_table_on_stderr(self, corpus_files, capsys):
        assert main(["dtd", "--stats", *corpus_files]) == 0
        captured = capsys.readouterr()
        assert "<!ELEMENT" in captured.out
        for phase in ("parse", "extract", "emit", "wall clock"):
            assert phase in captured.err
        assert "counters" in captured.err
        assert "peak RSS" in captured.err

    def test_stats_shows_learner_phases(self, corpus_files, capsys):
        assert main(
            ["dtd", "--method", "idtd", "--stats", *corpus_files]
        ) == 0
        err = capsys.readouterr().err
        assert "soa" in err and "rewrite" in err
        assert main(
            ["dtd", "--method", "crx", "--stats", *corpus_files]
        ) == 0
        assert "crx" in capsys.readouterr().err

    def test_validate_stats_and_trace(self, corpus_files, tmp_path, capsys):
        from repro.obs.check_trace import validate_trace_file

        dtd_path = tmp_path / "schema.dtd"
        dtd_path.write_text(
            "<!ELEMENT r (a, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>",
            encoding="utf-8",
        )
        trace = tmp_path / "validate.jsonl"
        assert main(
            ["validate", "-d", str(dtd_path), "--stats", "--trace", str(trace), *corpus_files]
        ) == 0
        captured = capsys.readouterr()
        assert "valid" in captured.out
        assert "validate.models_compiled" in captured.err
        assert "validate.transitions" in captured.err
        assert validate_trace_file(str(trace)) == []

    def test_trace_is_valid_jsonl(self, corpus_files, tmp_path, capsys):
        from repro.obs.check_trace import validate_trace_file

        trace = tmp_path / "trace.jsonl"
        assert main(["dtd", "--trace", str(trace), *corpus_files]) == 0
        capsys.readouterr()
        assert validate_trace_file(str(trace)) == []

    def test_trace_streaming_has_all_phases(self, corpus_files, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        # --no-cache: a warm content-model cache legitimately skips the
        # rewrite phase, and this test asserts a fresh derivation.
        code = main(
            ["dtd", "--jobs", "2", "--method", "idtd", "--no-cache",
             "--trace", str(trace), *corpus_files]
        )
        assert code == 0
        capsys.readouterr()
        names = {
            record["name"]
            for record in map(json.loads, trace.read_text().splitlines())
            if record["type"] == "span"
        }
        assert {"parse", "extract", "soa", "rewrite", "emit"} <= names

    def test_filter_span_and_counter_on_every_shape(self, tmp_path, capsys):
        import json

        from repro.obs.check_trace import validate_trace_file

        paths = []
        for index in range(6):
            path = tmp_path / f"n{index}.xml"
            path.write_text(
                "<r><a/><zz/></r>" if index == 2 else "<r><a/></r>",
                encoding="utf-8",
            )
            paths.append(str(path))
        shapes = {
            "batch": [],
            "jobs": ["--jobs", "2"],
            "state_dir": ["--state-dir", str(tmp_path / "state")],
        }
        for shape, flags in shapes.items():
            trace = tmp_path / f"{shape}.jsonl"
            argv = ["dtd", *flags, "--support-threshold", "2", "--trace", str(trace)]
            assert main([*argv, *paths]) == 0, shape
            assert "zz" not in capsys.readouterr().out, shape
            assert validate_trace_file(str(trace)) == [], shape
            records = [json.loads(line) for line in trace.read_text().splitlines()]
            spans = {r["name"] for r in records if r["type"] == "span"}
            (summary,) = [r for r in records if r["type"] == "summary"]
            assert "filter" in spans, shape
            assert summary["counters"]["filter.dropped_names"] == 1, shape

    def test_parallel_trace_includes_shards(self, tmp_path, capsys, two_cpus):
        import json

        from repro.obs.check_trace import validate_trace_file
        from repro.runtime.parallel import PROCESS_CORPUS_FLOOR

        paths = write_corpus(tmp_path, PROCESS_CORPUS_FLOOR)
        trace = tmp_path / "trace.jsonl"
        assert main(["dtd", "--jobs", "2", "--trace", str(trace), *paths]) == 0
        capsys.readouterr()
        assert validate_trace_file(str(trace)) == []
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        shard_spans = [
            r for r in records
            if r["type"] == "span" and r["name"] == "shard"
        ]
        assert len(shard_spans) == 2
        assert {r["shard"] for r in shard_spans} == {0, 1}

    def test_stats_shows_cache_counters_and_backend(
        self, corpus_files, capsys
    ):
        assert main(
            ["infer", "--jobs", "2", "--stats", *corpus_files]
        ) == 0
        err = capsys.readouterr().err
        assert "cache.content_model" in err
        assert "parallel.backend." in err

    def test_no_cache_output_identical(self, corpus_files, capsys):
        assert main(["infer", *corpus_files]) == 0
        cached = capsys.readouterr().out
        assert main(["infer", "--no-cache", *corpus_files]) == 0
        assert capsys.readouterr().out == cached

    def test_stats_off_by_default(self, corpus_files, capsys):
        # An explicit empty plan: an ambient REPRO_FAULTS worker crash
        # would retry batch's one shard and print a degradation summary.
        assert main(["dtd", "--fault-plan", "{}", *corpus_files]) == 0
        assert capsys.readouterr().err == ""

    def test_directory_source(self, corpus_files, capsys):
        import os

        directory = os.path.dirname(corpus_files[0])
        assert main(["dtd", directory]) == 0
        from_dir = capsys.readouterr().out
        assert main(["dtd", *corpus_files]) == 0
        assert capsys.readouterr().out == from_dir


class TestExpr:
    def test_idtd_expression(self, capsys):
        assert main(["expr", "a b", "a b b", "b"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "a? b+"

    def test_crx_dtd_format(self, capsys):
        assert main(["expr", "--method", "crx", "--format", "dtd", "a b", "b"]) == 0
        assert capsys.readouterr().out.strip() == "a?,b"


class TestMethodValidation:
    """Unknown methods fail with the one canonical UsageError message,
    uniformly across infer, diff and the serve-backed config path."""

    CANONICAL = (
        "unknown method 'bogus': expected one of "
        "'auto', 'idtd', 'crx', 'kore', 'sire'"
    )

    def test_infer_unknown_method(self, corpus_files, capsys):
        assert main(["infer", "--method", "bogus", *corpus_files]) == 1
        assert self.CANONICAL in capsys.readouterr().err

    def test_diff_unknown_method(self, corpus_files, tmp_path, capsys):
        old = tmp_path / "old.dtd"
        old.write_text("<!ELEMENT r EMPTY>", encoding="utf-8")
        assert (
            main(["diff", "--old", str(old), "--method", "bogus", *corpus_files])
            == 1
        )
        assert self.CANONICAL in capsys.readouterr().err

    def test_expr_unknown_method(self, capsys):
        assert main(["expr", "--method", "bogus", "a b"]) == 1
        err = capsys.readouterr().err
        assert "unknown method 'bogus'" in err
        assert "'kore', 'sire'" in err

    def test_expr_rejects_auto(self, capsys):
        # auto is a corpus policy, not a word-list learner.
        assert main(["expr", "--method", "auto", "a b"]) == 1
        assert "unknown method 'auto'" in capsys.readouterr().err


class TestExtensionMethods:
    def test_infer_kore_counts_repetitions(self, tmp_path, capsys):
        paths = []
        for index, body in enumerate(
            ["<a/><b/><a/>", "<a/><a/>", "<a/><c/><a/>"]
        ):
            path = tmp_path / f"k{index}.xml"
            path.write_text(f"<r>{body}</r>", encoding="utf-8")
            paths.append(str(path))
        assert main(["infer", "--method", "kore", *paths]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT r (a,(b|c)?,a)>" in out

    def test_infer_sire_emits_interleaving(self, tmp_path, capsys):
        paths = []
        for index, body in enumerate(
            ["<a/><b/><c/>", "<c/><b/><a/>", "<b/><c/><a/>", "<c/><a/><b/>"]
        ):
            path = tmp_path / f"s{index}.xml"
            path.write_text(f"<r>{body}</r>", encoding="utf-8")
            paths.append(str(path))
        assert main(["infer", "--method", "sire", *paths]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT r (a & b & c)>" in out

    def test_expr_kore(self, capsys):
        assert main(["expr", "--method", "kore", "a b a", "a a"]) == 0
        assert capsys.readouterr().out.strip() == "a b? a"

    def test_expr_sire(self, capsys):
        assert main(["expr", "--method", "sire", "a b", "b a"]) == 0
        assert capsys.readouterr().out.strip() == "a & b"

    def test_streaming_kore_identical_to_batch(self, tmp_path, capsys):
        paths = []
        for index in range(6):
            body = "<a/><b/><a/>" if index % 2 else "<a/><a/>"
            path = tmp_path / f"d{index}.xml"
            path.write_text(f"<r>{body}</r>", encoding="utf-8")
            paths.append(str(path))
        assert main(["infer", "--method", "kore", *paths]) == 0
        batch = capsys.readouterr().out
        assert main(["infer", "--method", "kore", "--jobs", "2", *paths]) == 0
        assert capsys.readouterr().out == batch

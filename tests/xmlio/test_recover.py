"""Recoverable reading against hostile and broken inputs.

:func:`~repro.runtime.resilience.load_document` in skip mode is the
quarantine primitive of the resilient runtime: every way a real-world
document can be unreadable — truncated bytes, bad encodings, mismatched
tags, pathological nesting, entity tricks, a vanished file — must come
back as a :class:`QuarantinedDocument` with a precise cause (or read
fine), never hang, recurse without bound, or blow up memory.  In strict
mode the one corpus reader, :func:`~repro.xmlio.parser.read_document`,
raises the same failures as a :class:`CorpusError` that names the
document.
"""

import mmap
import sys

import pytest

from repro.errors import CorpusError
from repro.obs.recorder import NULL_RECORDER, StatsRecorder
from repro.runtime.resilience import (
    DegradationReport,
    QuarantinedDocument,
    load_document,
)
from repro.xmlio.parser import (
    MAX_ELEMENT_DEPTH,
    MMAP_MIN_BYTES,
    XmlSyntaxError,
    parse_document,
    parse_file,
    read_document,
)
from repro.xmlio.tree import ElementRecords


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_latin1(tmp_path):
    path = tmp_path / "latin.xml"
    path.write_bytes("<r>café</r>".encode("latin-1"))
    return str(path)


def _skip(item, recorder=NULL_RECORDER):
    """Read ``item`` under an uncapped budget: its records, or its quarantine entry."""
    report = DegradationReport(max_quarantine=None)
    loaded = load_document(item, 0, report, recorder=recorder)
    if loaded is None:
        (entry,) = report.quarantined
        return entry
    assert not report.degraded
    return loaded


def _shape(element):
    return (
        element.name,
        element.attributes,
        element.text_chunks,
        [_shape(child) for child in element.children],
    )


class TestTryParseFile:
    """Skip-mode reading of one file: records, or a quarantine entry
    whose ``path`` names the file and whose ``cause`` does not."""

    def test_valid_file_returns_document(self, tmp_path):
        path = _write(tmp_path, "ok.xml", "<r><a/></r>")
        result = _skip(path)
        assert isinstance(result, ElementRecords)
        assert result.link().root.name == "r"

    def test_truncated_file_fails_with_position(self, tmp_path):
        path = _write(tmp_path, "trunc.xml", "<r><a>cut off mid-eleme")
        with pytest.raises(XmlSyntaxError) as syntax:
            parse_document("<r><a>cut off mid-eleme")
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert failure.path == path
        assert "unterminated" in failure.cause
        assert failure.cause == str(syntax.value)
        assert failure.position == syntax.value.position is not None

    def test_mismatched_tags_fail_with_both_names(self, tmp_path):
        path = _write(tmp_path, "mismatch.xml", "<r><a></b></r>")
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert "</b>" in failure.cause and "<a>" in failure.cause
        assert not failure.cause.startswith(path)

    def test_invalid_utf8_bytes_fail_cleanly(self, tmp_path):
        path = tmp_path / "bad-encoding.xml"
        path.write_bytes(b"<r>\xff\xfe\x9c</r>")
        with pytest.raises(UnicodeDecodeError) as decode:
            parse_file(str(path))
        failure = _skip(str(path))
        assert isinstance(failure, QuarantinedDocument)
        assert failure.cause == str(decode.value)  # the decode error, verbatim
        assert failure.position is None

    def test_empty_file_fails(self, tmp_path):
        path = _write(tmp_path, "empty.xml", "")
        assert isinstance(_skip(path), QuarantinedDocument)

    def test_missing_file_fails_with_oserror_cause(self, tmp_path):
        path = str(tmp_path / "nope.xml")
        with pytest.raises(FileNotFoundError) as missing:
            parse_file(path)
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert "nope.xml" in failure.cause
        assert failure.cause == str(missing.value)
        assert failure.position is None

    def test_directory_path_fails(self, tmp_path):
        assert isinstance(_skip(str(tmp_path)), QuarantinedDocument)

    def test_failures_are_counted(self, tmp_path):
        recorder = StatsRecorder()
        _skip(_write(tmp_path, "bad.xml", "<r"), recorder)
        _skip(_write(tmp_path, "ok.xml", "<r/>"), recorder)
        counters = recorder.snapshot()["counters"]
        assert counters["resilience.quarantined"] == 1
        assert counters["documents"] == 1

    def test_engine_errors_still_raise(self, tmp_path, monkeypatch):
        # Recoverable mode degrades on bad *input*; a bug in the engine
        # (anything outside the documented failure types) must surface.
        import repro.xmlio.parser as parser_module

        def boom(path, recorder):
            raise ZeroDivisionError("engine bug")

        monkeypatch.setattr(parser_module, "scan_file", boom)
        with pytest.raises(ZeroDivisionError):
            _skip(_write(tmp_path, "any.xml", "<r/>"))


class TestReadDocument:
    """Strict reading: every failure is a CorpusError led by the label."""

    @pytest.mark.parametrize(
        "kind, chained",
        [
            ("syntax", None),
            ("literal", None),
            ("latin-1", UnicodeDecodeError),
            ("missing", FileNotFoundError),
            ("directory", IsADirectoryError),
        ],
    )
    def test_failure_names_the_document(self, tmp_path, kind, chained):
        item = {
            "syntax": lambda: _write(tmp_path, "bad.xml", "<r><a></r>"),
            "literal": lambda: "<r><a></r>",
            "latin-1": lambda: _write_latin1(tmp_path),
            "missing": lambda: str(tmp_path / "nope.xml"),
            "directory": lambda: str(tmp_path),
        }[kind]()
        label = "<document #3>" if kind == "literal" else item
        with pytest.raises(CorpusError) as raised:
            read_document(item, 3)
        message = str(raised.value)
        assert message.startswith(f"{label}: ")
        if chained is None:
            with pytest.raises(XmlSyntaxError) as plain:
                parse_document("<r><a></r>")
            error = raised.value
            assert isinstance(error, XmlSyntaxError)
            assert message == f"{label}: {plain.value}"
            assert (error.line, error.column, error.position) == (
                plain.value.line,
                plain.value.column,
                plain.value.position,
            )
        elif chained is UnicodeDecodeError:
            assert isinstance(raised.value.__cause__, chained)
            assert message == f"{label}: {raised.value.__cause__}"
        else:
            # The label names the file; the OS error's text does not
            # repeat it.
            cause = raised.value.__cause__
            assert isinstance(cause, chained)
            assert message == f"{label}: [Errno {cause.errno}] {cause.strerror}"
            assert message.count(item) == 1

    def test_documents_pass_through_and_text_is_scanned(self):
        document = parse_document("<r><a/></r>")
        assert read_document(document, 0) is document
        recorder = StatsRecorder()
        records = read_document("<r><a/></r>", 0, recorder)
        assert _shape(records.link().root) == _shape(document.root)
        spans = recorder.snapshot()["spans"]
        assert [span["name"] for span in spans] == ["parse"]


class TestDepthBomb:
    def test_nesting_past_the_cap_is_a_syntax_error(self, tmp_path):
        depth = MAX_ELEMENT_DEPTH + 10
        path = _write(tmp_path, "deep.xml", "<a>" * depth + "</a>" * depth)
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert "nesting deeper" in failure.cause
        assert failure.position is not None

    def test_nesting_under_the_cap_parses(self):
        depth = MAX_ELEMENT_DEPTH - 6
        document = parse_document("<a>" * depth + "</a>" * depth)
        assert document.root.name == "a"

    def test_cap_fires_well_inside_the_recursion_limit(self):
        # The recursive-descent parser burns a couple of frames per
        # nesting level; the cap must trip long before CPython would.
        assert MAX_ELEMENT_DEPTH * 4 < sys.getrecursionlimit() * 2
        with pytest.raises(XmlSyntaxError):
            parse_document("<a>" * 100_000 + "</a>" * 100_000)


def _large(text):
    """``text`` padded after the root to take the mapped path."""
    return text + "\n" * MMAP_MIN_BYTES


class TestMmapPath:
    """The large-file mmap input path must change performance, never
    behavior: same trees, same failure modes, same counters.  Files of
    at least MMAP_MIN_BYTES take it, smaller ones a plain read."""

    def test_forced_mmap_equals_plain_read(self, tmp_path):
        body = "".join(f"<item n='{i}'>text {i}</item>" for i in range(200))
        text = f"<r>{body}</r>"
        large = _write(tmp_path, "large.xml", _large(text))
        small = _write(tmp_path, "small.xml", text)
        recorder = StatsRecorder()
        mapped = parse_file(large, recorder)
        assert recorder.snapshot()["counters"]["parse.mmap"] == 1
        plain = parse_file(small, recorder)
        assert recorder.snapshot()["counters"]["parse.mmap"] == 1
        assert _shape(mapped.root) == _shape(plain.root)
        assert _shape(plain.root) == _shape(parse_document(text).root)

    def test_mmap_counter_recorded(self, tmp_path):
        text = _large("<r><a/></r>")
        path = _write(tmp_path, "doc.xml", text)
        recorder = StatsRecorder()
        parse_file(path, recorder)
        counters = recorder.snapshot()["counters"]
        assert counters["parse.mmap"] == 1
        assert counters["parse.bytes"] == len(text)

    def test_small_files_skip_mmap_by_default(self, tmp_path):
        path = _write(tmp_path, "doc.xml", "<r/>")
        recorder = StatsRecorder()
        parse_file(path, recorder)
        assert "parse.mmap" not in recorder.snapshot()["counters"]

    def test_large_files_take_mmap_by_default(self, tmp_path):
        filler = "x" * MMAP_MIN_BYTES
        path = _write(tmp_path, "big.xml", f"<r>{filler}</r>")
        recorder = StatsRecorder()
        document = parse_file(path, recorder)
        assert document.root.text() == filler
        assert recorder.snapshot()["counters"]["parse.mmap"] == 1

    def test_empty_file_with_forced_mmap_falls_back(self, tmp_path, monkeypatch):
        # A large file the OS refuses to map takes the plain read and
        # parses the same; an empty file is the ordinary syntax error.
        text = "<r><a/></r>"
        path = _write(tmp_path, "doc.xml", _large(text))

        def refuse(*args, **kwargs):
            raise OSError("mmap refused")

        monkeypatch.setattr(mmap, "mmap", refuse)
        recorder = StatsRecorder()
        document = parse_file(path, recorder)
        assert _shape(document.root) == _shape(parse_document(text).root)
        assert "parse.mmap" not in recorder.snapshot()["counters"]
        with pytest.raises(XmlSyntaxError):
            parse_file(_write(tmp_path, "empty.xml", ""))

    def test_bad_utf8_on_mmap_path_is_quarantinable(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<r>" + b"\xff\xfe" * 100 + b"</r>" + b"\n" * MMAP_MIN_BYTES)
        with pytest.raises(UnicodeDecodeError) as decode:
            parse_file(str(path))
        # and through the quarantine primitive, the same cause
        failure = _skip(str(path))
        assert isinstance(failure, QuarantinedDocument)
        assert failure.cause == str(decode.value)


class TestEntityTricks:
    def test_billion_laughs_does_not_expand(self, tmp_path):
        text = (
            "<!DOCTYPE r [\n"
            '<!ENTITY lol "lol">\n'
            '<!ENTITY lol2 "' + "&lol;" * 10 + '">\n'
            '<!ENTITY lol3 "' + "&lol2;" * 10 + '">\n'
            "]>\n"
            "<r>&lol3;</r>"
        )
        path = _write(tmp_path, "laughs.xml", text)
        records = _skip(path)
        # Undeclared general entities stay verbatim (size-capped by
        # construction): the reference is data, not a macro expansion.
        assert isinstance(records, ElementRecords)

    def test_overflowing_character_reference_is_quarantinable(self, tmp_path):
        path = _write(tmp_path, "charref.xml", "<r>&#99999999999;</r>")
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert "character reference" in failure.cause

    def test_unterminated_entity_fails(self, tmp_path):
        path = _write(tmp_path, "entity.xml", "<r>&amp no semicolon</r>")
        failure = _skip(path)
        assert isinstance(failure, QuarantinedDocument)
        assert "entity" in failure.cause

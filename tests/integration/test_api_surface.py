"""The public API surface: façade exports, and nothing besides them.

Pins down what ``repro.api`` exports and which historical names the
package root keeps, and that no subpackage re-exports anything.  A new
name showing up in ``__all__``, or a removed entry point coming back,
should fail loudly here.
"""

import importlib
import pkgutil
import sys

import pytest

import repro
import repro.api
import repro.core
import repro.core.rewrite
from repro.xmlio.parser import parse_document

DOCS = [parse_document("<r><x/></r>"), parse_document("<r><x/><x/></r>")]

class TestApiSurface:
    def test_api_all_is_exactly_the_facade(self):
        assert repro.api.__all__ == [
            "AppendReceipt",
            "DiffConfig",
            "DiffResult",
            "DocumentValidation",
            "FaultPlan",
            "InferenceConfig",
            "InferenceResult",
            "InferenceSession",
            "METHODS",
            "ValidationConfig",
            "ValidationResult",
            "diff",
            "infer",
            "validate",
        ]

    def test_top_level_reexports(self):
        # The façade is importable from the package root ...
        assert repro.infer is repro.api.infer
        assert repro.validate is repro.api.validate
        assert repro.diff is repro.api.diff
        assert repro.InferenceConfig is repro.api.InferenceConfig
        assert repro.InferenceResult is repro.api.InferenceResult
        assert repro.InferenceSession is repro.api.InferenceSession
        # ... and the historical names still resolve.
        for name in (
            "DTDInferencer",
            "infer_sore",
            "infer_chare",
            "parse_document",
            "parse_file",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
        # Every root name is its defining module's object.
        for name in repro.__all__[:-1]:
            value = getattr(repro, name)
            assert getattr(sys.modules[value.__module__], value.__name__) is value, name

    def test_package_all_is_pinned(self):
        # The pre-façade per-pipeline entry points are gone: every
        # pipeline shape goes through repro.api.infer.
        assert repro.__all__ == [
            "DTDInferencer",
            "DiffConfig",
            "DiffResult",
            "Document",
            "Dtd",
            "InferenceConfig",
            "InferenceResult",
            "InferenceSession",
            "ValidationConfig",
            "ValidationResult",
            "diff",
            "infer",
            "IncrementalSOA",
            "Regex",
            "SOA",
            "idtd_from_soa",
            "infer_chare",
            "infer_sore",
            "is_chare",
            "is_deterministic",
            "is_sore",
            "language_equivalent",
            "language_included",
            "matches",
            "parse_document",
            "parse_dtd",
            "parse_file",
            "parse_regex",
            "rewrite",
            "tinf",
            "to_dtd_syntax",
            "to_paper_syntax",
            "validate",
            "__version__",
        ]

    @pytest.mark.parametrize(
        "package",
        [
            info.name
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg and info.name != "analysis"
        ],
    )
    def test_subpackages_reexport_nothing(self, package):
        # One import path per name: a subpackage binds its own
        # submodules and dunders, nothing else.
        module = importlib.import_module(f"repro.{package}")
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        bound = {name for name in vars(module) if not name.startswith("__")}
        assert bound <= submodules, sorted(bound - submodules)

    @pytest.mark.parametrize("name", ["crx", "idtd", "rewrite"])
    def test_core_submodules_are_not_shadowed(self, name):
        # The learners of the same names stay public at the package root.
        module = importlib.import_module(f"repro.core.{name}")
        assert getattr(repro.core, name) is module

    def test_dotted_patch_reaches_the_rewrite_module(self, monkeypatch):
        assert importlib.import_module("repro.core.rewrite") is repro.core.rewrite
        marker = object()
        monkeypatch.setattr("repro.core.rewrite.check_gfa", marker)
        assert vars(importlib.import_module("repro.core.rewrite"))["check_gfa"] is marker

    def test_the_engine_has_one_public_method(self):
        public = [name for name in dir(repro.DTDInferencer) if not name.startswith("_")]
        assert public == ["finalize"]


class TestShimsWarn:
    """Deprecation warnings: with the shims deleted, nothing warns."""

    def test_the_facade_itself_does_not_warn(self, recwarn):
        repro.api.infer(DOCS)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

"""The public API surface: façade exports, and nothing besides them.

Pins down what ``repro.api`` exports and which historical names the
package root keeps.  A new name showing up in ``__all__``, or a removed
entry point coming back, should fail loudly here.
"""

import repro
import repro.api
import repro.core
import repro.runtime
from repro.xmlio.parser import parse_document

DOCS = [parse_document("<r><x/></r>"), parse_document("<r><x/><x/></r>")]

class TestApiSurface:
    def test_api_all_is_exactly_the_facade(self):
        assert repro.api.__all__ == [
            "AppendReceipt",
            "DiffConfig",
            "DiffResult",
            "DocumentValidation",
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
            "IncrementalCRX",
            "IncrementalSOA",
            "Regex",
            "SOA",
            "annotate_numeric",
            "dtd_to_xsd",
            "idtd_denoised",
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
            "reservoir_sample",
            "rewrite",
            "state_elimination",
            "tinf",
            "to_dtd_syntax",
            "to_paper_syntax",
            "validate",
            "__version__",
        ]
        for package in (repro.core, repro.runtime):
            assert not [name for name in package.__all__ if name.startswith("infer")]

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

"""Backwards-compatible alias for :mod:`repro.learning.evidence`.

Evidence extraction used to live here; it moved into
:mod:`repro.learning` because it is learning-layer work (streaming
evidence spills into the incremental learner states).  Keeping an eager ``from ..learning import
…`` re-export would preserve the upward ``xmlio → learning`` import
this move eliminates, so the aliasing is lazy: attribute access loads
the real module on first use (import cost only, the objects returned
are the same ones :mod:`repro.learning.evidence` defines).

New code should import from :mod:`repro.learning.evidence` directly;
the repo's layer table (lint rule R010) places ``repro.xmlio`` below
``repro.learning``, and this shim is the only sanctioned crossing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..learning.evidence import (
        SAMPLE_CAP as SAMPLE_CAP,
        CorpusEvidence as CorpusEvidence,
        ElementEvidence as ElementEvidence,
        StreamingEvidence as StreamingEvidence,
        Word as Word,
        WordBag as WordBag,
        child_sequences as child_sequences,
        extract_evidence as extract_evidence,
        extract_streaming_evidence as extract_streaming_evidence,
    )

__all__ = [
    "SAMPLE_CAP",
    "CorpusEvidence",
    "ElementEvidence",
    "StreamingEvidence",
    "Word",
    "WordBag",
    "child_sequences",
    "extract_evidence",
    "extract_streaming_evidence",
]


def __getattr__(name: str) -> Any:
    """Delegate every lookup (public and private) to the real module."""
    from ..learning import evidence

    try:
        return getattr(evidence, name)
    except AttributeError:
        # lint: allow R002 — module __getattr__ must raise AttributeError
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None

"""Bounded word bags: streaming evidence is a function of the documents.

Streaming evidence counts each element's child words in a bag that
spills into learner states once it holds more than ``WORD_CAP``
distinct words.  Under a tiny cap, random corpora folded serially and
as random contiguous shard splits (some shards round-tripped through
the checkpoint codec) must dehydrate to the same bytes, whichever
elements spilled in which shard or only on merge, and every method's
DTD must equal the batch DTD.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InferenceConfig, infer
from repro.ckpt.codec import canonical_json, decode_state, encode_state
from repro.core.inference import METHODS, DTDInferencer
from repro.learning import evidence as evidence_module
from repro.learning.evidence import StreamingEvidence
from repro.xmlio.parser import parse_document

SETTINGS = settings(max_examples=80, deadline=None)

_children = st.lists(
    st.tuples(
        st.sampled_from(("a", "b", "c")),
        st.lists(st.sampled_from(("x", "y")), max_size=3),
    ),
    max_size=4,
)


@st.composite
def corpus_and_cuts(draw):
    corpus = draw(st.lists(_children, min_size=2, max_size=10))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=len(corpus) - 1)))
    return corpus, sorted(cuts)


def _literal(children):
    body = "".join(
        f"<{name}>{''.join(f'<{inner}/>' for inner in word)}</{name}>"
        for name, word in children
    )
    return f"<r>{body}</r>"


def _fold(documents):
    evidence = StreamingEvidence()
    for document in documents:
        evidence.add_document(parse_document(document))
    return evidence


def _payload(evidence):
    return canonical_json(evidence.dehydrate())


@SETTINGS
@given(
    case=corpus_and_cuts(),
    cap=st.integers(min_value=0, max_value=3),
    method=st.sampled_from(METHODS),
)
def test_sharded_bags_equal_serial_fold_and_batch(case, cap, method):
    corpus, cuts = case
    documents = [_literal(children) for children in corpus]
    with mock.patch.object(evidence_module, "WORD_CAP", cap):
        serial = _fold(documents)
        bounds = [0, *cuts, len(documents)]
        shards = [_fold(documents[start:end]) for start, end in zip(bounds, bounds[1:])]
        merged = shards[0]
        for index, shard in enumerate(shards[1:]):
            if index % 2:
                shard = decode_state(encode_state(shard))
            merged.merge(shard)
        assert _payload(merged) == _payload(serial)
        streamed = DTDInferencer(method=method).finalize(merged).render()
    batch = infer(documents, config=InferenceConfig(method=method, faults={}))
    assert streamed == batch.render()

"""Incremental inference over a stream of arriving XML data (Section 9).

When data trickles in over time, the schema should be maintainable
without re-reading old documents.  Both learners keep a small internal
representation — the SOA for iDTD, the sibling pre-order plus counters
for CRX — that new words fold into; the XML itself can be discarded.

Run:  python examples/incremental_stream.py
"""

import random

from repro import IncrementalSOA, to_paper_syntax
from repro.datagen.strings import sample_words
from repro.regex.parser import parse_regex

TRUE_SCHEMA = parse_regex("header (entry + comment)* footer?")
rng = random.Random(99)

learner = IncrementalSOA()
stream = sample_words(TRUE_SCHEMA, 400, rng)

print("streaming 400 words, re-deriving only when evidence changes:\n")
derivations = 0
for index, word in enumerate(stream, start=1):
    before = learner.soa.canonical_fingerprint()
    learner.add(word)
    if learner.soa.canonical_fingerprint() != before:
        derivations += 1
        current = learner.infer()
        print(
            f"  word {index:>3}  new evidence -> "
            f"{to_paper_syntax(current)}"
        )

print(f"\n{derivations} derivations for 400 arriving words.")
print("final schema:", to_paper_syntax(learner.infer()))
print(
    "retained state: "
    f"{len(learner.soa.symbols)} states, {len(learner.soa.edges)} edges "
    "(independent of how much data has streamed past)"
)

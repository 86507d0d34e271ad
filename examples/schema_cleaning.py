"""Schema cleaning: the paper's Protein Sequence Database scenario.

Section 1.1's motivating example: the published DTD declares

    refinfo: authors, citation, volume?, month?, year, pages?,
             (title | description)?, xrefs?

but analysing the actual corpus shows ``volume`` and ``month`` never
occur together — one cites *either* a journal volume *or* a conference
month.  Running the inference algorithms over the data reveals the
tighter content model and thereby the hidden semantics.

We regenerate a corpus with exactly the reported behaviour (the real
683 MB corpus is not redistributable) and run both learners on it.

Run:  python examples/schema_cleaning.py
"""

import random

from repro import infer_chare, infer_sore, language_included, parse_regex
from repro.datagen.corpora import REFINFO_ELEMENT_NAMES, table1_row
from repro.datagen.strings import padded_sample
from repro.regex.printer import to_paper_syntax


def with_real_names(text: str) -> str:
    for placeholder, real in sorted(
        REFINFO_ELEMENT_NAMES.items(), key=lambda kv: -len(kv[0])
    ):
        text = text.replace(placeholder, real)
    return text


row = table1_row("refinfo")
rng = random.Random(19)
corpus = padded_sample(row.generator(), row.sample_size * 10, rng)

print("published DTD:")
print("   ", with_real_names(row.original_dtd))

learned_crx = infer_chare(corpus)
learned_idtd = infer_sore(corpus)
print("\nlearned from the data:")
print("    CRX :", with_real_names(to_paper_syntax(learned_crx)))
print("    iDTD:", with_real_names(to_paper_syntax(learned_idtd)))

# The cleaning insight: the data never contains volume AND month.
both = parse_regex("a1 a2 a3 a4 a5")  # authors citation volume month year
print("\nschema-cleaning check:")
print(
    "    'volume month' together allowed by published DTD?",
    language_included(both, row.original()),
)
print(
    "    'volume month' together allowed by learned model?",
    language_included(both, learned_crx),
)
print(
    "\n=> the learned model exposes that volume and month are mutually\n"
    "   exclusive — a journal article has a volume, a conference paper\n"
    "   a month — which the published DTD fails to state."
)

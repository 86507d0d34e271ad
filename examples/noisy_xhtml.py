"""Noise: cleaning a crawl where 89% of documents are invalid.

Section 1.1 and Section 9: the paper examined 2092 XHTML documents and
found 89% invalid against the official DTD — with disallowed children
(``table``, ``h1`` ...) inside ``<p>`` elements, but only in a dozen of
30 000+ occurrences.  Two uses of inference:

1. derive a schema from the (noisy) data and *diff* it against the
   official one to get a uniform view of the errors;
2. derive a *denoised* schema via support thresholds to retain at
   least a minimal validation.

Run:  python examples/noisy_xhtml.py
"""

import random

from repro import infer_chare, to_paper_syntax
from repro.api import InferenceConfig, infer
from repro.datagen.noise import inject_intruders
from repro.datagen.strings import padded_sample
from repro.regex.parser import parse_regex

# The official content model of <p>: a big repeated disjunction of
# inline elements (the real one has 41; we use a dozen for readability).
INLINE = ["a", "em", "strong", "code", "span", "img", "br", "q",
          "sub", "sup", "small", "big"]
OFFICIAL = parse_regex("(" + " + ".join(INLINE) + ")*")

rng = random.Random(89)
clean_corpus = padded_sample(OFFICIAL, 3000, rng, repeat_continue=0.8)
crawl = inject_intruders(
    clean_corpus, intruders=["table", "h1", "div"], rate=12 / 3000, rng=rng
)
print(
    f"crawl: {len(crawl.words)} <p> occurrences, "
    f"{len(crawl.corrupted_indexes)} with disallowed children"
)

# 1. naive inference mirrors the noise ------------------------------------
naive = infer_chare(crawl.words)
intruders_kept = sorted(naive.alphabet() & {"table", "h1", "div"})
print("\nnaive CRX model keeps the intruders:", intruders_kept)
print("   ", to_paper_syntax(naive)[:100], "...")

# Diff the inferred schema against the official one — the paper's
# "uniform view of the kind of errors":
from repro.xmlio.diff import diff_dtds
from repro.xmlio.dtd import Children, Dtd

official_dtd = Dtd(elements={"p": Children(regex=OFFICIAL)}, start="p")
crawl_dtd = Dtd(elements={"p": Children(regex=naive)}, start="p")
for entry in diff_dtds(official_dtd, crawl_dtd):
    if entry.relation != "equal":
        print("    diff:", entry)

# 2. support-thresholded inference recovers the official model -------------
# Each word becomes one <p> document; names seen in fewer than 30 <p>
# occurrences are cut from the words before the iDTD learner runs.
documents = [
    "<p>" + "".join(f"<{name}/>" for name in word) + "</p>"
    for word in crawl.words
]
result = infer(documents, InferenceConfig(method="idtd", support_threshold=30))
denoised = result.dtd.elements["p"].regex
print("\ndenoised model (support threshold 30):")
print("   ", to_paper_syntax(denoised))
print(
    "    dropped element names:",
    sorted(naive.alphabet() - denoised.alphabet()),
)

from repro import language_equivalent

print(
    "    equals the official content model:",
    language_equivalent(denoised, OFFICIAL),
)

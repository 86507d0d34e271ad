"""Experiment E8 — the Section 9 extensions.

* incremental computation: updating the retained representation beats
  re-learning from scratch when new data arrives;
* noise: the XHTML paragraph scenario — a 41-symbol repeated
  disjunction with a dozen rare intruders — is cleaned by support
  thresholding;
* numerical predicates: +/* tightened to {m,n} bounds from the data;
* XSD generation with datatype sniffing.
"""

import random

from repro.core.crx import crx
from repro.core.numeric import annotate_numeric
from repro.datagen.noise import inject_intruders
from repro.datagen.strings import padded_sample, sample_words
from repro.evaluation.tables import Table
from repro.evaluation.timing import timed
from repro.learning.incremental import IncrementalCRX, IncrementalSOA
from repro.learning.noise import idtd_denoised
from repro.regex.language import language_equivalent
from repro.regex.parser import parse_regex
from repro.regex.printer import to_paper_syntax


def test_incremental_vs_batch(rng, scale, benchmark):
    """Updating the internal representation vs re-reading the corpus."""
    target = parse_regex("a1? a2 (a3 + a4 + a5)* a6+")
    corpus = padded_sample(target, scale.noise_words, rng)
    batch_of_new = sample_words(target, 50, rng)

    incremental = IncrementalSOA()
    incremental.add_all(corpus)
    incremental.infer()

    def update():
        changed = incremental.add_all(batch_of_new)
        return incremental.infer(), changed

    update_time = timed(update).seconds
    batch_time = timed(
        lambda: __import__("repro.core.idtd", fromlist=["idtd"]).idtd(
            corpus + batch_of_new
        )
    ).seconds
    table = Table(
        headers=("mode", "seconds"),
        title=f"E8a: incremental update vs batch re-learning "
        f"({len(corpus)}+{len(batch_of_new)} strings)",
    )
    table.add("incremental (cached SOA)", f"{update_time:.4f}")
    table.add("batch from scratch", f"{batch_time:.4f}")
    table.show()
    benchmark(update)
    assert update_time <= batch_time * 1.5  # typically far faster


def test_incremental_crx_change_detection(rng, benchmark):
    target = parse_regex("x (y + z)* w")
    corpus = padded_sample(target, 300, rng)
    incremental = IncrementalCRX()
    incremental.add_all(corpus)
    incremental.infer()
    repeats = sample_words(target, 100, rng)

    def drip():
        changes = 0
        for word in repeats:
            changes += incremental.add(word)
        return changes

    changes = benchmark(drip)
    print(f"\nE8b: {changes} of {len(repeats)} arriving words changed the CHARE")
    assert changes <= len(repeats) // 2  # most arrivals are old news


def test_noise_xhtml_paragraph_scenario(rng, scale, benchmark):
    """The paper's <p> case: 41-way repeated disjunction, rare intruders."""
    inline = [f"i{n}" for n in range(1, 42)]  # 41 inline elements
    target = parse_regex("(" + " + ".join(inline) + ")*")
    # longer paragraphs give the legitimate symbols solid support
    clean = padded_sample(
        target, scale.noise_words, rng, repeat_continue=0.85
    )
    # ~10 corrupted words in total (the paper: "around 10 strings" out
    # of 30 000+), spread over the three intruder names
    noisy = inject_intruders(
        clean, ["table", "h1", "h2"], rate=10 / len(clean), rng=rng
    )

    threshold = max(8, len(clean) // 25)
    naive = crx(noisy.words)
    denoised = benchmark(
        lambda: idtd_denoised(noisy.words, symbol_threshold=threshold)
    )
    table = Table(
        headers=("approach", "alphabet", "intruders kept", "target recovered"),
        title=f"E8c: noisy XHTML paragraphs "
        f"({len(noisy.corrupted_indexes)} of {len(noisy.words)} words corrupted)",
    )
    intruders = {"table", "h1", "h2"}
    table.add(
        "no noise handling (crx)",
        len(naive.alphabet()),
        len(naive.alphabet() & intruders),
        language_equivalent(naive, target),
    )
    table.add(
        "support threshold + iDTD",
        len(denoised.regex.alphabet()),
        len(denoised.regex.alphabet() & intruders),
        language_equivalent(denoised.regex, target),
    )
    table.show()
    assert not denoised.regex.alphabet() & intruders
    assert language_equivalent(denoised.regex, target)


def test_numeric_predicates(rng, benchmark):
    """Section 9's aabb+ -> a=2 b>=2, measured on generated data."""
    words = [tuple("aa") + tuple("b" * rng.randint(2, 9)) for _ in range(200)]
    base = parse_regex("a+ b+")
    annotated = benchmark(lambda: annotate_numeric(base, words))
    table = Table(
        headers=("stage", "expression"),
        title="E8d: numerical predicates (paper: a=2 b>=2)",
    )
    table.add("SORE from iDTD", to_paper_syntax(base))
    table.add("after numeric post-processing", to_paper_syntax(annotated))
    table.show()
    assert to_paper_syntax(annotated) == "a{2,2} b{2,}"


def test_xsd_generation(rng, benchmark):
    """DTD -> XSD with sniffed datatypes (the 85% structural case)."""
    from repro.api import infer
    from repro.datagen.xmlgen import XmlGenerator
    from repro.xmlio.dtd import parse_dtd
    from repro.xmlio.xsd import dtd_to_xsd

    source = parse_dtd(
        "<!ELEMENT log (entry+)><!ELEMENT entry (when, level, msg)>"
        "<!ELEMENT when (#PCDATA)><!ELEMENT level (#PCDATA)>"
        "<!ELEMENT msg (#PCDATA)>"
    )
    generator = XmlGenerator(
        source,
        rng,
        text_makers={
            "when": lambda r: f"2006-09-{r.randint(10, 28)}",
            "level": lambda r: r.choice(["info", "warn", "error"]),
        },
    )
    corpus = generator.corpus(50)
    result = infer(corpus)
    xsd = benchmark(
        lambda: dtd_to_xsd(result.dtd, text_types=result.report.text_types)
    )
    print("\nE8e: generated XSD header:")
    print("\n".join(xsd.splitlines()[:12]))
    assert 'type="xs:date"' in xsd
    assert 'type="xs:NMTOKEN"' in xsd

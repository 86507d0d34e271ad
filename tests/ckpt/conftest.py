"""Shared fixtures for the checkpoint/resume suite.

Every test here drives :mod:`repro.ckpt` over a small generated
corpus.  The corpus seed honours ``REPRO_TEST_SEED`` so the CI
flakiness guard can replay the module under several different corpora.
The ambient ``REPRO_FAULTS`` plan the CI resilience job exports stays
in force: checkpointed runs must recover from its worker crash without
changing a byte.  Tests that pin exact ``ckpt.*`` counters pass
``faults=None`` to opt out, and the kill/resume subprocesses strip it.
"""

from __future__ import annotations

import os
import random

from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.xmlio.dtd import parse_dtd

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

DTD_SOURCE = (
    "<!ELEMENT r (item+)><!ELEMENT item (name, price?, tag*)>"
    "<!ELEMENT name (#PCDATA)><!ELEMENT price (#PCDATA)>"
    "<!ELEMENT tag EMPTY>"
)


def write_corpus(directory, count, seed=None, dtd=DTD_SOURCE, prefix="doc"):
    """Generate ``count`` documents under ``directory``; returns paths."""
    generator = XmlGenerator(
        parse_dtd(dtd), random.Random(SEED + 11 if seed is None else seed)
    )
    paths = []
    for index, document in enumerate(generator.corpus(count)):
        path = directory / f"{prefix}{index:03d}.xml"
        path.write_text(serialize(document), encoding="utf-8")
        paths.append(str(path))
    return paths

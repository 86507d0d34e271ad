"""XSD generation with numerical predicates and datatype sniffing.

Section 9: 85% of real XSDs are structurally equivalent to DTDs, so an
inferred DTD converts to an XSD by "using the correct syntax"; on top
of that we tighten +/* into minOccurs/maxOccurs from the observed
occurrence counts and sniff built-in datatypes (dates, integers, ...)
from the text content.

Run:  python examples/xsd_generation.py
"""

import random

from repro.api import InferenceConfig, infer
from repro.datagen.xmlgen import XmlGenerator
from repro.xmlio.dtd import parse_dtd

SOURCE = parse_dtd(
    """
    <!ELEMENT season (team+)>
    <!ELEMENT team (name, founded, player, player, player+, coach)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT founded (#PCDATA)>
    <!ELEMENT player (#PCDATA)>
    <!ELEMENT coach (#PCDATA)>
    """
)

rng = random.Random(11)
generator = XmlGenerator(
    SOURCE,
    rng,
    text_makers={
        "founded": lambda r: str(r.randint(1890, 1995)),
        "player": lambda r: f"player-{r.randint(1, 999)}",
    },
    # squads have 11+ players: make repetitions long so the numerical
    # post-processing has something to find
    repeat_continue=0.93,
)
corpus = generator.corpus(60)

result = infer(corpus, config=InferenceConfig(method="idtd", numeric=True))

print("inferred DTD (with numerical predicates):")
print(result.render())

print("sniffed datatypes:", result.report.text_types)

print("\ngenerated XSD:")
print(result.to_xsd())

"""Sparse data: inferring a schema from a handful of web-service replies.

Section 1.2's first regime: XML arriving as answers to queries or
web-service requests is scarce — a learner must generalise rather than
memorise.  CRX is designed for exactly this; iDTD, aimed at abundant
data, stays closer to the sample.

We simulate a currency-quote service that has answered only five
requests so far, infer a DTD from those five replies, and show that it
already accepts a sixth, structurally new reply.

Run:  python examples/web_service_inference.py
"""

from repro import matches, parse_document, to_paper_syntax
from repro.api import InferenceConfig, infer
from repro.xmlio.dtd import Children
from repro.xmlio.validate import validate

REPLIES = [
    "<quote><base>EUR</base><rate>1.27</rate><rate>1.31</rate></quote>",
    "<quote><base>USD</base><rate>0.79</rate></quote>",
    "<quote><base>JPY</base><error>unavailable</error></quote>",
    "<quote><base>GBP</base><rate>1.48</rate><rate>1.47</rate>"
    "<rate>1.49</rate></quote>",
    "<quote><base>CHF</base><error>throttled</error></quote>",
]

documents = [parse_document(text) for text in REPLIES]

# method="crx" forces the sparse-regime learner (method="auto" would
# pick it here anyway, since the corpus is tiny).
dtd = infer(documents, config=InferenceConfig(method="crx")).dtd

print("DTD inferred from 5 replies:")
print(dtd.render())

quote_model = dtd.elements["quote"]
assert isinstance(quote_model, Children)
print("quote content model:", to_paper_syntax(quote_model.regex))

# A reply shape never seen before: an error AFTER successful rates
# (CRX generalised rate*/error? into a chain that admits it).
unseen = parse_document(
    "<quote><base>NOK</base><rate>0.15</rate><error>stale</error></quote>"
)
violations = validate(unseen, dtd)
print(
    "\nunseen reply with rates AND a trailing error:",
    "accepted" if not violations else f"rejected ({violations[0]})",
)

# Membership at the expression level, for the curious:
print(
    "child sequence (base, rate, error) in the learned model:",
    matches(quote_model.regex, ("base", "rate", "error")),
)

"""Seeded benchmark inputs, generated without the program under test.

Nothing here imports ``repro``: a change under ``src/`` can change how
the inputs are processed, never what they are.  The content models are
plain DTD-syntax strings (``&`` marks interleaving) and a small
random-word sampler draws child sequences from them.  The same seed
always gives the same bytes, in any process and under any
``PYTHONHASHSEED`` (``random.Random`` seeded from a string is stable).

The models are the paper's Table 1 (the corpus behaviour it reports)
and Table 2, plus one model whose symbol repeats and one interleaved
model, so every learner has something it is built for.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass


def _choice(first: int, last: int) -> str:
    return "(" + " | ".join(f"a{i}" for i in range(first, last + 1)) + ")"


#: ``(element, content model)`` over local symbols ``a1..an``.
MODELS: tuple[tuple[str, str], ...] = (
    ("ProteinEntry", "(a1, a2, a3, a4+, a5*, a6*, a7*, a8*, a9?, a10?, a11*, a12, a13)"),
    ("organism", "(a1, a2?, a3, a4?, a5*)"),
    ("reference", "(a1, a2*, a3*, a4*)"),
    ("refinfo", "(a1, a2, (a3 | a4)?, a5, a6?, a7?, a9?, a8?)"),
    ("authors", "(a1+ | (a2, a3))"),
    ("accinfo", "(a1, a2*, a3+, a4?, a5?, a6?, a7*)"),
    ("genetics", "(a1*, a2?, a3?, a4?, a5?, a6?, a7?, a8?, a9?, a10?, a12*)"),
    ("function", "(a1?, a2*, a3*)"),
    ("city", "(a1, a2*, a3*)"),
    ("example1", "(a1+ | (a2?, a3+))"),
    ("example2", f"((a1, a2?, a3?)?, a4?, {_choice(5, 18)}*)"),
    ("example3", f"(a1?, (a2, a3?)?, {_choice(4, 44)}*, a45+)"),
    ("example4", f"(a1?, a2, a3?, a4?, (a5+ | ({_choice(6, 61)}+, a5*)))"),
    ("example5", "(a1, (a2 | a3)*, (a4, (a2 | a3 | a5)*)*)"),
    ("repeated", "(a1, (a2 | a3)?, a1, a4*, a1?)"),
    ("interleaved", "(a1 & a2 & a3? & (a4, a5?))"),
)

#: Probability that a ``*``/``+`` repeats once more (mean 1 extra).
REPEAT = 0.5

#: Share of documents an edit replaces, as in an edited corpus.
EDIT_SHARE = 0.01

WORDS = (
    "alpha", "beta", "gamma", "delta", "kinase", "protein", "binding",
    "domain", "chain", "human", "mouse", "yeast", "membrane", "nuclear",
    "river", "city", "province", "country", "journal", "volume",
)

_TOKEN = re.compile(r"[A-Za-z_][\w.]*|[()|,&?*+]")

# A parsed model is a tuple: ("sym", name), ("seq"|"alt"|"inter", parts)
# or ("opt"|"star"|"plus", part).
Node = tuple


def parse_model(text: str, prefix: str = "") -> Node:
    """Parse a DTD-syntax content model, prefixing every symbol name."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise ValueError(f"unexpected characters in model {text!r}")
    position = 0

    def peek() -> str | None:
        return tokens[position] if position < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal position
        token = peek()
        if token is None or (expected is not None and token != expected):
            raise ValueError(f"model {text!r}: expected {expected!r} at {position}")
        position += 1
        return token

    def term() -> Node:
        token = take()
        if token == "(":
            node = expression()
            take(")")
        elif token in "()|,&?*+":
            raise ValueError(f"model {text!r}: unexpected {token!r}")
        else:
            node = ("sym", prefix + token)
        quantifier = peek()
        if quantifier in ("?", "*", "+"):
            take()
            node = ({"?": "opt", "*": "star", "+": "plus"}[quantifier], node)
        return node

    def expression() -> Node:
        parts = [term()]
        separator = peek()
        if separator not in ("|", ",", "&"):
            return parts[0]
        while peek() == separator:
            take()
            parts.append(term())
        kind = {"|": "alt", ",": "seq", "&": "inter"}[separator]
        return (kind, tuple(parts))

    node = expression()
    if peek() is not None:
        raise ValueError(f"model {text!r}: trailing {peek()!r}")
    return node


def render_model(node: Node) -> str:
    """A parsed model back in DTD syntax (the source DTD's notation)."""
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind in ("opt", "star", "plus"):
        inner = render_model(node[1])
        if node[1][0] != "sym" and not inner.startswith("("):
            inner = f"({inner})"
        return inner + {"opt": "?", "star": "*", "plus": "+"}[kind]
    separator = {"seq": ", ", "alt": " | ", "inter": " & "}[kind]
    return "(" + separator.join(render_model(part) for part in node[1]) + ")"


def symbols(node: Node) -> list[str]:
    """Every symbol of a parsed model, in first-mention order."""
    if node[0] == "sym":
        return [node[1]]
    parts = node[1] if node[0] in ("seq", "alt", "inter") else (node[1],)
    found: list[str] = []
    for part in parts:
        for name in symbols(part):
            if name not in found:
                found.append(name)
    return found


def sample_word(node: Node, rng: random.Random, out: list[str]) -> None:
    """Append one random word of ``node``'s language to ``out``."""
    kind = node[0]
    if kind == "sym":
        out.append(node[1])
    elif kind == "seq":
        for part in node[1]:
            sample_word(part, rng, out)
    elif kind == "alt":
        sample_word(rng.choice(node[1]), rng, out)
    elif kind == "inter":
        blocks: list[list[str]] = []
        for part in node[1]:
            block: list[str] = []
            sample_word(part, rng, block)
            blocks.append(block)
        rng.shuffle(blocks)
        for block in blocks:
            out.extend(block)
    elif kind == "opt":
        if rng.random() < 0.5:
            sample_word(node[1], rng, out)
    else:
        count = 1 if kind == "plus" else 0
        while rng.random() < REPEAT:
            count += 1
        for _ in range(count):
            sample_word(node[1], rng, out)


@dataclass(frozen=True)
class Schema:
    """A root element whose children are instances of named models."""

    root: str
    models: tuple[tuple[str, Node], ...]
    weights: tuple[float, ...]
    instances: tuple[int, int]  # inclusive range of model instances per document

    def dtd(self) -> str:
        """The source DTD every generated document is valid under."""
        names = " | ".join(name for name, _ in self.models)
        lines = [f"<!ELEMENT {self.root} ({names})+>"]
        for name, model in self.models:
            lines.append(f"<!ELEMENT {name} {render_model(model)}>")
            lines.append(f"<!ATTLIST {name} id NMTOKEN #REQUIRED>")
            for symbol in symbols(model):
                lines.append(f"<!ELEMENT {symbol} (#PCDATA)>")
        return "\n".join(lines) + "\n"

    def document(self, layout: random.Random, content: random.Random) -> bytes:
        """One document: ``layout`` picks the root's children, ``content``
        everything inside them."""
        parts = [f"<{self.root}>"]
        count = layout.randint(*self.instances)
        chosen: list[tuple[str, Node]] = []
        while len(chosen) < count:
            pick = layout.choices(self.models, self.weights)[0]
            if pick not in chosen:
                chosen.append(pick)
        for name, model in chosen:
            # Only ``repeated`` repeats below the root, always as a pair
            # of siblings.  Which root children repeat sets the work of
            # kore's k-descent; left to chance, one seed's corpus costs
            # several times another's.
            for _ in range(2 if name.endswith("repeated") else 1):
                parts.append(self._instance(name, model, content))
        parts.append(f"</{self.root}>\n")
        return "".join(parts).encode("utf-8")

    def _instance(self, name: str, model: Node, rng: random.Random) -> str:
        parts = [f'<{name} id="{rng.randint(1, 99999)}">']
        word: list[str] = []
        sample_word(model, rng, word)
        for symbol in word:
            parts.append(f"<{symbol}>{_text(symbol, rng)}</{symbol}>")
        parts.append(f"</{name}>")
        return "".join(parts)


def _text(symbol: str, rng: random.Random) -> str:
    # Every third symbol carries numbers, the rest words, so the
    # datatype sniffer sees both kinds of leaf.
    if int(symbol.rsplit("a", 1)[1]) % 3 == 0:
        return str(rng.randint(0, 100000))
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4)))


def schema(copies: int = 1, instances: tuple[int, int] = (3, 6)) -> Schema:
    """The models under root ``db``; ``copies`` > 1 repeats them under
    fresh names, copy ``c`` drawn with weight ``1/(c+1)``."""
    models: list[tuple[str, Node]] = []
    weights: list[float] = []
    for copy in range(copies):
        tag = f"c{copy}_" if copies > 1 else ""
        for name, text in MODELS:
            element = tag + name
            models.append((element, parse_model(text, prefix=f"{element}_")))
            weights.append(1.0 / (copy + 1))
    return Schema("db", tuple(models), tuple(weights), instances)


@dataclass(frozen=True)
class Corpus:
    """Generated documents, the DTD they obey, and a seeded edit set."""

    name: str
    seed: int
    documents: tuple[bytes, ...]
    dtd: str
    edits: tuple[tuple[int, bytes], ...]  # (document index, replacement)

    @property
    def size(self) -> int:
        return sum(len(document) for document in self.documents)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for document in self.documents:
            digest.update(len(document).to_bytes(8, "big"))
            digest.update(document)
        return digest.hexdigest()

    def describe(self) -> str:
        return (
            f"corpus {self.name} seed={self.seed}: {len(self.documents)} documents, "
            f"{self.size} bytes, sha256 {self.sha256()}"
        )

    def edited(self) -> list[bytes]:
        documents = list(self.documents)
        for index, replacement in self.edits:
            documents[index] = replacement
        return documents


def generate(name: str, seed: int, shape: Schema, documents: int) -> Corpus:
    """``documents`` documents of ``shape``, and 1% replacements.

    The seed draws all content: every model instance, text, attribute
    and which documents the edits replace.  The root's child layout
    comes from a stream fixed per corpus name, because iDTD's repair
    search on a wide root costs up to ±12% more or less from one random
    64-symbol graph to the next, which would bury a 10% regression.
    """
    layout = random.Random(f"{name}:layout")
    content = random.Random(f"{name}:{seed}")
    drawn = tuple(shape.document(layout, content) for _ in range(documents))
    edit_count = max(1, round(documents * EDIT_SHARE))
    indexes = sorted(content.sample(range(documents), edit_count))
    edits = tuple((index, shape.document(layout, content)) for index in indexes)
    return Corpus(name, seed, drawn, shape.dtd(), edits)


def write_documents(documents: list[bytes] | tuple[bytes, ...], directory: str) -> list[str]:
    """Write one file per document, in corpus order; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, document in enumerate(documents):
        path = os.path.join(directory, f"d{index:05d}.xml")
        with open(path, "wb") as handle:
            handle.write(document)
        paths.append(path)
    return paths


#: Documents per ``/infer`` body; body ``b`` is documents ``20b .. 20b+19``.
BODY_DOCUMENTS = 20

#: One block of the daemon's request mix, shuffled per block so every
#: ten requests hold exactly this mix (short runs see the same shares).
MIX = ("infer",) * 6 + ("append",) * 3 + ("validate",)

ZIPF_EXPONENT = 1.1


def serve_plan(
    seed: int, connection: int, bodies: int, documents: int, sessions: int = 2
) -> Iterator[tuple]:
    """One connection's endless request plan.

    ``("infer", body)`` draws a body by Zipf rank, so popular bodies
    repeat; ``("append", session, indexes)`` appends 1–3 documents to
    one of this connection's ``sessions``; ``("validate", indexes)``
    checks 5 documents.
    """
    rng = random.Random(f"plan:{seed}:{connection}")
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(bodies))
    )
    while True:
        block = list(MIX)
        rng.shuffle(block)
        for kind in block:
            if kind == "infer":
                yield ("infer", rng.choices(range(bodies), cum_weights=cumulative)[0])
            elif kind == "append":
                yield ("append", rng.randrange(sessions), rng.sample(range(documents), rng.randint(1, 3)))
            else:
                yield ("validate", rng.sample(range(documents), 5))

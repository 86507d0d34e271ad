"""Extraction of inference examples from XML documents.

DTD inference reduces to learning one regular expression per element
name from the child-name sequences occurring below it (Section 1.2).
This module walks parsed documents and produces exactly those samples,
plus the side information the extensions need (text content for
datatype sniffing, attribute usage for ATTLIST generation).

Evidence extraction lives in :mod:`repro.learning` (not
:mod:`repro.xmlio`) because a spilled element folds its words into the
incremental learner states, so this module sits in the layer that owns
those states.

One type, :class:`StreamingEvidence`, holds every corpus: one
:class:`ElementEvidence` per element name, which counts child words in
a :class:`WordBag` (distinct words with multiplicities); finalize
learns from the distinct words only.  The run's config picks the
bound, the same for every pipeline shape: each bag is capped at
:data:`WORD_CAP` distinct words, past which it spills into the
incremental learner states (:class:`LearnerStates`), so memory is
bounded by the *schema* size, not the corpus size; only options that
read the words (numerical predicates, support thresholds) keep every
bag whole (``bounded=False``, as :func:`extract_evidence` builds it).
:meth:`~StreamingEvidence.merge` combines evidence from disjoint
corpus shards associatively — the map-reduce property behind
:mod:`repro.runtime.parallel`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping
from typing import TypeVar

from ..core.crx import CrxState
from ..errors import CorpusError
from ..xmlio.tree import Document, ElementRecords
from .incremental import IncrementalSOA, _payload_int, _payload_strings
from .kore import IncrementalKore
from .sire import IncrementalSire

Word = tuple[str, ...]

#: Reservoir bound for text and per-attribute value samples.  Datatype
#: sniffing saturates long before this; the cap is what keeps that part
#: of the evidence constant-size in corpus length.
SAMPLE_CAP = 1000

#: Distinct child words one element's bounded bag may hold before it
#: spills into learner states.  Well above the per-element distinct
#: counts of realistic corpora (the benchmark's 2,000-document
#: ``medium`` corpus peaks at 1,966), so the cap only binds on corpora
#: whose word variety itself is unbounded.
WORD_CAP = 4096


class WordBag:
    """A multiset of words, stored deduplicated with multiplicities.

    Real corpora repeat the same child-name sequences massively (every
    ``<book>`` with one author produces the same word), so storing a
    ``Counter`` instead of a list makes evidence, whole or bounded,
    scale with the number of *distinct* sequences.  Multiplicities are preserved
    because CRX's quantifier inference needs them: iterating a bag
    yields each word once per occurrence, in first-seen order.
    """

    __slots__ = ("counts", "total", "nonempty_total")

    def __init__(self, words: Iterable[Word] = ()) -> None:
        self.counts: Counter[Word] = Counter()
        self.total = 0
        self.nonempty_total = 0
        for word in words:
            self.add(word)

    def add(self, word: Iterable[str], count: int = 1) -> None:
        if count <= 0:
            return
        word = tuple(word)
        self.counts[word] += count
        self.total += count
        if word:
            self.nonempty_total += count

    def distinct(self) -> Iterator[tuple[Word, int]]:
        """The ``(word, multiplicity)`` pairs, first-seen order."""
        return iter(self.counts.items())

    def distinct_words(self) -> list[Word]:
        return list(self.counts)

    def has_empty(self) -> bool:
        return self.counts.get((), 0) > 0

    def merge(self, other: "WordBag") -> None:
        for word, count in other.counts.items():
            self.add(word, count)

    def __iter__(self) -> Iterator[Word]:
        for word, count in self.counts.items():
            for _ in range(count):
                yield word

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WordBag):
            return self.counts == other.counts
        if isinstance(other, (list, tuple)):
            return self.counts == Counter(tuple(word) for word in other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"WordBag({dict(self.counts)!r})"


class LearnerStates:
    """The Section 9 learner states a spilled bag folds into.

    Only kore and sire fold words: erasing the occurrence marks of
    kore's SOA gives the plain 2T-INF SOA, and sire's embedded CRX
    state is CRX's, so ``soa`` and ``crx`` are derived from them.
    Every state is a union or multiset sum over words, so folding a
    word's ``count`` occurrences at once equals folding them one by one,
    and states built from disjoint shards merge into the states of the
    whole sample.
    """

    __slots__ = ("kore", "sire")

    def __init__(self) -> None:
        self.kore = IncrementalKore()
        self.sire = IncrementalSire()

    @property
    def soa(self) -> IncrementalSOA:
        return self.kore.unmarked()

    @property
    def crx(self) -> CrxState:
        return self.sire.crx

    def add_counted(self, word: Word, count: int) -> None:
        self.kore.add_counted(word, count)
        self.sire.add_counted(word, count)

    def merge(self, other: "LearnerStates") -> None:
        self.kore.merge(other.kore)
        self.sire.merge(other.sire)

    def dehydrate(self) -> dict[str, object]:
        return {"kore": self.kore.dehydrate(), "sire": self.sire.dehydrate()}

    @classmethod
    def hydrate(cls, payload: Mapping[str, object], name: str) -> "LearnerStates":
        """Rebuild the states from :meth:`dehydrate` output, both required."""

        def part(learner: str) -> Mapping[str, object]:
            value = payload.get(learner)
            if not isinstance(value, Mapping):
                raise CorpusError(
                    f"element evidence for {name!r} lacks its {learner} state"
                )
            return value

        states = cls()
        states.kore = IncrementalKore.hydrate(part("kore"))
        states.sire = IncrementalSire.hydrate(part("sire"))
        return states


_Learner = TypeVar(
    "_Learner", IncrementalSOA, CrxState, IncrementalKore, IncrementalSire
)


class ElementEvidence:
    """Everything observed about one element name across a corpus.

    Child words are counted in a :class:`WordBag`, so an occurrence costs
    one dictionary update and learners later run once per *distinct*
    word.  Batch evidence keeps the bag whole; bounded evidence spills a
    bag past :data:`WORD_CAP` distinct words into :class:`LearnerStates`
    (:meth:`spill`), after which the element is kept as states and the
    bag only buffers words between flushes.  Counters and the
    text/attribute reservoirs are the same either way.

    ``soa``/``crx``/``kore``/``sire`` are read-only views: fresh learner
    states over every word seen, never part of the dehydrated form.
    """

    __slots__ = (
        "name",
        "child_sequences",
        "spilled",
        "nonempty_count",
        "empty_count",
        "has_text",
        "text_values",
        "attribute_values",
        "attribute_presence",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_sequences = WordBag()
        self.spilled: LearnerStates | None = None
        self.nonempty_count = 0
        self.empty_count = 0
        self.has_text = False
        self.text_values: list[str] = []
        self.attribute_values: dict[str, list[str]] = {}
        self.attribute_presence: dict[str, int] = {}

    def spill(self) -> LearnerStates:
        """Fold the bag into the learner states (made on first spill)."""
        if self.spilled is None:
            self.spilled = LearnerStates()
        for word, count in self.child_sequences.distinct():
            self.spilled.add_counted(word, count)
        self.child_sequences = WordBag()
        return self.spilled

    def sample(self) -> WordBag | LearnerStates:
        """What finalize learns from: the bag, or the flushed states."""
        return self.child_sequences if self.spilled is None else self.spill()

    def _view(self, learner: str, view: _Learner) -> _Learner:
        if self.spilled is not None:
            view.merge(getattr(self.spilled, learner))
        for word, count in self.child_sequences.distinct():
            view.add_counted(word, count)
        return view

    @property
    def soa(self) -> IncrementalSOA:
        return self._view("soa", IncrementalSOA())

    @property
    def crx(self) -> CrxState:
        return self._view("crx", CrxState())

    @property
    def kore(self) -> IncrementalKore:
        return self._view("kore", IncrementalKore())

    @property
    def sire(self) -> IncrementalSire:
        return self._view("sire", IncrementalSire())

    @property
    def occurrences(self) -> int:
        return self.nonempty_count + self.empty_count

    @property
    def child_alphabet(self) -> set[str]:
        """All child names ever observed below this element."""
        alphabet = {name for word in self.child_sequences.counts for name in word}
        if self.spilled is not None:
            alphabet |= self.spilled.crx.alphabet
        return alphabet

    def observe(
        self, word: Word, chunks: list[str], attributes: Mapping[str, str]
    ) -> None:
        """Count one occurrence: its child word, text chunks and attributes."""
        if word:
            self.nonempty_count += 1
        else:
            self.empty_count += 1
        self.child_sequences.add(word)
        if chunks:
            # Some chunk has non-whitespace exactly when the joined text
            # does, so one strip serves both the flag and the sample.
            stripped = "".join(chunks).strip()
            if stripped:
                self.has_text = True
                if len(self.text_values) < SAMPLE_CAP:
                    self.text_values.append(stripped)
        for attribute, value in attributes.items():
            self.attribute_presence[attribute] = self.attribute_presence.get(attribute, 0) + 1
            samples = self.attribute_values.setdefault(attribute, [])
            if len(samples) < SAMPLE_CAP:
                samples.append(value)

    def merge(self, other: "ElementEvidence") -> None:
        """Fold evidence about the same element name from another shard.

        Bags add as multisets; spilled states merge, taking this bag
        along.  Reservoirs concatenate in shard order and re-truncate to
        :data:`SAMPLE_CAP`; with contiguous shards this reproduces the
        batch reservoirs exactly (the first ``SAMPLE_CAP`` values in
        document order).
        """
        self.child_sequences.merge(other.child_sequences)
        if other.spilled is not None:
            self.spill().merge(other.spilled)
        self.nonempty_count += other.nonempty_count
        self.empty_count += other.empty_count
        self.has_text = self.has_text or other.has_text
        if len(self.text_values) < SAMPLE_CAP:
            self.text_values.extend(other.text_values[: SAMPLE_CAP - len(self.text_values)])
        for attribute, count in other.attribute_presence.items():
            self.attribute_presence[attribute] = self.attribute_presence.get(attribute, 0) + count
        for attribute, values in other.attribute_values.items():
            samples = self.attribute_values.setdefault(attribute, [])
            if len(samples) < SAMPLE_CAP:
                samples.extend(values[: SAMPLE_CAP - len(samples)])

    def without(self, names: Collection[str]) -> "ElementEvidence":
        """A copy of unspilled evidence with ``names`` cut from every word.

        Occurrence counts follow the rewritten words; the text and
        attribute reservoirs are shared with this evidence, which stays
        untouched.
        """
        view = ElementEvidence(self.name)
        for word, count in self.child_sequences.distinct():
            view.child_sequences.add(
                [symbol for symbol in word if symbol not in names], count
            )
        view.nonempty_count = view.child_sequences.nonempty_total
        view.empty_count = view.child_sequences.total - view.nonempty_count
        view.has_text = self.has_text
        view.text_values = self.text_values
        view.attribute_values = self.attribute_values
        view.attribute_presence = self.attribute_presence
        return view

    def dehydrate(self) -> dict[str, object]:
        """Everything this evidence holds, as sorted JSON-ready values.

        The canonical form is the sorted bag, or — once spilled — the
        learner states with the bag flushed in, so the bytes depend on
        the documents folded, not on shard boundaries or flush timing.
        Reservoirs keep their order because it *is* part of the state
        (first-``SAMPLE_CAP``-in-document-order semantics).
        """
        payload: dict[str, object] = {
            "name": self.name,
            "nonempty_count": self.nonempty_count,
            "empty_count": self.empty_count,
            "has_text": self.has_text,
            "text_values": list(self.text_values),
            "attribute_values": {
                attribute: list(values)
                for attribute, values in sorted(self.attribute_values.items())
            },
            "attribute_presence": dict(sorted(self.attribute_presence.items())),
        }
        if self.spilled is None:
            payload["words"] = [
                [list(word), count]
                for word, count in sorted(self.child_sequences.counts.items())
            ]
        else:
            payload.update(self.spill().dehydrate())
        return payload

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "ElementEvidence":
        """Rebuild element evidence from :meth:`dehydrate` output."""
        name = payload.get("name")
        if not isinstance(name, str):
            raise CorpusError("element evidence payload lacks a name")
        evidence = cls(name)
        words = payload.get("words")
        if words is None:
            evidence.spilled = LearnerStates.hydrate(payload, name)
        elif isinstance(words, list):
            for entry in words:
                if not (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and isinstance(entry[0], list)
                    and all(isinstance(symbol, str) for symbol in entry[0])
                    and isinstance(entry[1], int)
                    and entry[1] > 0
                ):
                    raise CorpusError(
                        f"element evidence for {name!r} has a malformed word: {entry!r}"
                    )
                evidence.child_sequences.add(entry[0], entry[1])
        else:
            raise CorpusError(f"element evidence for {name!r} has malformed words")
        evidence.nonempty_count = _payload_int(payload, "nonempty_count")
        evidence.empty_count = _payload_int(payload, "empty_count")
        evidence.has_text = bool(payload.get("has_text", False))
        evidence.text_values = _payload_strings(payload, "text_values")
        raw_values = payload.get("attribute_values", {})
        raw_presence = payload.get("attribute_presence", {})
        if not isinstance(raw_values, Mapping) or not isinstance(
            raw_presence, Mapping
        ):
            raise CorpusError(
                f"element evidence for {name!r} has malformed attributes"
            )
        for attribute, values in raw_values.items():
            if not isinstance(attribute, str):
                raise CorpusError(f"attribute name is not a string: {attribute!r}")
            evidence.attribute_values[attribute] = _payload_strings(
                raw_values, attribute
            )
        for attribute, count in raw_presence.items():
            if not isinstance(attribute, str) or not isinstance(count, int):
                raise CorpusError(
                    f"attribute presence entry is malformed: {attribute!r}"
                )
            evidence.attribute_presence[attribute] = count
        return evidence


class StreamingEvidence:
    """Corpus evidence counted on the fly into per-element bags.

    A ``bounded`` evidence (the default, and every run that neither
    tightens numerical bounds nor thresholds support) keeps at most
    :data:`WORD_CAP` distinct child words per element before that
    element spills into learner states, whose size is
    bounded by the inferred schema's complexity (alphabet sizes, 2-gram
    sets, distinct CRX occurrence profiles); with the fixed reservoirs,
    memory is bounded by the schema — *not* by the number of documents
    or element occurrences, which is what Section 9 promises makes the
    learners incrementally updatable.  Whole-bag evidence
    (``bounded=False``) never spills, so finalize can always reread its
    words.  ``merge`` combines evidence from disjoint corpus shards
    associatively, enabling map-reduce inference, and :meth:`dehydrate`
    gives the same bytes however the corpus was sharded.
    """

    def __init__(self, *, bounded: bool = True) -> None:
        self.elements: dict[str, ElementEvidence] = {}
        self.root_counts: Counter[str] = Counter()
        self.document_count = 0
        self.bounded = bounded

    def evidence_for(self, name: str) -> ElementEvidence:
        if name not in self.elements:
            self.elements[name] = ElementEvidence(name)
        return self.elements[name]

    def _cap(self) -> int | None:
        # Read at fold time, so a patched WORD_CAP takes effect.
        return WORD_CAP if self.bounded else None

    def add_records(self, document: ElementRecords) -> None:
        """Fold one document's element records: the one fold body.

        Records come in pre-order, the order the text and attribute
        reservoirs keep their first :data:`SAMPLE_CAP` values in.
        """
        records = document.records
        self.document_count += 1
        self.root_counts[records[0][0]] += 1
        cap = self._cap()
        elements = self.elements
        for name, attributes, kids, chunks, _ in records:
            evidence = elements.get(name)
            if evidence is None:
                evidence = elements[name] = ElementEvidence(name)
            evidence.observe(tuple(kids), chunks, attributes)
            if cap is not None and len(evidence.child_sequences.counts) > cap:
                evidence.spill()

    def add_document(self, document: Document) -> None:
        """Fold an already-built tree, walked into the same records."""
        self.add_records(ElementRecords.of(document))

    def add_documents(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add_document(document)

    def merge(self, other: "StreamingEvidence") -> None:
        """Fold evidence from another (disjoint) corpus shard in place.

        A merged bag past this evidence's cap spills, exactly as folding
        the same documents serially would have made it spill.
        """
        cap = self._cap()
        for name, element in other.elements.items():
            evidence = self.evidence_for(name)
            evidence.merge(element)
            if cap is not None and len(evidence.child_sequences.counts) > cap:
                evidence.spill()
        self.root_counts.update(other.root_counts)
        self.document_count += other.document_count

    def majority_root(self) -> str | None:
        counts = self.root_counts
        if not counts:
            return None
        return max(sorted(counts), key=lambda name: counts[name])

    def dehydrate(self) -> dict[str, object]:
        """The whole evidence as one canonical JSON-ready document.

        Elements and root counts are emitted sorted by name, so two
        processes that folded the same documents produce byte-identical
        serializations regardless of ``PYTHONHASHSEED`` — the property
        :mod:`repro.ckpt` digests rely on.
        """
        return {
            "elements": [
                self.elements[name].dehydrate()
                for name in sorted(self.elements)
            ],
            "root_counts": [
                [name, count] for name, count in sorted(self.root_counts.items())
            ],
            "document_count": self.document_count,
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "StreamingEvidence":
        """Rebuild corpus evidence from :meth:`dehydrate` output."""
        evidence = cls()
        raw_elements = payload.get("elements", [])
        if not isinstance(raw_elements, list):
            raise CorpusError("evidence payload field 'elements' is not a list")
        for entry in raw_elements:
            if not isinstance(entry, Mapping):
                raise CorpusError(f"element evidence entry is malformed: {entry!r}")
            element = ElementEvidence.hydrate(entry)
            if element.name in evidence.elements:
                raise CorpusError(
                    f"element evidence repeats name {element.name!r}"
                )
            evidence.elements[element.name] = element
        raw_roots = payload.get("root_counts", [])
        if not isinstance(raw_roots, list):
            raise CorpusError("evidence payload field 'root_counts' is not a list")
        for entry in raw_roots:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int)
            ):
                raise CorpusError(f"root count entry is malformed: {entry!r}")
            evidence.root_counts[entry[0]] = entry[1]
        evidence.document_count = _payload_int(payload, "document_count")
        return evidence


def extract_evidence(documents: Iterable[Document]) -> StreamingEvidence:
    """Fold parsed documents into whole-bag evidence (``bounded=False``).

    The in-memory fold tests and benchmark probes compare against;
    :func:`repro.api.infer` builds its evidence in the shard runner.
    Documents may come from a lazy iterator and are dropped as soon as
    they are folded in.
    """
    evidence = StreamingEvidence(bounded=False)
    evidence.add_documents(documents)
    return evidence


def child_sequences(documents: Iterable[Document], element: str) -> list[Word]:
    """The child-name sequences below every ``element`` in the corpus."""
    sequences: list[Word] = []
    for document in documents:
        for node in document.iter():
            if node.name == element:
                sequences.append(node.child_names())
    return sequences

"""Evidence extraction from parsed corpora."""

from repro.learning import evidence as evidence_module
from repro.learning.evidence import (
    SAMPLE_CAP,
    StreamingEvidence,
    WordBag,
    child_sequences,
    extract_evidence,
)
from repro.xmlio.parser import parse_document


def docs(*texts):
    return [parse_document(text) for text in texts]


def streamed(documents):
    evidence = StreamingEvidence()
    evidence.add_documents(documents)
    return evidence


class TestChildSequences:
    def test_sequences_in_document_order(self):
        corpus = docs("<r><a/><b/><a/></r>", "<r><b/></r>")
        assert child_sequences(corpus, "r") == [("a", "b", "a"), ("b",)]

    def test_nested_occurrences_collected(self):
        corpus = docs("<r><a><r><b/></r></a></r>")
        assert child_sequences(corpus, "r") == [("a",), ("b",)]


class TestEvidence:
    def test_occurrences_and_sequences(self):
        corpus = docs("<r><a/><a/></r>", "<r/>")
        evidence = extract_evidence(corpus)
        assert evidence.elements["r"].occurrences == 2
        assert evidence.elements["r"].child_sequences == [("a", "a"), ()]
        assert evidence.elements["a"].occurrences == 2

    def test_text_detection(self):
        corpus = docs("<r><a>text</a><b>  </b></r>")
        evidence = extract_evidence(corpus)
        assert evidence.elements["a"].has_text
        assert not evidence.elements["b"].has_text  # whitespace only

    def test_attribute_statistics(self):
        corpus = docs('<r><a x="1"/><a x="2" y="z"/></r>')
        element = extract_evidence(corpus).elements["a"]
        assert element.attribute_presence == {"x": 2, "y": 1}
        assert element.attribute_values["x"] == ["1", "2"]

    def test_majority_root(self):
        corpus = docs("<r/>", "<r/>", "<other/>")
        assert extract_evidence(corpus).majority_root() == "r"

    def test_empty_corpus(self):
        evidence = extract_evidence([])
        assert evidence.majority_root() is None
        assert evidence.elements == {}

    def test_text_values_collected_for_sniffing(self):
        corpus = docs("<r><y>1999</y><y>2006</y></r>")
        assert extract_evidence(corpus).elements["y"].text_values == [
            "1999",
            "2006",
        ]

    def test_repeated_sequences_stored_deduplicated(self):
        corpus = docs(*["<r><a/><a/></r>"] * 500)
        bag = extract_evidence(corpus).elements["r"].child_sequences
        assert len(bag.counts) == 1  # one distinct word...
        assert bag.counts[("a", "a")] == 500  # ...with its multiplicity
        assert len(bag) == 500
        assert list(bag) == [("a", "a")] * 500

    def test_batch_bags_never_spill(self, monkeypatch):
        monkeypatch.setattr(evidence_module, "WORD_CAP", 1)
        corpus = docs("<r><a/></r>", "<r><b/></r>", "<r/>")
        assert extract_evidence(corpus).elements["r"].spilled is None
        assert streamed(corpus).elements["r"].spilled is not None

    def test_without_rewrites_a_copy(self):
        corpus = docs('<r a="1"><a/><b/></r>', "<r><b/></r>", "<r/>")
        element = extract_evidence(corpus).elements["r"]
        view = element.without({"b"})
        assert view.child_sequences == [("a",), (), ()]
        assert (view.nonempty_count, view.empty_count) == (1, 2)
        assert view.attribute_presence == {"a": 1}
        assert element.child_sequences == [("a", "b"), ("b",), ()]
        assert (element.nonempty_count, element.empty_count) == (2, 1)

    def test_merge_combines_shards(self):
        left = extract_evidence(docs("<r><a/></r>", "<r><a/><b/></r>"))
        right = extract_evidence(docs('<r x="1">t</r>', "<other/>"))
        left.merge(right)
        assert left.document_count == 4
        assert left.elements["r"].occurrences == 3
        assert left.elements["r"].child_sequences == [("a",), ("a", "b"), ()]
        assert left.elements["r"].has_text
        assert left.elements["r"].attribute_presence == {"x": 1}
        assert left.majority_root() == "r"


class TestWordBag:
    def test_counts_and_iteration_order(self):
        bag = WordBag([("a",), ("b",), ("a",)])
        assert len(bag) == 3
        assert bag.nonempty_total == 3
        assert list(bag) == [("a",), ("a",), ("b",)]  # grouped, first-seen

    def test_empty_word_tracking(self):
        bag = WordBag([(), ("a",)])
        assert bag.has_empty()
        assert bag.nonempty_total == 1
        assert WordBag([("a",)]).has_empty() is False

    def test_equality_with_lists_is_multiset(self):
        bag = WordBag([("a",), ("b",), ("a",)])
        assert bag == [("a",), ("b",), ("a",)]
        assert bag == [("b",), ("a",), ("a",)]
        assert bag != [("a",), ("b",)]

    def test_merge_sums_multiplicities(self):
        left, right = WordBag([("a",)]), WordBag([("a",), ("b",)])
        left.merge(right)
        assert left.counts == {("a",): 2, ("b",): 1}
        assert left.total == 3


class TestStreamingEvidence:
    def test_constant_size_in_occurrence_count(self):
        corpus = docs(*["<r><a/><a/></r>"] * 300)
        evidence = streamed(corpus)
        element = evidence.elements["r"]
        assert element.occurrences == 300
        assert element.nonempty_count == 300
        # no per-occurrence storage: one SOA edge, one CRX profile
        assert len(element.soa.soa.edges) == 1
        assert len(element.crx.profiles) == 1

    def test_counters_and_alphabet(self):
        corpus = docs("<r><a/><b/></r>", "<r/>", "<r>text</r>")
        element = streamed(corpus).elements["r"]
        assert element.nonempty_count == 1
        assert element.empty_count == 2
        assert element.has_text
        assert element.child_alphabet == {"a", "b"}

    def test_merge_matches_single_pass(self):
        texts = ["<r><a/></r>", "<r><a/><b/></r>", '<r x="1"/>', "<other/>"]
        whole = streamed(docs(*texts))
        left = streamed(docs(*texts[:2]))
        right = streamed(docs(*texts[2:]))
        left.merge(right)
        assert left.document_count == whole.document_count
        assert left.majority_root() == whole.majority_root()
        for name in whole.elements:
            one, two = left.elements[name], whole.elements[name]
            assert one.occurrences == two.occurrences
            assert one.soa.soa == two.soa.soa
            assert one.crx.profiles == two.crx.profiles
            assert one.attribute_presence == two.attribute_presence

    def test_reservoirs_capped(self):
        evidence = streamed(
            docs(*[f"<r><t>v{i}</t></r>" for i in range(SAMPLE_CAP + 5)])
        )
        assert len(evidence.elements["t"].text_values) == SAMPLE_CAP

"""The compiled, iterative validator against the recursive one it replaced.

``reference_validate`` is the validator as it stood before DTDs were
compiled: a recursive generator walk that checks each ``Children``
model with :func:`~repro.regex.language.matches` and rebuilds the
declared-attribute map for every element.  On hypothesis-generated DTDs
and trees the compiled walk must return the same ``Violation`` list,
order included, whether a :class:`CompiledDtd` is fresh or reused across
documents (its transition tables carry over), and ``api.validate`` must
truncate it the same way under ``max_violations``.  The same trees,
serialized and handed over as XML literals and as files, are checked
from the parser's element records with no tree linked, and must give
the same lists.  One matcher reused across many words must agree with
the derivative engine on every word, so a transition memoised under the
wrong state cannot hide.

The generated DTDs cover ``Children`` models with and without ``&`` and
with bounded repetition, ``EMPTY``, ``ANY`` and mixed content, names
left undeclared, empty and duplicate ATTLISTs, ``#REQUIRED`` attributes
and a start symbol the root may miss.  Text chunks include Unicode-only
whitespace, which ``str.strip`` treats as no text.
"""

from __future__ import annotations

import importlib
import os
import tempfile
from collections.abc import Iterator
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.datagen.xmlgen import serialize
from repro.regex.ast import Opt, Plus, Regex, Repeat, Star, Sym, concat, disj, inter
from repro.regex.derivatives import matches_by_derivatives
from repro.regex.language import Matcher, matches
from repro.xmlio.dtd import Any, AttributeDef, Children, Dtd, Empty, Mixed
from repro.xmlio.parser import scan_document, scan_file
from repro.xmlio.tree import Document, Element, ElementRecords
from repro.xmlio.validate import CompiledDtd, Violation, validate

#: The module, which ``repro.xmlio`` shadows with its ``validate`` function.
validate_module = importlib.import_module("repro.xmlio.validate")

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ("a", "b", "c", "d")
#: Element names a tree may use: the declarable ones plus one never declared.
TREE_NAMES = (*NAMES, "x")
ATTRIBUTES = ("id", "k", "m")
#: No-break space and em space are whitespace to ``str.strip``: no text.
TEXT_CHUNKS = ("", "\u00a0", "\u2003\n", " \n", "t", " t ")


# -- the oracle: the recursive walk as it stood before compilation ----------


def _iter_violations(element: Element, dtd: Dtd, path: str) -> Iterator[Violation]:
    model = dtd.elements.get(element.name)
    if model is None:
        yield Violation(
            path=path,
            element=element.name,
            kind="undeclared-element",
            detail=f"element {element.name!r} is not declared",
        )
    elif isinstance(model, Empty):
        if element.children or element.has_text():
            yield Violation(
                path=path,
                element=element.name,
                kind="bad-content",
                detail=f"element {element.name!r} is declared EMPTY",
            )
    elif isinstance(model, Mixed):
        allowed = set(model.names)
        for child in element.children:
            if child.name not in allowed:
                yield Violation(
                    path=path,
                    element=element.name,
                    kind="bad-content",
                    detail=(
                        f"child {child.name!r} not allowed in mixed content "
                        f"of {element.name!r}"
                    ),
                )
    elif isinstance(model, Children):
        if element.has_text():
            yield Violation(
                path=path,
                element=element.name,
                kind="unexpected-text",
                detail=(
                    f"element {element.name!r} has element content but "
                    "contains character data"
                ),
            )
        word = element.child_names()
        if not matches(model.regex, word):
            yield Violation(
                path=path,
                element=element.name,
                kind="bad-content",
                detail=(
                    f"children {' '.join(word) or '(none)'!s} do not match "
                    f"{model.render()}"
                ),
            )
    yield from _check_attributes(element, dtd, path)
    for index, child in enumerate(element.children):
        yield from _iter_violations(child, dtd, f"{path}/{child.name}[{index}]")


def _check_attributes(element: Element, dtd: Dtd, path: str) -> Iterator[Violation]:
    declared = {a.name: a for a in dtd.attributes.get(element.name, ())}
    for attribute in element.attributes:
        if dtd.attributes.get(element.name) is not None and attribute not in declared:
            yield Violation(
                path=path,
                element=element.name,
                kind="undeclared-attribute",
                detail=f"attribute {attribute!r} not declared on {element.name!r}",
            )
    for name, definition in declared.items():
        if definition.default == "#REQUIRED" and name not in element.attributes:
            yield Violation(
                path=path,
                element=element.name,
                kind="missing-attribute",
                detail=f"required attribute {name!r} missing on {element.name!r}",
            )


def reference_validate(document: Document, dtd: Dtd) -> list[Violation]:
    violations = list(_iter_violations(document.root, dtd, f"/{document.root.name}"))
    if dtd.start is not None and document.root.name != dtd.start:
        violations.insert(
            0,
            Violation(
                path=f"/{document.root.name}",
                element=document.root.name,
                kind="bad-root",
                detail=(f"root is {document.root.name!r}, DTD expects {dtd.start!r}"),
            ),
        )
    return violations


# -- strategies ---------------------------------------------------------------


def regexes(allow_inter: bool) -> st.SearchStrategy[Regex]:
    leaves = st.sampled_from(NAMES).map(Sym)

    def extend(inner: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        options = [
            st.lists(inner, min_size=2, max_size=3).map(lambda parts: concat(*parts)),
            st.lists(inner, min_size=2, max_size=3).map(lambda parts: disj(*parts)),
            inner.map(Opt),
            inner.map(Plus),
            inner.map(Star),
            st.tuples(inner, st.integers(0, 2), st.integers(0, 2)).map(
                lambda drawn: Repeat(drawn[0], drawn[1], drawn[1] + max(drawn[2], 1))
            ),
        ]
        if allow_inter:
            options.append(
                st.lists(inner, min_size=2, max_size=3).map(lambda parts: inter(*parts))
            )
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=5)


content_models = st.one_of(
    st.just(Empty()),
    st.just(Any()),
    st.lists(st.sampled_from(NAMES), unique=True, max_size=3).map(
        lambda names: Mixed(tuple(names))
    ),
    regexes(allow_inter=False).map(Children),
    regexes(allow_inter=True).map(Children),
)

attribute_lists = st.lists(
    st.builds(
        AttributeDef,
        name=st.sampled_from(ATTRIBUTES),
        attribute_type=st.just("CDATA"),
        default=st.sampled_from(["#REQUIRED", "#IMPLIED", '"v"']),
    ),
    max_size=4,
)


@st.composite
def dtds(draw: st.DrawFn) -> Dtd:
    declared = draw(st.lists(st.sampled_from(NAMES), unique=True, min_size=1))
    elements = {name: draw(content_models) for name in declared}
    # ATTLISTs may name undeclared elements, be empty (every attribute
    # is then undeclared) or repeat a name (first position, last
    # definition).
    attributed = draw(st.lists(st.sampled_from(TREE_NAMES), unique=True, max_size=3))
    attributes = {name: draw(attribute_lists) for name in attributed}
    start = draw(st.one_of(st.none(), st.sampled_from(TREE_NAMES)))
    return Dtd(elements=elements, attributes=attributes, start=start)


@st.composite
def elements(draw: st.DrawFn, depth: int = 0) -> Element:
    children = []
    if depth < 4:
        children = draw(st.lists(elements(depth + 1), max_size=4 if depth < 2 else 2))
    return Element(
        name=draw(st.sampled_from(TREE_NAMES)),
        attributes={
            name: "v"
            for name in draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, max_size=2))
        },
        children=children,
        text_chunks=draw(st.lists(st.sampled_from(TEXT_CHUNKS), max_size=2)),
    )


documents = st.lists(elements().map(Document), min_size=1, max_size=4)


# -- properties ---------------------------------------------------------------


@SETTINGS
@given(dtds(), documents)
def test_compiled_walk_equals_recursive_walk(dtd, documents):
    compiled = CompiledDtd(dtd)
    for document in documents:
        expected = reference_validate(document, dtd)
        assert validate(document, dtd) == expected
        # Reused across documents: transition tables built for earlier
        # documents must give the same verdicts on later ones.
        assert compiled.violations(document) == expected


@SETTINGS
@given(dtds(), documents, st.integers(min_value=0, max_value=3))
def test_api_validate_truncates_like_the_oracle(dtd, documents, cap):
    result = api.validate(documents, dtd, api.ValidationConfig(max_violations=cap))
    for document, verdict in zip(documents, result.documents, strict=True):
        expected = reference_validate(document, dtd)
        assert verdict.violation_count == len(expected)
        assert list(verdict.violations) == expected[:cap]


@SETTINGS
@given(dtds(), documents, st.integers(min_value=0, max_value=3), st.booleans())
def test_records_walk_on_serialized_input_equals_recursive_walk(dtd, documents, cap, indent):
    texts = [serialize(document, indent=indent) for document in documents]
    expected = [reference_validate(document, dtd) for document in documents]
    with tempfile.TemporaryDirectory() as folder:
        paths = []
        for index, text in enumerate(texts):
            paths.append(os.path.join(folder, f"doc{index}.xml"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(text)
        reused = CompiledDtd(dtd)
        for text, path, want in zip(texts, paths, expected, strict=True):
            assert CompiledDtd(dtd).violations(scan_document(text)) == want
            assert reused.violations(scan_document(text)) == want
            assert reused.violations(scan_file(path)) == want
        config = api.ValidationConfig(max_violations=cap)
        for source in (texts, paths):
            result = api.validate(source, dtd, config)
            for verdict, want in zip(result.documents, expected, strict=True):
                assert verdict.violation_count == len(want)
                assert list(verdict.violations) == want[:cap]


def test_api_validate_never_links_a_tree(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("validation linked a tree")

    monkeypatch.setattr(ElementRecords, "link", refuse)
    dtd = Dtd(elements={"r": Children(Star(Sym("a"))), "a": Empty()})
    path = tmp_path / "doc.xml"
    path.write_text("<r><a/><b/></r>", encoding="utf-8")
    result = api.validate(["<r><a/><a/></r>", "<r><a>t</a></r>", str(path)], dtd)
    assert [verdict.violation_count for verdict in result.documents] == [0, 1, 2]


def test_many_violations_pay_one_positions_pass(monkeypatch):
    calls = []
    positions = validate_module._sibling_positions

    def counted(records):
        calls.append(len(records))
        return positions(records)

    monkeypatch.setattr(validate_module, "_sibling_positions", counted)
    dtd = Dtd(elements={"r": Any()})
    text = "<r>" + "<x/>" * 5000 + "</r>"
    (verdict,) = api.validate(text, dtd).documents
    paths = [violation.path for violation in verdict.violations]
    assert paths == [f"/r/x[{index}]" for index in range(5000)]
    assert paths[-1] == "/r/x[4999]"
    assert {violation.kind for violation in verdict.violations} == {"undeclared-element"}
    assert calls == [5001]
    # A valid document never computes positions.
    calls.clear()
    assert api.validate("<r/>", dtd).valid
    assert calls == []


@SETTINGS
@given(regexes(allow_inter=True), st.randoms(use_true_random=False))
def test_reused_matcher_equals_derivatives(regex, rng):
    # Every word of length <= 4 over the expression's alphabet, in a
    # random order, through one matcher.
    alphabet = sorted(regex.alphabet())
    words = [word for length in range(5) for word in product(alphabet, repeat=length)]
    rng.shuffle(words)
    matcher = Matcher(regex)
    for word in words:
        expected = matches_by_derivatives(regex, word)
        assert matcher.accepts(word) == expected
        assert matches(regex, word) == expected

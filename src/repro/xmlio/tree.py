"""A minimal XML document model.

The inference pipeline needs exactly this much: element names, child
order, attributes and character data.  Elements are plain mutable
objects with helpers for traversal; there is deliberately no namespace
machinery (DTDs predate namespaces — prefixed names are treated as
opaque element names, which is also what the XML 1.0 + DTD spec does).

The parser's own output is flatter: :class:`ElementRecords`, one tuple
per element in document order.  Evidence extraction folds those
records and validation checks them, with no tree; for the callers
that want one, :meth:`ElementRecords.link` builds the :class:`Element`
tree, and :meth:`ElementRecords.of` walks a tree back into records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator


@dataclass(slots=True)
class Element:
    """An XML element: name, attributes, and ordered children.

    ``children`` holds sub-elements; ``text_chunks`` collects the
    character data found anywhere directly inside the element (enough
    for mixed-content detection and datatype sniffing, which do not
    care about the exact interleaving).
    """

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["Element"] = field(default_factory=list)
    text_chunks: list[str] = field(default_factory=list)

    def append(self, child: "Element") -> "Element":
        self.children.append(child)
        return child

    def child_names(self) -> tuple[str, ...]:
        """The ordered child-element names — one inference example."""
        return tuple(child.name for child in self.children)

    def text(self) -> str:
        """All character data directly inside this element, joined."""
        return "".join(self.text_chunks)

    def has_text(self) -> bool:
        return any(chunk.strip() for chunk in self.text_chunks)

    def iter(self) -> Iterator["Element"]:
        """This element and all descendants, document order.

        Iterative on purpose: a recursive generator pays one Python
        frame per tree level on *every* yield and caps usable document
        depth at the interpreter recursion limit — both matter when
        the streaming pipeline folds large corpora element by element.
        """
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.children))

    def find_all(self, name: str) -> list["Element"]:
        return [element for element in self.iter() if element.name == name]

    def __repr__(self) -> str:
        return (
            f"Element({self.name!r}, children={len(self.children)}, "
            f"attrs={len(self.attributes)})"
        )


@dataclass
class Document:
    """A parsed XML document: the root element plus DOCTYPE information."""

    root: Element
    doctype_name: str | None = None
    internal_subset: str | None = None

    def iter(self) -> Iterator[Element]:
        return self.root.iter()


#: One element as the parser records it: name, attributes, child-element
#: names, the text chunks directly inside it, and the index of its
#: parent's record (``-1`` for the root).
ElementRecord = tuple[str, dict[str, str], list[str], list[str], int]


class ElementRecords:
    """A document as element records in document order.

    Record ``i`` is the ``i``-th start tag of the document, so the list
    is the tree's pre-order and every parent precedes its children.
    """

    __slots__ = ("records", "doctype_name", "internal_subset")

    def __init__(
        self,
        records: list[ElementRecord],
        doctype_name: str | None = None,
        internal_subset: str | None = None,
    ) -> None:
        self.records = records
        self.doctype_name = doctype_name
        self.internal_subset = internal_subset

    @classmethod
    def of(cls, document: Document) -> "ElementRecords":
        """The records of an already-built tree (the parser's, or one
        made in code)."""
        records: list[ElementRecord] = []
        append = records.append
        stack = [(document.root, -1)]
        pop = stack.pop
        while stack:
            element, parent = pop()
            children = element.children
            index = len(records)
            append(
                (
                    element.name,
                    element.attributes,
                    [child.name for child in children],
                    element.text_chunks,
                    parent,
                )
            )
            if children:
                stack.extend([(child, index) for child in reversed(children)])
        return cls(records, document.doctype_name, document.internal_subset)

    def link(self) -> Document:
        """The :class:`Element` tree; it shares the records' attribute
        dicts and text-chunk lists."""
        elements: list[Element] = []
        append = elements.append
        for name, attributes, _, chunks, parent in self.records:
            element = Element(name, attributes, [], chunks)
            if parent >= 0:
                elements[parent].children.append(element)
            append(element)
        return Document(elements[0], self.doctype_name, self.internal_subset)

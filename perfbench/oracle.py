"""Independent correctness oracle built on :mod:`xml.etree.ElementTree`.

ElementTree parses with expat, not with the program's lexer, and answers
paths with its own small XPath subset, so agreement with it says something
about the program that the program cannot say about itself.  Answers are
compared as ``(name, string value)`` pairs in document order.

Only queries inside ElementTree's subset are checked here: a location path
of child/descendant steps with ``[@a]``, ``[@a='v']``, ``[tag]``,
``[tag='v']`` or ``[n]`` predicates, written from the root as ``/…`` or
``//…``.  Everything else the benchmark checks by a property of the method
(all of the paper's algorithms must return one answer) instead.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from typing import Iterable, List, Tuple

Answer = List[Tuple[str, str]]


class OracleDocument:
    """One document parsed by expat, wrapped so absolute paths work.

    ElementTree evaluates paths relative to an element; the document
    element is placed under a synthetic parent so ``/dblp/article`` maps to
    ``./dblp/article`` and ``//a`` also finds a document element named
    ``a``.
    """

    def __init__(self, text: str):
        self.root = ET.fromstring(text)
        self._wrapper = ET.Element("#document")
        self._wrapper.append(self.root)
        self._order = {id(element): index for index, element in enumerate(self._wrapper.iter())}

    def select(self, xpath: str) -> Answer:
        """Elements selected by ``xpath``, deduplicated, in document order."""
        return [(element.tag, string_value(element)) for element in self._elements(xpath)]

    def attribute_values(self, element_xpath: str, attribute: str) -> Answer:
        """``(attribute, value)`` of ``element_xpath/@attribute`` in document order."""
        return [
            (attribute, element.attrib[attribute])
            for element in self._elements(element_xpath)
            if attribute in element.attrib
        ]

    def _elements(self, xpath: str) -> list:
        found = self._wrapper.findall(translate(xpath))
        unique = {id(element): element for element in found}
        return sorted(unique.values(), key=lambda element: self._order[id(element)])

    def element_counts(self) -> Counter:
        return Counter(element.tag for element in self.root.iter())

    def attribute_counts(self) -> Counter:
        return Counter(name for element in self.root.iter() for name in element.attrib)

    def text(self) -> str:
        return string_value(self.root)


def translate(xpath: str) -> str:
    """An absolute XPath in ElementTree's subset → an ElementTree path."""
    if xpath.startswith("/"):
        return "." + xpath
    raise ValueError(f"oracle handles absolute paths only, got {xpath!r}")


def string_value(element) -> str:
    return "".join(element.itertext())


# ----------------------------------------------------------------------
# The program's side, reduced to the same shapes
# ----------------------------------------------------------------------
def program_answer(nodes: Iterable) -> Answer:
    """``(name, string value)`` of program nodes, in the order given."""
    return [(node.name, node.string_value()) for node in nodes]


def program_counts(document) -> tuple[Counter, Counter]:
    """Element and attribute counts per name of a program ``Document``."""
    from repro.xmlmodel import NodeType

    elements: Counter = Counter()
    attributes: Counter = Counter()
    for node in document.dom:
        if node.node_type is NodeType.ELEMENT:
            elements[node.name] += 1
        elif node.node_type is NodeType.ATTRIBUTE:
            attributes[node.name] += 1
    return elements, attributes


def check_document(document, oracle: OracleDocument) -> bool:
    """Per-label element and attribute counts and the document element's
    string value agree between a program document and the oracle."""
    elements, attributes = program_counts(document)
    return (
        elements == oracle.element_counts()
        and attributes == oracle.attribute_counts()
        and document.document_element.string_value() == oracle.text()
    )

"""A small XML reader/writer for text trees.

The paper's trees are exactly XML documents without attributes,
namespaces, processing instructions or mixed entity machinery: element
nodes carry ``Sigma``-labels and text nodes carry ``Text``-values.
This module converts between :class:`~repro.trees.tree.Tree` and that
XML subset so the examples can round-trip real-looking documents.

The parser is deliberately strict and self-contained (no ``xml.etree``
dependency — the point of the reproduction is to build the substrate):
it accepts elements, character data, ``&amp; &lt; &gt; &quot; &apos;``
entities, comments, and an optional XML declaration.  Attributes are
rejected, because the paper's data model has none.

Round-trip caveats inherent to XML: text values are stripped of
surrounding whitespace, and *adjacent* text siblings are not
representable (serialized they merge into one character-data run, so
they parse back as a single text node).
"""

from __future__ import annotations

from typing import List, Tuple

from .tree import Tree

__all__ = ["tree_to_xml", "xml_to_tree", "XmlSyntaxError"]


class XmlSyntaxError(ValueError):
    """Raised when the input is not in the supported XML subset;
    ``position`` is the character offset where parsing stopped."""

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(message)
        self.position = position


_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"), ("'", "&apos;")]
_UNESCAPES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _escape(value: str) -> str:
    for raw, escaped in _ESCAPES:
        value = value.replace(raw, escaped)
    return value


def tree_to_xml(t: Tree, indent: int = 2) -> str:
    """Serialize a text tree as an XML document.

    Text leaves become character data; element nodes become tags.
    With ``indent > 0`` the output is pretty-printed except that
    elements whose children include text are rendered inline, so
    whitespace never bleeds into text content.
    """
    if t.is_text:
        raise ValueError("the root of an XML document must be an element, not text")
    lines: List[str] = ['<?xml version="1.0"?>']
    _write(t, lines, 0, indent)
    return "\n".join(lines) + "\n"


def _write(t: Tree, lines: List[str], level: int, indent: int) -> None:
    pad = " " * (indent * level)
    if t.is_text:
        lines.append(pad + _escape(t.label))
        return
    if not t.children:
        lines.append("%s<%s/>" % (pad, t.label))
        return
    if any(c.is_text for c in t.children):
        # Mixed or text content: render the whole element inline.
        lines.append(pad + _inline(t))
        return
    lines.append("%s<%s>" % (pad, t.label))
    for child in t.children:
        _write(child, lines, level + 1, indent)
    lines.append("%s</%s>" % (pad, t.label))


def _inline(t: Tree) -> str:
    if t.is_text:
        return _escape(t.label)
    if not t.children:
        return "<%s/>" % t.label
    inner = "".join(_inline(c) for c in t.children)
    return "<%s>%s</%s>" % (t.label, inner, t.label)


class _XmlParser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError("%s at position %d" % (message, self.pos), self.pos)

    def skip_prolog(self) -> None:
        self.skip_ws()
        if self.source.startswith("<?", self.pos):
            end = self.source.find("?>", self.pos)
            if end < 0:
                raise self.error("unterminated XML declaration")
            self.pos = end + 2
        self.skip_misc()

    def skip_misc(self) -> None:
        while True:
            self.skip_ws()
            if self.source.startswith("<!--", self.pos):
                end = self.source.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            else:
                return

    def skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def parse_element(self) -> Tree:
        if not self.source.startswith("<", self.pos):
            raise self.error("expected '<'")
        self.pos += 1
        name = self.parse_name()
        self.skip_ws()
        if self.source.startswith("/>", self.pos):
            self.pos += 2
            return Tree(name)
        if not self.source.startswith(">", self.pos):
            raise self.error(
                "expected '>' after element name %r (attributes are not supported)" % name
            )
        self.pos += 1
        children = self.parse_content(name)
        return Tree(name, children)

    def parse_name(self) -> str:
        start = self.pos
        while self.pos < len(self.source) and (
            self.source[self.pos].isalnum() or self.source[self.pos] in "_-.:"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an element name")
        return self.source[start : self.pos]

    def parse_content(self, name: str) -> Tuple[Tree, ...]:
        children: List[Tree] = []
        buffer: List[str] = []

        def flush_text() -> None:
            data = _unescape("".join(buffer), self)
            buffer.clear()
            if data.strip():
                children.append(Tree(data.strip(), is_text=True))

        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated element %r" % name)
            if self.source.startswith("<!--", self.pos):
                flush_text()
                end = self.source.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.source.startswith("</", self.pos):
                flush_text()
                self.pos += 2
                closing = self.parse_name()
                if closing != name:
                    raise self.error("mismatched closing tag </%s> for <%s>" % (closing, name))
                self.skip_ws()
                if not self.source.startswith(">", self.pos):
                    raise self.error("expected '>' in closing tag")
                self.pos += 1
                return tuple(children)
            elif self.source.startswith("<", self.pos):
                flush_text()
                children.append(self.parse_element())
            else:
                buffer.append(self.source[self.pos])
                self.pos += 1


def _unescape(data: str, parser: _XmlParser) -> str:
    out: List[str] = []
    i = 0
    while i < len(data):
        ch = data[i]
        if ch == "&":
            end = data.find(";", i)
            if end < 0:
                raise parser.error("unterminated entity reference")
            name = data[i + 1 : end]
            if name not in _UNESCAPES:
                raise parser.error("unsupported entity &%s;" % name)
            out.append(_UNESCAPES[name])
            i = end + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def xml_to_tree(source: str) -> Tree:
    """Parse an XML document in the supported subset into a text tree."""
    parser = _XmlParser(source)
    parser.skip_prolog()
    root = parser.parse_element()
    parser.skip_misc()
    parser.skip_ws()
    if parser.pos != len(parser.source):
        raise parser.error("trailing content after document element")
    return root

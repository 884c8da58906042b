"""Parse XML text into the XF forest model.

The parser is a small, dependency-free hand-written parser for the
XML subset used by the paper and the XMark benchmark: elements, attributes,
character data, comments, processing instructions (skipped), CDATA sections,
and the five predefined entities.  It deliberately does not implement DTDs,
namespaces-aware validation, or external entities.

Parsed attributes become ``@name`` nodes holding a single text child, placed
*before* element-content children, matching Figures 1/4/5 of the paper.

A node's kind is read off its label (``<tag>``, ``@name``, anything else is
text), so character data that *reads as* a label — a whole text run or
attribute value such as ``&lt;b&gt;`` or ``@alice`` — cannot be represented
as text.  The parser refuses it (:class:`XMLParseError`, naming the offset)
instead of letting it turn into markup downstream.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xml.forest import (
    Forest,
    Node,
    attribute,
    element,
    is_text_label,
    text,
)

_ENTITY_MAP = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"

#: First characters of the labels that are not text (``xml.forest``).
_LABEL_STARTS = ("<", "@")

#: A character outside XML 1.0's ``Char`` production (§2.2): a C0
#: control other than tab, LF and CR, a lone surrogate, U+FFFE or U+FFFF.
_NOT_A_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

#: The digits of a character reference: ``#N`` or ``#xH``.
_CHAR_REFERENCE = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")


def _reads_as_label(value: str, start: int) -> XMLParseError:
    return XMLParseError(
        f"character data {value!r} reads as a node label and cannot be "
        f"represented as text", start)


def parse_document(source: str, strip_whitespace: bool = True) -> Node:
    """Parse XML text that must contain exactly one root element.

    Returns the root :class:`Node`.  Raises :class:`XMLParseError` when the
    text is malformed or contains more than one top-level element.
    """
    trees = parse_forest(source, strip_whitespace=strip_whitespace)
    roots = [tree for tree in trees if not tree.is_text() or tree.label.strip()]
    if len(roots) != 1:
        raise XMLParseError(
            f"document must contain exactly one root element, found {len(roots)}"
        )
    return roots[0]


def parse_forest(source: str, strip_whitespace: bool = True) -> Forest:
    """Parse XML text into an ordered forest (zero or more top-level trees).

    With ``strip_whitespace`` (the default) whitespace-only text nodes are
    dropped everywhere — the convention the paper's Figure 4 encoding uses
    for the XMark data.  Pass ``False`` to preserve all character data
    verbatim (whitespace-only text between top-level trees is still
    dropped: a forest boundary carries no content).
    """
    parser = _Parser(source, strip_whitespace=strip_whitespace)
    trees = parser.parse_content(top_level=True)
    parser.skip_misc()
    if not parser.at_end():
        raise XMLParseError("unexpected trailing content", parser.pos)
    return tuple(tree for tree in trees if not (tree.is_text() and not tree.label.strip()))


class _Parser:
    """XML parser over a source string (element nesting on an explicit
    stack, so document depth is not limited by the recursion limit)."""

    def __init__(self, source: str, strip_whitespace: bool = True):
        bad = _NOT_A_CHAR.search(source)
        if bad is not None:
            raise XMLParseError(
                f"character {bad.group()!r} is not allowed in XML",
                bad.start())
        # Line-end normalization (XML 1.0 §2.11): a raw CR LF or CR is
        # read as LF before anything else; a CR from ``&#13;`` survives.
        source = source.replace("\r\n", "\n").replace("\r", "\n")
        self.source = source
        self.pos = 0
        self.length = len(source)
        self.strip_whitespace = strip_whitespace

    # -- character-level helpers ------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        if self.pos >= self.length:
            return ""
        return self.source[self.pos]

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def skip_misc(self) -> None:
        """Skip comments, processing instructions, and whitespace."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                self._skip_until("-->")
            elif self.startswith("<?"):
                self._skip_until("?>")
            elif self.startswith("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_until(self, terminator: str) -> None:
        end = self.source.find(terminator, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated construct, expected {terminator!r}", self.pos)
        self.pos = end + len(terminator)

    def _skip_doctype(self) -> None:
        if self.startswith("<!DOCTYPE"):
            self.pos += len("<!DOCTYPE")
        depth = 0
        while self.pos < self.length:
            char = self.source[self.pos]
            self.pos += 1
            if char == "<":
                depth += 1
            elif char == ">":
                if depth == 0:
                    return
                depth -= 1
            elif char == "[":
                self._skip_until("]")
        raise XMLParseError("unterminated DOCTYPE", self.pos)

    # -- grammar ------------------------------------------------------------

    def parse_name(self) -> str:
        start = self.pos
        if self.at_end():
            raise XMLParseError("expected a name", self.pos)
        first = self.source[self.pos]
        if not (first.isalpha() or first in _NAME_START_EXTRA):
            raise XMLParseError(f"invalid name start character {first!r}", self.pos)
        self.pos += 1
        while self.pos < self.length:
            char = self.source[self.pos]
            if char.isalnum() or char in _NAME_EXTRA:
                self.pos += 1
            else:
                break
        return self.source[start:self.pos]

    def parse_content(self, top_level: bool = False) -> list[Node]:
        """Parse mixed content until an unmatched closing tag (or end of
        input).

        Iterative, so nesting depth is not bounded by the interpreter's
        recursion limit: ``enclosing`` holds one ``(tag, children so far)``
        entry per element that is open around the content being read.
        """
        nodes: list[Node] = []
        buffer: list[str] = []
        buffer_start = 0
        enclosing: list[tuple[str, list[Node]]] = []

        def flush_text() -> None:
            if buffer:
                value = "".join(buffer)
                buffer.clear()
                if self.strip_whitespace and not value.strip():
                    return
                if value.startswith(_LABEL_STARTS) and not is_text_label(value):
                    raise _reads_as_label(value, buffer_start)
                nodes.append(text(value))

        while self.pos < self.length:
            if self.startswith("</"):
                if not enclosing:
                    break
                flush_text()
                tag, siblings = enclosing.pop()
                self.pos += 2
                closing = self.parse_name()
                if closing != tag:
                    raise XMLParseError(
                        f"mismatched closing tag </{closing}>, expected </{tag}>", self.pos
                    )
                self.skip_whitespace()
                self.expect(">")
                siblings.append(element(tag, nodes))
                nodes = siblings
            elif self.startswith("<!--"):
                self._skip_until("-->")
            elif self.startswith("<![CDATA["):
                buffer_start = self.pos if not buffer else buffer_start
                self.pos += len("<![CDATA[")
                end = self.source.find("]]>", self.pos)
                if end < 0:
                    raise XMLParseError("unterminated CDATA section", self.pos)
                buffer.append(self.source[self.pos:end])
                self.pos = end + 3
            elif self.startswith("<?"):
                self._skip_until("?>")
            elif self.startswith("<!DOCTYPE"):
                if enclosing or not top_level:
                    raise XMLParseError("DOCTYPE inside element content", self.pos)
                self._skip_doctype()
            elif self.peek() == "<":
                flush_text()
                self.pos += 1
                tag = self.parse_name()
                attributes = self.parse_attributes()
                self.skip_whitespace()
                if self.startswith("/>"):
                    self.pos += 2
                    nodes.append(element(tag, attributes))
                else:
                    self.expect(">")
                    # The element's children collect behind its
                    # attributes until its closing tag arrives.
                    enclosing.append((tag, nodes))
                    nodes = attributes
            else:
                buffer_start = self.pos if not buffer else buffer_start
                buffer.append(self.parse_character_data())
        if enclosing:
            self.expect("</")
        flush_text()
        return nodes

    def parse_character_data(self) -> str:
        parts: list[str] = []
        while self.pos < self.length:
            char = self.source[self.pos]
            if char == "<":
                break
            if char == "&":
                parts.append(self.parse_entity())
            else:
                parts.append(char)
                self.pos += 1
        return "".join(parts)

    def parse_entity(self) -> str:
        self.expect("&")
        end = self.source.find(";", self.pos)
        if end < 0 or end - self.pos > 10:
            raise XMLParseError("unterminated entity reference", self.pos)
        name = self.source[self.pos:end]
        self.pos = end + 1
        if name.startswith("#"):
            # Only a character of the Char production may be referenced.
            number = _CHAR_REFERENCE.fullmatch(name)
            if number is not None:
                hexadecimal, decimal = number.groups()
                code = int(hexadecimal, 16) if hexadecimal else int(decimal)
                if code <= 0x10FFFF and not _NOT_A_CHAR.match(chr(code)):
                    return chr(code)
            raise XMLParseError(f"invalid character reference &{name};",
                                self.pos)
        if name in _ENTITY_MAP:
            return _ENTITY_MAP[name]
        raise XMLParseError(f"unknown entity &{name};", self.pos)

    def parse_attributes(self) -> list[Node]:
        attributes: list[Node] = []
        seen: set[str] = set()
        while True:
            self.skip_whitespace()
            char = self.peek()
            if char in (">", "/") or self.at_end():
                return attributes
            name = self.parse_name()
            if name in seen:
                raise XMLParseError(f"duplicate attribute {name!r}", self.pos)
            seen.add(name)
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            start = self.pos
            value = self.parse_attribute_value()
            if value.startswith(_LABEL_STARTS) and not is_text_label(value):
                raise _reads_as_label(value, start)
            attributes.append(attribute(name, value))

    def parse_attribute_value(self) -> str:
        """A quoted attribute value, with whitespace normalization.

        Raw literal tab/newline become spaces (XML 1.0 §3.3.3
        attribute-value normalization for CDATA attributes, after line
        ends were normalized, so a raw CR LF is one space); characters
        produced by references — ``&#9;``, ``&#10;``, ``&#13;`` or any
        entity — are preserved verbatim.  The serializer emits those
        references for exactly this reason.
        """
        quote = self.peek()
        if quote not in ("'", '"'):
            raise XMLParseError("attribute value must be quoted", self.pos)
        self.pos += 1
        parts: list[str] = []
        while self.pos < self.length:
            char = self.source[self.pos]
            if char == quote:
                self.pos += 1
                return "".join(parts)
            if char == "&":
                parts.append(self.parse_entity())
            elif char in "\t\n":
                parts.append(" ")
                self.pos += 1
            else:
                parts.append(char)
                self.pos += 1
        raise XMLParseError("unterminated attribute value", self.pos)

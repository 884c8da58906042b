"""Read XML text: one tokeniser, two views of what it reads.

Example 3.2 numbers a forest by one depth-first walk, ``l`` on entry and
``r`` on exit, and those events *are* the start and end tags of the
text.  So the reader never needs a tree: one compiled master regex
(:data:`_TOKEN`) splits the text into character data, tags, references,
CDATA sections, comments and processing instructions, and a loop over
its tokens keeps only what the encoding needs — each node's label and
depth, in document order (:func:`read_preorder`).  From that stream

* :func:`read_document` builds the wrapped read-only snapshot a session
  binds, ``(IntervalColumns, width)``, the ``<#document>`` row first
  (:meth:`~repro.engine.columns.IntervalColumns.from_preorder`: the
  endpoints are arithmetic on the row numbers and depths);
* :func:`parse_forest` builds the :class:`Node` trees
  (:func:`~repro.xml.forest.build_trees`), for callers that want them.

The grammar is the XML subset the paper and XMark use: elements,
attributes, character data, comments and processing instructions
(skipped), CDATA sections, character references and the five predefined
entities.  A ``<!DOCTYPE …>`` before the content is skipped, not read:
no entity it declares is expanded and no attribute default applied.
Namespaces, validation and external entities are not implemented.  An
:class:`XMLParseError` names the character offset of the problem in the
text after line-end normalization.

Parsed attributes become ``@name`` nodes holding a single text child, placed
*before* element-content children, matching Figures 1/4/5 of the paper.

A node's kind is read off its label (``<tag>``, ``@name``, anything else is
text), so character data that *reads as* a label — a whole text run or
attribute value such as ``&lt;b&gt;`` or ``@alice`` — cannot be represented
as text.  The reader refuses it (:class:`XMLParseError`, naming the offset)
instead of letting it turn into markup downstream.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NoReturn

from repro.errors import XMLParseError
from repro.xml.forest import Forest, Node, build_trees
from repro.xml.labels import DOCUMENT_LABEL, TEXT, label_kind

if TYPE_CHECKING:  # pragma: no cover - engine.columns imports xml
    from repro.engine.columns import IntervalColumns

_ENTITY_MAP = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: First characters of the labels that are not text (``xml.forest``).
_LABEL_STARTS = ("<", "@")

#: A character outside XML 1.0's ``Char`` production (§2.2): a C0
#: control other than tab, LF and CR, a lone surrogate, U+FFFE or U+FFFF.
_NOT_A_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

#: The digits of a character reference: ``#N`` or ``#xH``.
_CHAR_REFERENCE = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")

#: A name: letters, digits and ``_:.-``.  Its first character must also
#: be a letter, ``_`` or ``:`` — checked once per distinct name.
_NAME = r"[\w:][\w:.\-]*"
_SPACE = "[ \t\n]*"
_ATTRIBUTE = re.compile(
    f"{_SPACE}({_NAME}){_SPACE}={_SPACE}(?:\"([^\"]*)\"|'([^']*)')")

#: One token per alternative, each an outer group, so ``lastindex`` says
#: which matched; the groups inside are named.  A tag name is never
#: followed by another name character, so no shorter prefix of it is
#: tried (``<abc="1">`` is tag ``abc``, not tag ``ab`` with attribute
#: ``c``); every other name is followed by ``=``, ``>`` or a space.
_TOKEN = re.compile(
    r"(?P<text>[^<&]+)"
    rf"|(?P<open><(?P<tag>{_NAME})(?![\w:.\-])"
    rf"(?P<attributes>(?:{_SPACE}{_NAME}{_SPACE}={_SPACE}"
    rf"(?:\"[^\"]*\"|'[^']*'))*){_SPACE}(?P<slash>/?)>)"
    rf"|(?P<close></(?P<closing>{_NAME}){_SPACE}>)"
    r"|(?P<reference>&(?P<entity>[^;]{0,10});)"
    r"|(?P<cdata><!\[CDATA\[(?P<section>.*?)\]\]>)"
    r"|(?P<skip><!--(?:>|->|.*?-->)|<\?(?:>|.*?\?>))"
    r"|(?P<doctype><!DOCTYPE)",
    re.S)
(_TEXT, _OPEN, _TAG, _ATTRIBUTES, _SLASH, _CLOSE, _CLOSING, _REFERENCE,
 _ENTITY_NAME, _CDATA, _SECTION, _DOCTYPE) = map(_TOKEN.groupindex.get, (
     "text", "open", "tag", "attributes", "slash", "close", "closing",
     "reference", "entity", "cdata", "section", "doctype"))

_NAME_TOKEN = re.compile(_NAME)
_ENTITY = re.compile(r"&([^;]{0,10});")
_DOCTYPE_MARK = re.compile(r"[<>\[]")
_SPACES = str.maketrans("\t\n", "  ")


def read_document(source: str, strip_whitespace: bool = True,
                  ) -> "tuple[IntervalColumns, int]":
    """The wrapped read-only snapshot of XML text: the columns of
    ``document_forest(parse_forest(source))``, read straight from the
    text (no :class:`Node` is built), and their width."""
    from repro.engine.columns import IntervalColumns

    columns, width = IntervalColumns.from_preorder(
        *read_preorder(source, strip_whitespace, document=True))
    return columns.read_only(), width


def parse_forest(source: str, strip_whitespace: bool = True) -> Forest:
    """Parse XML text into an ordered forest (zero or more top-level trees).

    With ``strip_whitespace`` (the default) whitespace-only text nodes are
    dropped everywhere — the convention the paper's Figure 4 encoding uses
    for the XMark data.  Pass ``False`` to preserve all character data
    verbatim (whitespace-only text between top-level trees is still
    dropped: a forest boundary carries no content).
    """
    return build_trees(*read_preorder(source, strip_whitespace))


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


def read_preorder(source: str, strip_whitespace: bool = True, *,
                  document: bool = False) -> tuple[list[str], list[int]]:
    """The labels and depths of the forest XML text denotes, in document
    order (the :func:`~repro.xml.forest.preorder` of
    :func:`parse_forest`'s trees).  ``document=True`` puts the
    ``<#document>`` row first, every other row one level below it."""
    bad = _NOT_A_CHAR.search(source)
    if bad is not None:
        raise XMLParseError(
            f"character {bad.group()!r} is not allowed in XML", bad.start())
    if "\r" in source:
        # Line-end normalization (XML 1.0 §2.11): a raw CR LF or CR is
        # read as LF before anything else; a CR from ``&#13;`` survives.
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    labels: list[str] = [DOCUMENT_LABEL] if document else []
    depths: list[int] = [0] if document else []
    add_label, add_depth = labels.append, depths.append
    #: Tag names of the elements open around the current position, and
    #: the depth of a row read there.
    open_tags: list[str] = []
    depth = top = len(depths)
    #: Character data since the last tag, and where it began.
    pieces: list[str] = []
    pieces_at = 0
    #: Tag name → element label, for names whose first character passed.
    element_labels: dict[str, str] = {}

    def flush(depth: int) -> None:
        value = pieces[0] if len(pieces) == 1 else "".join(pieces)
        pieces.clear()
        if (value.isspace() or not value) and (strip_whitespace
                                               or depth == top):
            return
        if value.startswith(_LABEL_STARTS) and label_kind(value) != TEXT:
            raise _reads_as_label(value, pieces_at)
        add_label(value)
        add_depth(depth)

    pos, end = 0, len(source)
    while pos < end:
        for token in _TOKEN.finditer(source, pos):
            if token.start() != pos:  # text no token accepts
                _fail(source, pos, open_tags, flush if pieces else None,
                      depth)
            kind = token.lastindex
            if kind == _OPEN:
                if pieces:
                    flush(depth)
                tag, attributes, slash = token.group(_TAG, _ATTRIBUTES,
                                                     _SLASH)
                label = element_labels.get(tag)
                if label is None:
                    if not _starts_name(tag[0]):
                        _fail(source, pos, open_tags, None, depth)
                    label = element_labels[tag] = f"<{tag}>"
                add_label(label)
                add_depth(depth)
                if attributes:
                    _attributes(source, *token.span(_ATTRIBUTES), depth + 1,
                                labels, depths)
                if not slash:
                    open_tags.append(tag)
                    depth += 1
            elif kind == _CLOSE:
                if pieces:
                    flush(depth)
                if not open_tags or open_tags[-1] != token.group(_CLOSING):
                    _fail(source, pos, open_tags, None, depth)
                open_tags.pop()
                depth -= 1
            elif kind == _TEXT:
                if not pieces:
                    pieces_at = pos
                pieces.append(token.group())
            elif kind == _REFERENCE:
                if not pieces:
                    pieces_at = pos
                pieces.append(_dereference(token.group(_ENTITY_NAME),
                                           token.end()))
            elif kind == _CDATA:
                if not pieces:
                    pieces_at = pos
                pieces.append(token.group(_SECTION))
            elif kind == _DOCTYPE:
                if open_tags:
                    raise XMLParseError("DOCTYPE inside element content", pos)
                pos = _doctype_end(source, pos)
                break  # and scan on from past it
            # A comment or processing instruction is skipped; character
            # data on both sides of it is one text node.
            pos = token.end()
        else:
            if pos < end:
                _fail(source, pos, open_tags, flush if pieces else None,
                      depth)
    if open_tags:
        raise XMLParseError("expected '</'", end)
    if pieces:
        flush(depth)
    return labels, depths


# -- the pieces of a tag -----------------------------------------------------


def _starts_name(char: str) -> bool:
    return char.isalpha() or char in "_:"


def _reads_as_label(value: str, start: int) -> XMLParseError:
    return XMLParseError(
        f"character data {value!r} reads as a node label and cannot be "
        f"represented as text", start)


def _attributes(source: str, at: int, stop: int, depth: int,
                labels: list[str], depths: list[int]) -> None:
    """Append the ``@name`` / value rows of the attributes in
    ``source[at:stop]`` (a run the master regex matched)."""
    seen: set[str] = set()
    while at < stop:
        token = _ATTRIBUTE.match(source, at)
        name, value = _attribute(source, token, seen)
        labels += (f"@{name}", value)
        depths += (depth, depth + 1)
        at = token.end()


def _attribute(source: str, token: re.Match, seen: set[str],
               ) -> tuple[str, str]:
    """The name and value of one matched attribute, checked.

    Raw tab and newline in the value become spaces (XML 1.0 §3.3.3
    attribute-value normalization for CDATA attributes, after line ends
    were normalized, so a raw CR LF is one space); characters produced
    by references — ``&#9;``, ``&#10;``, ``&#13;`` or any entity — are
    kept verbatim.  The serializer emits those references for exactly
    this reason.
    """
    name = token.group(1)
    if not _starts_name(name[0]):
        raise XMLParseError(f"invalid name start character {name[0]!r}",
                            token.start(1))
    if name in seen:
        raise XMLParseError(f"duplicate attribute {name!r}", token.end(1))
    seen.add(name)
    group = 2 if token.group(2) is not None else 3
    start, stop = token.span(group)
    value = token.group(group)
    if "&" in value:
        parts = []
        at = start
        while (amp := source.find("&", at, stop)) >= 0:
            parts.append(source[at:amp].translate(_SPACES))
            reference = _ENTITY.match(source, amp)
            if reference is None:
                raise XMLParseError("unterminated entity reference", amp + 1)
            parts.append(_dereference(reference.group(1), reference.end()))
            at = reference.end()
        parts.append(source[at:stop].translate(_SPACES))
        value = "".join(parts)
    elif "\t" in value or "\n" in value:
        value = value.translate(_SPACES)
    if value.startswith(_LABEL_STARTS) and label_kind(value) != TEXT:
        raise _reads_as_label(value, start - 1)
    return name, value


def _dereference(name: str, end: int) -> str:
    """The character an entity or character reference ``&name;`` stands
    for; ``end`` is the offset just past it."""
    char = _ENTITY_MAP.get(name)
    if char is not None:
        return char
    if name.startswith("#"):
        # Only a character of the Char production may be referenced.
        number = _CHAR_REFERENCE.fullmatch(name)
        if number is not None:
            hexadecimal, decimal = number.groups()
            code = int(hexadecimal, 16) if hexadecimal else int(decimal)
            if code <= 0x10FFFF and not _NOT_A_CHAR.match(chr(code)):
                return chr(code)
        raise XMLParseError(f"invalid character reference &{name};", end)
    raise XMLParseError(f"unknown entity &{name};", end)


def _doctype_end(source: str, pos: int) -> int:
    """The offset past the ``<!DOCTYPE …>`` at ``pos``: its first ``>``
    outside nested ``<…>`` pairs and ``[…]`` sections."""
    at = pos + len("<!DOCTYPE")
    depth = 0
    while (mark := _DOCTYPE_MARK.search(source, at)) is not None:
        at = mark.end()
        char = mark.group()
        if char == "<":
            depth += 1
        elif char == ">":
            if depth == 0:
                return at
            depth -= 1
        else:
            close = source.find("]", at)
            if close < 0:
                raise XMLParseError(
                    "unterminated construct, expected ']'", at)
            at = close + 1
    raise XMLParseError("unterminated DOCTYPE", len(source))


# -- errors ------------------------------------------------------------------


def _fail(source: str, pos: int, open_tags: list[str], flush,
          depth: int) -> NoReturn:
    """Raise the error for the markup at ``pos``, which no token of the
    master regex accepts as it stands.

    Walks the construct the way it is read — a tag's name, its
    attributes one by one, its end — so the error names the first
    offset where the text leaves the grammar.  ``flush(depth)``
    (character data pending before a tag) runs first, as a tag would
    run it.
    """
    for opener, problem, offset in (
            ("&", "unterminated entity reference", 1),
            ("<!--", "unterminated construct, expected '-->'", 0),
            ("<![CDATA[", "unterminated CDATA section", 9),
            ("<?", "unterminated construct, expected '?>'", 0)):
        if source.startswith(opener, pos):
            raise XMLParseError(problem, pos + offset)
    if flush is not None:
        flush(depth)
    if source.startswith("</", pos):
        if not open_tags:
            raise XMLParseError("unexpected trailing content", pos)
        name, at = _name(source, pos + 2)
        if name != open_tags[-1]:
            raise XMLParseError(f"mismatched closing tag </{name}>, "
                                f"expected </{open_tags[-1]}>", at)
        raise XMLParseError("expected '>'", _skip_space(source, at))
    _tag, at = _name(source, pos + 1)
    seen: set[str] = set()
    while (token := _ATTRIBUTE.match(source, at)) is not None:
        _attribute(source, token, seen)
        at = token.end()
    at = _skip_space(source, at)
    if at < len(source) and source[at] not in ">/":
        name, at = _name(source, at)
        if name in seen:
            raise XMLParseError(f"duplicate attribute {name!r}", at)
        at = _skip_space(source, at)
        if not source.startswith("=", at):
            raise XMLParseError("expected '='", at)
        at = _skip_space(source, at + 1)
        if not source.startswith(("'", '"'), at):
            raise XMLParseError("attribute value must be quoted", at)
        raise XMLParseError("unterminated attribute value", len(source))
    raise XMLParseError("expected '>'", at)


def _name(source: str, at: int) -> tuple[str, int]:
    """The name at ``at`` and the offset past it."""
    token = _NAME_TOKEN.match(source, at)
    if token is None or not _starts_name(source[at]):
        if at >= len(source):
            raise XMLParseError("expected a name", at)
        raise XMLParseError(
            f"invalid name start character {source[at]!r}", at)
    return token.group(), token.end()


def _skip_space(source: str, at: int) -> int:
    while at < len(source) and source[at] in " \t\n":
        at += 1
    return at

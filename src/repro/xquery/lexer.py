"""Tokenizer for the XQuery surface subset.

Direct element constructors make XQuery lexing mode-sensitive: inside
``<tag>…</tag>`` the input is character data with ``{…}`` escapes back to
expression mode.  The :class:`Scanner` therefore tokenizes *lazily* from a
cursor: the parser consumes tokens in expression mode and switches to
character-level reads (``read_char`` / ``peek_char``) inside constructors,
keeping a single source position shared by both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XQuerySyntaxError

KEYWORDS = frozenset({
    "for", "let", "in", "return", "where", "and", "or", "do",
})

#: Multi-character operators, longest first so matching is greedy.
_OPERATORS = (":=", "!=", "<=", ">=", "//", "=", "<", ">", "/", "(", ")",
              "[", "]", "{", "}", ",", "@", "*", ".", "$")

_NAME_EXTRA = "_-."


def line_col(source: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``pos`` in ``source``."""
    line = source.count("\n", 0, pos) + 1
    return line, pos - source.rfind("\n", 0, pos)


@dataclass(frozen=True)
class Token:
    """One lexical token at offset ``pos`` of ``source``; its line and
    column (for error messages) are computed when asked — two scans of
    the source, which no token that parses cleanly needs."""

    type: str  # NAME, KEYWORD, VARIABLE, STRING, NUMBER, OP, EOF
    value: str
    pos: int
    source: str = field(default="", repr=False, compare=False)

    @property
    def line(self) -> int:
        return line_col(self.source, self.pos)[0]

    @property
    def column(self) -> int:
        return line_col(self.source, self.pos)[1]

    def is_op(self, *values: str) -> bool:
        return self.type == "OP" and self.value in values

    def is_keyword(self, *values: str) -> bool:
        return self.type == "KEYWORD" and self.value in values


class Scanner:
    """Lazy tokenizer with a shared character cursor.

    Expression-mode methods: :meth:`peek`, :meth:`next`, :meth:`expect_op`.
    Constructor-mode methods: :meth:`peek_char`, :meth:`read_char`,
    :meth:`startswith_raw`, :meth:`skip_raw` — these bypass tokenization.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self._pending: Token | None = None

    # -- position / error helpers -------------------------------------------

    def error(self, message: str, pos: int | None = None) -> XQuerySyntaxError:
        line, column = line_col(self.source,
                                self.pos if pos is None else pos)
        return XQuerySyntaxError(message, line, column)

    # -- expression mode ------------------------------------------------------

    def peek(self) -> Token:
        """Look at the next token without consuming it."""
        if self._pending is None:
            self._pending = self._scan()
        return self._pending

    def next(self) -> Token:
        """Consume and return the next token."""
        token = self.peek()
        self._pending = None
        return token

    def expect_op(self, value: str) -> Token:
        token = self.next()
        if not token.is_op(value):
            raise self.error(f"expected {value!r}, found {token.value!r}")
        return token

    def expect_keyword(self, value: str) -> Token:
        token = self.next()
        if not token.is_keyword(value):
            raise self.error(f"expected keyword {value!r}, found {token.value!r}")
        return token

    def _skip_ignorable(self) -> None:
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if char in " \t\r\n":
                self.pos += 1
            elif self.source.startswith("(:", self.pos):
                end = self.source.find(":)", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated comment (: … :)")
                self.pos = end + 2
            else:
                return

    def _scan(self) -> Token:
        self._skip_ignorable()
        source, start = self.source, self.pos
        if start >= len(source):
            return Token("EOF", "", start, source)
        char = self.source[start]

        if char == "$":
            self.pos += 1
            name = self._scan_name("variable name")
            return Token("VARIABLE", name, start, source)

        if char in "\"'":
            return Token("STRING", self._scan_string(char), start, source)

        if char.isdigit():
            end = start
            while end < len(self.source) and (self.source[end].isdigit() or self.source[end] == "."):
                end += 1
            self.pos = end
            return Token("NUMBER", self.source[start:end], start, source)

        if char.isalpha() or char == "_":
            name = self._scan_name("name")
            if name in KEYWORDS:
                return Token("KEYWORD", name, start, source)
            return Token("NAME", name, start, source)

        for operator in _OPERATORS:
            if self.source.startswith(operator, start):
                self.pos = start + len(operator)
                return Token("OP", operator, start, source)

        raise self.error(f"unexpected character {char!r}", start)

    def _scan_name(self, what: str) -> str:
        start = self.pos
        if start >= len(self.source):
            raise self.error(f"expected a {what}")
        first = self.source[start]
        if not (first.isalpha() or first == "_"):
            raise self.error(f"invalid {what} start character {first!r}", start)
        end = start + 1
        while end < len(self.source):
            char = self.source[end]
            if char.isalnum() or char in _NAME_EXTRA:
                # A '.' only continues a name if followed by a name character,
                # so `$x.y` lexes fully but `head(.)` does not eat the dot.
                if char == "." and not (
                    end + 1 < len(self.source) and self.source[end + 1].isalnum()
                ):
                    break
                end += 1
            else:
                break
        self.pos = end
        return self.source[start:end]

    def _scan_string(self, quote: str) -> str:
        # Consumes the opening quote; doubled quotes escape themselves.
        assert self.source[self.pos] == quote
        self.pos += 1
        parts: list[str] = []
        while self.pos < len(self.source):
            char = self.source[self.pos]
            if char == quote:
                if self.source.startswith(quote * 2, self.pos):
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return "".join(parts)
            parts.append(char)
            self.pos += 1
        raise self.error("unterminated string literal")

    # -- constructor (character) mode ------------------------------------------

    def discard_pending(self) -> None:
        """Forget a peeked token so character-mode reads resume correctly.

        The scanner records where the pending token *started* so no input is
        lost.
        """
        if self._pending is not None:
            # Rewind to the start of the pending token.
            raise AssertionError(
                "discard_pending must only be called when no token is pending; "
                "use checkpointing in the parser instead"
            )

    def at_raw_end(self) -> bool:
        return self.pos >= len(self.source)

    def peek_char(self) -> str:
        if self._pending is not None:
            raise AssertionError("cannot mix char mode with a pending token")
        if self.pos >= len(self.source):
            return ""
        return self.source[self.pos]

    def read_char(self) -> str:
        char = self.peek_char()
        if char:
            self.pos += 1
        return char

    def startswith_raw(self, prefix: str) -> bool:
        if self._pending is not None:
            raise AssertionError("cannot mix char mode with a pending token")
        return self.source.startswith(prefix, self.pos)

    def skip_raw(self, text: str) -> None:
        if not self.startswith_raw(text):
            raise self.error(f"expected {text!r}")
        self.pos += len(text)

"""Dynamic interval encoding of environment sequences (Definition 3.3).

A sequence of environments ``[E_1 … E_n]`` over variables ``x_1 … x_m`` is
represented by an index relation ``I ⊆ Nat`` plus one relation ``T_x`` per
variable.  The encoding of the forest bound to ``x`` in environment ``i``
occupies the block ``[i·w_x, (i+1)·w_x)`` of ``T_x`` where ``w_x`` is the
compile-time width of ``x``.

The same pair ``(I, T_x)`` can simultaneously be read as

* a *sequence of forests* — one per index, by slicing blocks — or
* a *single forest* — the concatenation of all blocks, by ignoring ``I``.

That dual reading is what lets the translation exit a ``for`` loop without
any work (Section 3 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.encoding.interval import (
    EncodedForest,
    IntervalTuple,
    decode,
    encode,
)
from repro.errors import EncodingError
from repro.xml.forest import Forest


def encode_sequence(forests: Sequence[Forest], width: int | None = None) -> tuple[list[int], EncodedForest]:
    """Encode a sequence of forests as (index list, blocked relation).

    Uses consecutive indices ``0 … n-1``.  ``width`` defaults to the largest
    canonical encoding width among the forests (Definition 3.3's
    ``w = max w_k``).
    """
    encodings = [encode(forest) for forest in forests]
    if width is None:
        width = max((enc.width for enc in encodings), default=0)
    rows: list[IntervalTuple] = []
    for i, enc in enumerate(encodings):
        if enc.width > width:
            raise EncodingError(
                f"forest {i} needs width {enc.width}, exceeding block width {width}"
            )
        rows.extend((s, l + i * width, r + i * width) for (s, l, r) in enc.tuples)
    return list(range(len(forests))), EncodedForest(rows, width, sort=False)


def decode_sequence(
    index: Sequence[int], relation: EncodedForest | Sequence[IntervalTuple], width: int
) -> list[Forest]:
    """Decode a blocked relation back into one forest per environment index.

    Tuples outside every indexed block are rejected — they would indicate a
    translation bug.
    """
    rows = list(relation.tuples if isinstance(relation, EncodedForest) else relation)
    if width <= 0:
        if rows:
            raise EncodingError("non-empty relation with non-positive width")
        return [() for _ in index]
    blocks: dict[int, list[IntervalTuple]] = {i: [] for i in index}
    for s, l, r in rows:
        block = l // width
        if block not in blocks:
            raise EncodingError(
                f"tuple ({s!r},{l},{r}) falls in block {block}, not in the index"
            )
        if r >= (block + 1) * width:
            raise EncodingError(
                f"tuple ({s!r},{l},{r}) crosses the boundary of block {block}"
            )
        blocks[block].append((s, l, r))
    return [decode(blocks[i]) for i in index]


class EnvironmentSequence:
    """A dynamic-interval representation of a sequence of environments.

    ``index`` — sorted environment indices (the relation ``I``).
    ``tables`` — per-variable blocked relations (``T_x``), document-ordered.
    ``widths`` — per-variable block widths (``w_x``).
    """

    __slots__ = ("index", "tables", "widths")

    def __init__(
        self,
        index: Sequence[int],
        tables: Mapping[str, list[IntervalTuple]],
        widths: Mapping[str, int],
    ):
        self.index = list(index)
        if self.index != sorted(self.index):
            raise EncodingError("environment index must be sorted")
        if len(set(self.index)) != len(self.index):
            raise EncodingError("environment index must not contain duplicates")
        if set(tables) != set(widths):
            raise EncodingError("tables and widths must cover the same variables")
        self.tables = {name: list(rows) for name, rows in tables.items()}
        self.widths = dict(widths)

    @classmethod
    def initial(cls, bindings: Mapping[str, Forest]) -> "EnvironmentSequence":
        """The single initial environment ``E`` with index ``I = {0}``.

        ``bindings`` maps variable (document) names to forests; each is
        encoded with its canonical DFS width.
        """
        tables: dict[str, list[IntervalTuple]] = {}
        widths: dict[str, int] = {}
        for name, forest in bindings.items():
            enc = encode(forest)
            tables[name] = list(enc.tuples)
            widths[name] = enc.width
        return cls([0], tables, widths)

    # -- inspection ---------------------------------------------------------

    @property
    def variables(self) -> list[str]:
        return sorted(self.tables)

    def __len__(self) -> int:
        return len(self.index)

    def forests(self, name: str) -> list[Forest]:
        """Decode the sequence of forests bound to ``name``, one per index."""
        return decode_sequence(self.index, self.tables[name], self.widths[name])

    def environments(self) -> Iterator[dict[str, Forest]]:
        """Yield each environment as a plain variable→forest mapping."""
        decoded = {name: self.forests(name) for name in self.tables}
        for position in range(len(self.index)):
            yield {name: decoded[name][position] for name in self.tables}

    def block(self, name: str, i: int) -> list[IntervalTuple]:
        """The tuples of variable ``name`` that belong to environment ``i``."""
        width = self.widths[name]
        low, high = i * width, (i + 1) * width
        return [(s, l, r) for (s, l, r) in self.tables[name] if low <= l and r < high]

    def local_block(self, name: str, i: int) -> list[IntervalTuple]:
        """Like :meth:`block` but with intervals shifted back to ``[0, w)``."""
        width = self.widths[name]
        offset = i * width
        return [(s, l - offset, r - offset) for (s, l, r) in self.block(name, i)]

    # -- construction of derived sequences -----------------------------------

    def with_binding(
        self, name: str, rows: Iterable[IntervalTuple], width: int
    ) -> "EnvironmentSequence":
        """Extend every environment with a new variable (the ``let`` rule)."""
        tables = dict(self.tables)
        widths = dict(self.widths)
        tables[name] = list(rows)
        widths[name] = width
        return EnvironmentSequence(self.index, tables, widths)

    def restricted(self, surviving: Sequence[int]) -> "EnvironmentSequence":
        """Keep only the environments in ``surviving`` (the ``where`` rule)."""
        keep = set(surviving)
        unknown = keep - set(self.index)
        if unknown:
            raise EncodingError(f"indices {sorted(unknown)} are not in the sequence")
        index = [i for i in self.index if i in keep]
        tables: dict[str, list[IntervalTuple]] = {}
        for name, rows in self.tables.items():
            width = self.widths[name]
            tables[name] = [row for row in rows if row[1] // width in keep]
        return EnvironmentSequence(index, tables, self.widths)

    def validate(self) -> None:
        """Check that every variable's tuples fall in indexed blocks."""
        for name in self.tables:
            decode_sequence(self.index, self.tables[name], self.widths[name])

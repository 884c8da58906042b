"""The label conventions and the process-wide label dictionary.

Section 2 of the paper keeps a node's kind in its label: ``"<tag>"`` is
an element, ``"@name"`` an attribute, any other string is text.
:func:`label_kind` is the one reading of that convention; everything
that asks "what kind of node is this label" — the ``xml.forest``
predicates, the dictionary below, the serializer's piece tables — calls
it, once per distinct label.

The dictionary numbers every label the process ever encoded *or
constructed* — element and attribute names, text values, ``count()`` /
``string()`` results and query literals — with an int32 *code*: the
label's kind in the low two bits (:data:`KIND_MASK`), its *id* above
them; an id names one label, whatever the kind bits beside it.  It is
append-only (nothing is evicted when a document is
dropped), has room for 2²⁹ ids (``repro_label_dictionary_entries`` is
its size), is read lock-free, and assigns under one lock that is held
across ``fork``.  Codes are process-local; :func:`adopt_labels` makes
another process's codes valid here.

A leaf module (it imports nothing from this package), so both ``xml/``
and ``engine/`` read it without an import cycle;
:mod:`repro.engine.columns` re-exports its names.
"""

from __future__ import annotations

import os
import threading
from itertools import count as _counter
from typing import Sequence

import numpy as np

ELEMENT_PREFIX = "<"
ATTRIBUTE_PREFIX = "@"

#: Node kinds, the low two bits of a label code.
TEXT, ELEMENT, ATTRIBUTE = 0, 1, 2
KIND_MASK = 3


def label_kind(label: str) -> int:
    """The kind a label denotes: :data:`ELEMENT` for ``"<tag>"`` (a
    non-empty tag), :data:`ATTRIBUTE` for ``"@name"`` (a non-empty
    name), :data:`TEXT` for anything else."""
    first = label[:1]
    if first == ELEMENT_PREFIX and label[-1:] == ">" and len(label) > 2:
        return ELEMENT
    if first == ATTRIBUTE_PREFIX and len(label) > 1:
        return ATTRIBUTE
    return TEXT


# -- the dictionary ------------------------------------------------------------

#: Held for every assignment (and by the serializer's piece tables for
#: every fill), and across ``fork``.
_names_lock = threading.Lock()
_label_of: dict[int, str] = {}
_next_name = _counter(1)
# A child forked while another thread interns would inherit a held lock
# and a half-written table: forks wait for the table to be whole.
os.register_at_fork(before=_names_lock.acquire,
                    after_in_parent=_names_lock.release,
                    after_in_child=_names_lock.release)


def _id_taken(code: int) -> bool:
    """Whether a label holds the id of ``code``, in any kind.

    An id names one label — the serializer's piece tables are indexed
    by it — so a code whose id is taken is taken, whatever its kind.
    """
    base = code & ~KIND_MASK
    return (base | TEXT in _label_of or base | ELEMENT in _label_of
            or base | ATTRIBUTE in _label_of)


class _LabelCodes(dict):
    """label → code; a missing label is assigned one.  Assignment needs
    ``_names_lock``: writers subscript under it, readers use ``get``."""

    def __missing__(self, label: str) -> int:
        kind = label_kind(label)
        while True:
            code = next(_next_name) << 2 | kind
            if not _id_taken(code):  # adopted codes are taken
                _label_of[code] = label
                self[label] = code
                return code


_codes = _LabelCodes()


def name_code(label: str, intern: bool = True) -> int | None:
    """The code of ``label`` — a name or a text value.

    ``intern=False`` is the query side: a label no relation in this
    process ever carried has no code, and ``None`` says no row matches.
    """
    code = _codes.get(label)
    if code is None and intern:
        with _names_lock:
            code = _codes[label]
    return code


def label_dictionary_entries() -> int:
    """Distinct labels the process-wide dictionary holds (it only grows)."""
    return len(_codes)


def label_codes(labels: "Sequence[str]") -> np.ndarray:
    """The codes of a label sequence as an int32 array (interning new
    labels, all under one acquisition of the lock)."""
    with _names_lock:
        return np.fromiter(map(_codes.__getitem__, labels), np.int32,
                           len(labels))


def adopt_labels(labels: "Sequence[str]", codes: "Sequence[int]") -> list[int]:
    """Make another process's label table valid here; the local codes.

    An unknown label takes the foreign code when its id is free, so
    columns that carry it need no translation; where the answer differs
    from ``codes`` (a label this process numbered otherwise, an id it
    gave to another label) the caller translates its ``c`` column.
    """
    with _names_lock:
        local = list(map(_codes.get, labels))
        for at, code in enumerate(local):
            if code is None:
                label, code = labels[at], codes[at]
                if _id_taken(code):  # this process's, for another label
                    code = _codes[label]
                else:
                    _codes[label] = code
                    _label_of[code] = label
                local[at] = code
        return local

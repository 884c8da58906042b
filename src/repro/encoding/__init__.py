"""The interval encoding of XML forests (Section 3, Definition 3.1) and
its gap-based updates.  Definition 3.3's environment sequences live in
the engine (:class:`~repro.engine.evaluator.EnvSeq`, checked by
:func:`~repro.engine.validate.validate_value`)."""

from repro.encoding.interval import (
    EncodedForest,
    IntervalTuple,
    decode,
    encode,
    validate_encoding,
)

__all__ = [
    "EncodedForest",
    "IntervalTuple",
    "decode",
    "encode",
    "validate_encoding",
]

"""Console logging setup for the ``repro`` logger hierarchy.

Library modules log under ``repro.*`` (``repro.session``,
``repro.backends``, ``repro.bench``); the package installs a
``NullHandler`` so importing applications stay silent by default.
:func:`setup_console_logging` is the one-call opt-in used by the CLI's
``--verbose`` flag and by notebooks.

The **slow-query log** also lives here: the flight recorder
(:mod:`repro.obs.flight`) emits one structured ``key=value`` line per
tail-sampled query on the ``repro.slowlog`` logger — greppable, one
record per line, carrying the plan fingerprint and whether the plan
cache hit.
"""

from __future__ import annotations

import logging
import sys
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flight import QueryRecord

ROOT_LOGGER = "repro"

#: Logger the flight recorder's tail-sampled queries are written to.
SLOW_QUERY_LOGGER = "repro.slowlog"

_FORMAT = "%(name)s %(levelname)s: %(message)s"


def format_slow_query(record: "QueryRecord") -> str:
    """One logfmt-style line for a tail-sampled query record.

    Values with spaces are quoted; absent facts are omitted rather than
    rendered as ``None``, so the line stays grep- and cut-friendly.
    """
    pairs: list[tuple[str, object]] = [
        ("slow_query", record.fingerprint),
        ("outcome", record.outcome),
        ("wall_ms", round(record.wall_seconds * 1e3, 3)),
        ("backend", record.winner or record.backend),
        ("reasons", ",".join(record.sample_reasons) or "-"),
    ]
    if record.error:
        pairs.append(("error", record.error))
    if record.plan_fingerprint:
        pairs.append(("plan", record.plan_fingerprint))
    if record.plan_cache:
        pairs.append(("plan_cache", record.plan_cache))
    if record.degradations:
        pairs.append(("degraded_from",
                      ";".join(record.degradations)))
    for name, seconds in record.phases.items():
        pairs.append((f"{name}_ms", round(seconds * 1e3, 3)))
    pairs.append(("query", record.query))
    return " ".join(f"{key}={_logfmt_value(value)}"
                    for key, value in pairs)


def _logfmt_value(value: object) -> str:
    text = str(value)
    if any(ch in text for ch in ' "='):
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


def log_slow_query(record: "QueryRecord",
                   logger: logging.Logger | None = None) -> None:
    """Emit the structured slow-query line for one tail-sampled record."""
    target = logger if logger is not None \
        else logging.getLogger(SLOW_QUERY_LOGGER)
    target.warning("%s", format_slow_query(record))


def setup_console_logging(level: int = logging.DEBUG,
                          stream: TextIO | None = None) -> logging.Handler:
    """Attach a stream handler to the ``repro`` logger hierarchy.

    Idempotent per stream: calling twice with the same stream adjusts the
    existing handler's level instead of stacking duplicates.  Returns the
    handler so callers can remove it.
    """
    target = stream if stream is not None else sys.stderr
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in logger.handlers:
        if isinstance(handler, logging.StreamHandler) \
                and getattr(handler, "stream", None) is target:
            handler.setLevel(level)
            logger.setLevel(min(logger.level or level, level))
            return handler
    handler = logging.StreamHandler(target)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(_FORMAT))
    logger.addHandler(handler)
    logger.setLevel(level)
    return handler

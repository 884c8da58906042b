"""XQuery-to-SQL translation over dynamic intervals (Section 4).

The translator maps a core-language expression to a **single SQL
statement** — a ``WITH`` chain of one common table expression per template
instantiation — executable on stock SQLite.  Every relation carries its
tuples' environment number ``e`` (``l / w``, stored) and depth ``d`` beside
``(s, l, r)``, so "same environment" and "is a root" are indexable
equalities and no lateral joins are needed.
"""

from repro.sql.translator import SQLTranslator, TranslationResult, translate_query
from repro.sql.sqlite_backend import SQLiteDatabase, run_core_on_sqlite

__all__ = [
    "SQLTranslator",
    "SQLiteDatabase",
    "TranslationResult",
    "run_core_on_sqlite",
    "translate_query",
]

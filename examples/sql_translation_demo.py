"""Inspect the single SQL statement the Section 4 translation produces.

The paper's central claim is that an *arbitrarily nested* FLWR expression —
element constructors, structural where-clauses, aggregates, the lot —
compiles to **one SQL statement** over the dynamic-interval encoding.
This example prints that statement for XMark Q8, shows the compile-time
width bookkeeping (Section 4.3), runs the SQL on SQLite, and decodes the
rows back into XML.

Run with:  python examples/sql_translation_demo.py
"""

from repro import compile_xquery
from repro.encoding.interval import encode
from repro.sql.sqlite_backend import SQLiteDatabase
from repro.xmark.queries import FIGURE1_SAMPLE, Q8
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_document
from repro.xquery.lowering import document_forest


def main() -> None:
    document = parse_document(FIGURE1_SAMPLE)
    compiled = compile_xquery(Q8)

    wrapped = document_forest(document)
    with SQLiteDatabase() as database:
        for _uri, var in compiled.documents.items():
            database.load_document(var, wrapped)
        translation = database.translate(compiled.core)

        # -- width inference (Section 4.3), done by the translator ------------
        print(f"Document width: {encode(wrapped).width}")
        print(f"Largest compile-time block width: "
              f"{max(translation.relations.values())}")
        print("Width growth along the expression (last 8 relations):")
        for name, width in list(translation.relations.items())[-8:]:
            print(f"  {name:<16} -> {width}")

        # -- the single SQL statement ------------------------------------------
        print(f"\nTranslation: {translation.cte_count} CTEs, "
              f"result width {translation.width}")
        print("\n--- the single SQL statement (first 40 lines) ---")
        for line in translation.sql.splitlines()[:40]:
            print(line)
        print(f"... ({len(translation.sql.splitlines())} lines total)\n")

        # -- run it and decode the (s, l, r) rows back into XML -----------------
        result = database.run_translation(translation)
        print("Decoded result:", forest_to_xml(result))


if __name__ == "__main__":
    main()

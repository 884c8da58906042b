"""A guided tour of dynamic intervals — the paper's Figures 5, 6, 7, live.

Walks the machinery of Sections 3–4 on the Figure 1 sample document:

1. the interval encoding (Figure 4);
2. the initial environment `I`, `T_person` (Figure 5);
3. entering a `for` loop: `I'`, `T'_p` with each person re-blocked into
   its own environment (Figure 7, matching the paper's printed numbers);
4. filtering environments with a `where` condition;
5. exiting the loop for free: the same relation read as one forest.

Run with:  python examples/dynamic_intervals_tour.py
"""

from repro.encoding.interval import decode, encode
from repro.engine import kernels
from repro.engine.columns import IntervalColumns
from repro.xmark.queries import FIGURE1_SAMPLE
from repro.xml.serializer import forest_to_xml
from repro.xml.text_parser import parse_document


def show(relation, limit=8, title=""):
    if title:
        print(title)
    print(f"  {'s':<34} {'l':>6} {'r':>6}")
    for s, l, r in relation[:limit]:
        print(f"  {s:<34} {l:>6} {r:>6}")
    if len(relation) > limit:
        print(f"  … ({len(relation)} rows total)")
    print()


def main() -> None:
    document = parse_document(FIGURE1_SAMPLE)

    # -- 1. Figure 4: the DFS-counter interval encoding ---------------------
    encoded = encode((document,))
    print(f"1. Interval encoding — width {encoded.width} "
          f"(the paper's Figure 4):\n")
    show(encoded.tuples, limit=7)

    # -- 2. Figure 5: T_person in the initial environment --------------------
    person = kernels.select_label(
        IntervalColumns.from_tuples(encoded.tuples), "<site>")
    for step in ("<people>", "<person>"):  # fused child steps
        person = kernels.select_children(person, step)
    print("2. T_person — /site/people/person, initial environment I = {0}:\n")
    show(person.tuples(), limit=6)

    # -- 3. Figure 7: entering `for $p in …/person` ---------------------------
    width = encoded.width
    index = kernels.roots(person).l.tolist()
    expanded = kernels.expand_variable(person, width, index).tuples()
    print(f"3. Entering the for loop: I' = {index} (the roots' left\n"
          f"   endpoints), and T'_p re-blocked at width {width} — compare\n"
          f"   the paper's Figure 7 (person0 at 174, person1 at 2088):\n")
    show(expanded, limit=6)
    tail = [row for row in expanded if row[1] >= 2088]
    show(tail, limit=3, title="   …and the second environment:")

    # -- 4. Environment-wise reading -------------------------------------------
    print("4. Each environment block decodes to its own forest:\n")
    for env in index:
        block = [row for row in expanded if row[1] // width == env]
        print(f"   env {env:>3}: {len(block)} tuples, "
              f"root {block[0][0]}, first child {block[1][0]}")
    print()

    # -- 5. Exit for free -----------------------------------------------------------
    print("5. Ignoring the index reads the same relation as ONE forest —\n"
          "   the loop exit costs nothing:\n")
    combined = decode(expanded)
    print("   " + forest_to_xml(combined)[:100] + "…\n")
    assert len(combined) == 2  # both persons, in document order


if __name__ == "__main__":
    main()

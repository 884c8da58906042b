"""Independent answers the benchmark checks every output against.

Two oracles, neither of which touches the DI engine or the SQL
translation:

* :func:`interpreter_answers` runs ``backend="interpreter"`` — the
  Figure 3 reference semantics over the parsed forest.  It is linear
  for path queries but evaluates joins as nested loops (Q9 is cubic:
  0.23 s at 3k nodes, by extrapolation an hour at 78k), so
* :func:`join_reference` answers Q8 / Q8_ORIGINAL / Q9 with a
  hand-written hash join over ``xml.etree`` in a few milliseconds at any
  scale.  ``tests/test_perfbench.py`` and ``run.py --record-expected``
  hold it equal to the interpreter on a document small enough for both.

``expected/<workload>.json`` pins the answers' SHA-256 for the recorded
seed, so a later change that moves the program *and* the interpreter
together still shows.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path
from xml.sax.saxutils import escape

from inputs import DOCUMENT

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_ATTRIBUTE_ESCAPES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;",
                      "\r": "&#13;"}


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def interpreter_answers(document_text: str,
                        queries: dict[str, str]) -> dict[str, str]:
    """``key → XML text`` from the Figure 3 interpreter."""
    from repro import XQuerySession

    answers: dict[str, str] = {}
    with XQuerySession(backend="interpreter", admission=False,
                       record=False) as session:
        session.add_document(DOCUMENT, document_text)
        for key, query in queries.items():
            result = session.run(query)
            if result.backend not in (None, "interpreter"):
                raise RuntimeError(f"oracle ran on {result.backend!r}")
            answers[key] = result.to_xml()
    return answers


def _attribute(value: str) -> str:
    return escape(value, _ATTRIBUTE_ESCAPES).replace("&gt;", ">")


def join_reference(document_text: str) -> dict[str, str]:
    """Q8, Q8_ORIGINAL and Q9 by hash join over ElementTree."""
    site = ET.fromstring(document_text)
    bought = defaultdict(list)  # buyer id → closed auctions, document order
    for auction in site.iterfind("closed_auctions/closed_auction"):
        for buyer in auction.iterfind("buyer"):
            bought[buyer.get("person")].append(auction)
    europe = defaultdict(list)  # item id → europe items, document order
    for item in site.iterfind("regions/europe/item"):
        europe[item.get("id")].append(item)

    def texts(nodes, step):
        # ``$x/step/text()`` — direct text children of each step child.
        return "".join(child.text or ""
                       for node in nodes for child in node.iterfind(step))

    q8: list[str] = []
    q8_original: list[str] = []
    q9: list[str] = []
    for person in site.iterfind("people/person"):
        auctions = bought.get(person.get("id"), [])
        name = _attribute(texts([person], "name"))
        row = f'<item person="{name}">{len(auctions)}</item>'
        q8_original.append(row)
        if not auctions:
            continue
        q8.append(row)
        items = []
        for auction in auctions:
            matched = [item
                       for ref in auction.iterfind("itemref")
                       for item in europe.get(ref.get("item"), [])]
            names = escape(texts(matched, "name"))
            items.append(f"<item>{names}</item>" if names else "<item/>")
        q9.append(f'<person name="{name}">{"".join(items)}</person>')
    return {"Q8": "".join(q8), "Q8_ORIGINAL": "".join(q8_original),
            "Q9": "".join(q9)}


# -- the pinned answers ----------------------------------------------------------

def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> dict | None:
    path = expected_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def save_expected(workload: str, seed: int, source: str,
                  hashes: dict[str, str]) -> Path:
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = expected_path(workload)
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "oracle": source,
         "sha256": dict(sorted(hashes.items()))}, indent=1) + "\n")
    return path


def drift(workload: str, seed: int, hashes: dict[str, str]) -> list[str]:
    """Keys whose live oracle answer differs from the pinned one.

    Only the recorded seed is pinned; keys the file does not know (the
    ad-hoc stream is open-ended) are not drift.
    """
    pinned = load_expected(workload)
    if pinned is None or pinned["seed"] != seed:
        return []
    return sorted(key for key, value in pinned["sha256"].items()
                  if key in hashes and hashes[key] != value)

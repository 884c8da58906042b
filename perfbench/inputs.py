"""Seeded benchmark inputs: XMark XML files, query texts, edit payloads.

Everything a workload feeds the program is derived from ``--seed`` here
and reaches the program only as XML text and query text.  Generating
the document is harness work: it runs in a short-lived child process
(``python perfbench/inputs.py``) so that the generator's node tree never
counts toward a workload's ``setup_s`` or ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: The URI every query addresses (``repro.xmark.queries.DOCUMENT``).
DOCUMENT = "auction.xml"
_DOC = f'document("{DOCUMENT}")'


@dataclass(frozen=True)
class GeneratedDocument:
    """One XMark document on disk plus the facts schedules draw from."""

    path: Path
    scale: float
    seed: int
    nodes: int
    bytes: int
    #: ``@person`` of every open auction's seller, in document order.
    sellers: tuple[str, ...]

    def text(self) -> str:
        return self.path.read_text()


def generate_document(scale: float, seed: int, name: str) -> GeneratedDocument:
    """Write ``out/<name>.xml`` in a child process and return its facts."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.xml"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--scale", repr(scale), "--seed", str(seed), "--out", str(path)],
        check=True, capture_output=True, text=True, timeout=170)
    facts = json.loads(done.stdout.splitlines()[-1])
    return GeneratedDocument(path, scale, seed, facts["nodes"],
                             facts["bytes"], tuple(facts["sellers"]))


# -- query texts -----------------------------------------------------------------

def q1_star(seller: str) -> str:
    """XMark Q1 with a seller id that exists in the generated document.

    The stock Q1 asks for ``"person1"``, who sells nothing at several
    scales; an empty answer would time nothing.
    """
    return (f"for $b in {_DOC}/site/open_auctions/open_auction\n"
            f'where $b/seller/@person = "{seller}"\n'
            f"return $b/initial\n")


def named_queries(document: GeneratedDocument,
                  rng: random.Random) -> dict[str, str]:
    """Every named query text, with Q1* bound to this document."""
    from repro.xmark import queries

    texts = dict(queries.QUERIES)
    texts.update(queries.EXTRA_QUERIES)
    texts["Q1"] = q1_star(rng.choice(document.sellers))
    return texts


#: Ad-hoc traffic shapes.  ``{tag}`` is the per-text free dimension (it
#: makes every text distinct without changing what is computed); the
#: other fields pick among a few dozen *classes* whose answers the
#: oracle computes once each.
ADHOC_SHAPES: dict[str, str] = {
    "q1": (f"for $b in {_DOC}/site/open_auctions/open_auction\n"
           'where $b/seller/@person = "{person}"\n'
           "return <{tag}>{{$b/{step}/text()}}</{tag}>\n"),
    "q13": (f"for $i in {_DOC}/site/regions/{{region}}/item\n"
            'return <{tag} name="{{$i/name/text()}}">{{$i/{step}}}</{tag}>\n'),
    "q8": (f"for $p in {_DOC}/site/people/person\n"
           f"let $a := for $t in {_DOC}/site/closed_auctions/closed_auction\n"
           "          where $t/{role}/@person = $p/@id\n"
           "          return $t\n"
           "where not(empty($a))\n"
           'return <{tag} person="{{$p/{step}/text()}}">{{count($a)}}</{tag}>\n'),
    "q9": (f"for $p in {_DOC}/site/people/person\n"
           f"let $a := for $t in {_DOC}/site/closed_auctions/closed_auction\n"
           f"          let $n := for $t2 in {_DOC}/site/regions/{{region}}/item\n"
           "                    where $t/itemref/@item = $t2/@id\n"
           "                    return $t2\n"
           "          where $p/@id = $t/{role}/@person\n"
           "          return <item>{{$n/name/text()}}</item>\n"
           "where not(empty($a))\n"
           'return <{tag} name="{{$p/name/text()}}">{{$a}}</{tag}>\n'),
}

#: One period of the ad-hoc mix.  Twelve of twenty texts are the two
#: cheap path shapes, so the median is one of those; two are the
#: costliest, so the 95th percentile is the *median* of that shape and
#: not a point on the cliff between two shapes.
ADHOC_PERIOD = ("q1",) * 6 + ("q13",) * 6 + ("q8",) * 6 + ("q9",) * 2

#: Never a tag in the data, so replacing it in an answer is unambiguous.
ADHOC_PLACEHOLDER_TAG = "adhoctag"

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


@dataclass(frozen=True)
class AdhocQuery:
    text: str
    #: The same query with the placeholder tag: the oracle's class key.
    canonical: str
    tag: str
    shape: str


def adhoc_queries(document: GeneratedDocument, seed: int):
    """An endless, seeded stream of distinct ad-hoc query texts."""
    rng = random.Random(seed)
    period = list(ADHOC_PERIOD)
    rng.shuffle(period)
    sellers = sorted(set(document.sellers))[:8]
    index = 0
    while True:
        shape = period[index % len(period)]
        if shape == "q1":
            fields = {"person": rng.choice(sellers),
                      "step": rng.choice(("initial", "current", "quantity"))}
        elif shape == "q13":
            fields = {"region": rng.choice(_REGIONS),
                      "step": rng.choice(("description", "location",
                                          "quantity", "payment"))}
        elif shape == "q8":
            fields = {"role": rng.choice(("buyer", "seller")),
                      "step": rng.choice(("name", "emailaddress"))}
        else:
            fields = {"role": rng.choice(("buyer", "seller")),
                      "region": rng.choice(("europe", "asia", "namerica"))}
        tag = f"{rng.choice(('row', 'hit', 'out', 'res'))}{index}"
        template = ADHOC_SHAPES[shape]
        yield AdhocQuery(
            text=template.format(tag=tag, **fields),
            canonical=template.format(tag=ADHOC_PLACEHOLDER_TAG, **fields),
            tag=tag, shape=shape)
        index += 1


def edit_payload(seed: int) -> str:
    """The XML of the one item ``update_mix`` inserts and deletes."""
    rng = random.Random(seed)
    words = " ".join(rng.choice(("brass", "walnut", "silver", "signed",
                                 "rare", "vintage")) for _ in range(3))
    return (f'<item id="bench{rng.randrange(10**6)}">'
            f"<name>{words}</name></item>")


def with_inserted_item(document_text: str, item_xml: str) -> str:
    """The document text after ``item_xml`` becomes australia's first child."""
    marker = "<australia>"
    if document_text.count(marker) != 1:
        raise ValueError("expected exactly one non-empty <australia> region")
    return document_text.replace(marker, marker + item_xml, 1)


# -- the generator child process -------------------------------------------------

def _generate_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.xmark.generator import generate_document as generate
    from repro.xml.forest import forest_size
    from repro.xml.serializer import forest_to_xml

    site = generate(args.scale, seed=args.seed)
    text = forest_to_xml(site)
    args.out.write_text(text)
    sellers = [
        value.label
        for section in site.children if section.label == "<open_auctions>"
        for auction in section.children
        for child in auction.children if child.label == "<seller>"
        for attr in child.children if attr.label == "@person"
        for value in attr.children
    ]
    print(json.dumps({"nodes": forest_size((site,)), "bytes": len(text),
                      "sellers": sellers}))
    return 0


if __name__ == "__main__":
    sys.exit(_generate_main(sys.argv[1:]))

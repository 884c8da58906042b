"""Deterministic XMark-style document generator.

Entity counts follow the original XMark proportions (items 21750·f,
persons 25500·f, open auctions 12000·f, closed auctions 9750·f,
categories 1000·f at scale factor ``f``), with floors so that tiny scale
factors still produce a joinable document.  All randomness is drawn from a
seeded :class:`random.Random`, so the same (scale, seed) always yields the
same document — benchmark cells in different processes see identical data.

Documents are built directly as :class:`~repro.xml.forest.Node` trees; use
:func:`generate_xml` when text form is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xml.forest import Node, attribute, element, text
from repro.xml.serializer import forest_to_xml

_FIRST_NAMES = (
    "Jaak", "Cong", "Ada", "Grace", "Edsger", "Barbara", "Alan", "Hedy",
    "Radia", "Donald", "Tim", "Margaret", "Dennis", "Bjarne", "Guido",
    "Leslie", "John", "Frances", "Niklaus", "Kathleen",
)
_LAST_NAMES = (
    "Tempesti", "Rosca", "Lovelace", "Hopper", "Dijkstra", "Liskov",
    "Turing", "Lamarr", "Perlman", "Knuth", "Berners", "Hamilton",
    "Ritchie", "Stroustrup", "Rossum", "Lamport", "Backus", "Allen",
    "Wirth", "Booth",
)
_WORDS = (
    "hierarchical", "ordered", "document", "interval", "dynamic", "query",
    "relational", "merge", "join", "auction", "vintage", "pristine",
    "antique", "restored", "original", "collector", "shipping", "worldwide",
    "payment", "creditcard", "money", "order", "condition", "excellent",
    "rare", "signed", "edition", "limited", "catalog", "serial", "brass",
    "walnut", "ceramic", "silver", "engraved", "handmade",
)
_REGIONS = (
    ("africa", 0.055), ("asia", 0.20), ("australia", 0.11),
    ("europe", 0.30), ("namerica", 0.30), ("samerica", 0.035),
)
_COUNTRIES = ("United States", "Germany", "Japan", "Canada", "France",
              "Australia", "Brazil", "Kenya")
_CITIES = ("Waterloo", "San Diego", "Berlin", "Kyoto", "Lyon", "Perth",
           "Nairobi", "Recife")
_AUCTION_TYPES = ("Regular", "Featured", "Dutch")


@dataclass(frozen=True)
class XMarkCounts:
    """Entity counts for one generated document."""

    persons: int
    items: int
    open_auctions: int
    closed_auctions: int
    categories: int

    @property
    def total_entities(self) -> int:
        return (self.persons + self.items + self.open_auctions
                + self.closed_auctions + self.categories)


def counts_for_scale(scale: float) -> XMarkCounts:
    """XMark entity counts at scale factor ``scale`` (with small-scale floors)."""
    return XMarkCounts(
        persons=max(3, round(25500 * scale)),
        items=max(3, round(21750 * scale)),
        open_auctions=max(1, round(12000 * scale)),
        closed_auctions=max(2, round(9750 * scale)),
        categories=max(1, round(1000 * scale)),
    )


def generate_document(scale: float, seed: int = 42,
                      description_richness: float = 1.0) -> Node:
    """Generate an XMark-style ``<site>`` document.

    ``description_richness`` scales the amount of free text in item
    descriptions and annotations (1.0 matches XMark's text-heavy items;
    lower values produce structure-dominated documents for join-focused
    experiments).
    """
    counts = counts_for_scale(scale)
    rng = random.Random(seed)
    builder = _Builder(rng, counts, description_richness)
    return builder.build_site()


def generate_xml(scale: float, seed: int = 42,
                 description_richness: float = 1.0) -> str:
    """Like :func:`generate_document` but returning XML text."""
    return forest_to_xml(generate_document(scale, seed, description_richness))


#: In-process document cache shared with forked benchmark children: the
#: parent generates once per (scale, seed, richness); fork inherits the
#: objects copy-on-write, so cell timeouts never pay generation cost.
_DOCUMENT_CACHE: dict[tuple[float, int, float], Node] = {}


def cached_document(scale: float, seed: int = 42,
                    description_richness: float = 1.0) -> Node:
    """Memoized :func:`generate_document` (same determinism guarantees)."""
    key = (scale, seed, description_richness)
    document = _DOCUMENT_CACHE.get(key)
    if document is None:
        document = generate_document(scale, seed, description_richness)
        _DOCUMENT_CACHE[key] = document
    return document


def seed_document_cache(scale: float, document: Node, seed: int = 42,
                        description_richness: float = 1.0) -> None:
    """Install a pre-generated document under its cache key.

    The spawn-mode benchmark path: a spawned child inherits nothing, so
    the harness pickles the parent's generated document over the pipe
    and the child seeds its own cache with it — :func:`cached_document`
    then behaves identically under ``fork`` and ``spawn``.
    """
    _DOCUMENT_CACHE[(scale, seed, description_richness)] = document


class _Builder:
    def __init__(self, rng: random.Random, counts: XMarkCounts,
                 richness: float):
        self.rng = rng
        self.counts = counts
        self.richness = max(0.0, richness)

    # -- helpers -------------------------------------------------------------

    def words(self, low: int, high: int) -> str:
        count = max(1, round(self.rng.randint(low, high) * self.richness))
        return " ".join(self.rng.choice(_WORDS) for _ in range(count))

    def sentence(self) -> str:
        return self.words(6, 14).capitalize() + "."

    def person_name(self) -> str:
        return f"{self.rng.choice(_FIRST_NAMES)} {self.rng.choice(_LAST_NAMES)}"

    def date(self) -> str:
        return (f"{self.rng.randint(1, 12):02d}/"
                f"{self.rng.randint(1, 28):02d}/"
                f"{self.rng.randint(1998, 2001)}")

    def price(self) -> str:
        return f"{self.rng.randint(1, 500)}.{self.rng.randint(0, 99):02d}"

    def simple(self, tag: str, value: str) -> Node:
        return element(tag, (text(value),))

    # -- document sections ---------------------------------------------------

    def build_site(self) -> Node:
        return element("site", (
            self.build_regions(),
            self.build_categories(),
            self.build_people(),
            self.build_open_auctions(),
            self.build_closed_auctions(),
        ))

    def build_regions(self) -> Node:
        regions: list[Node] = []
        item_id = 0
        remaining = self.counts.items
        for position, (region, share) in enumerate(_REGIONS):
            if position == len(_REGIONS) - 1:
                count = remaining
            else:
                count = min(remaining, round(self.counts.items * share))
            remaining -= count
            items = [self.build_item(item_id + offset) for offset in range(count)]
            item_id += count
            regions.append(element(region, items))
        return element("regions", regions)

    def build_item(self, number: int) -> Node:
        children: list[Node] = [
            attribute("id", f"item{number}"),
            self.simple("location", self.rng.choice(_COUNTRIES)),
            self.simple("quantity", str(self.rng.randint(1, 10))),
            self.simple("name", self.words(2, 4)),
            element("payment", (text("Creditcard, money order"),)),
            self.build_description(),
            element("shipping", (text("Will ship internationally"),)),
        ]
        for _ in range(self.rng.randint(1, 3)):
            children.append(element("incategory", (
                attribute("category",
                          f"category{self.rng.randrange(self.counts.categories)}"),
            )))
        if self.rng.random() < 0.3:
            children.append(self.build_mailbox())
        return element("item", children)

    def build_description(self) -> Node:
        paragraphs = [
            self.simple("text", self.sentence())
            for _ in range(self.rng.randint(1, 3))
        ]
        if len(paragraphs) > 1:
            return element("description", (element("parlist", paragraphs),))
        return element("description", paragraphs)

    def build_mailbox(self) -> Node:
        mails = []
        for _ in range(self.rng.randint(1, 2)):
            mails.append(element("mail", (
                self.simple("from", self.person_name()),
                self.simple("to", self.person_name()),
                self.simple("date", self.date()),
                self.simple("text", self.sentence()),
            )))
        return element("mailbox", mails)

    def build_categories(self) -> Node:
        categories = [
            element("category", (
                attribute("id", f"category{number}"),
                self.simple("name", self.words(1, 3)),
                element("description", (self.simple("text", self.sentence()),)),
            ))
            for number in range(self.counts.categories)
        ]
        return element("categories", categories)

    def build_people(self) -> Node:
        people = [self.build_person(number)
                  for number in range(self.counts.persons)]
        return element("people", people)

    def build_person(self, number: int) -> Node:
        children: list[Node] = [
            attribute("id", f"person{number}"),
            self.simple("name", self.person_name()),
            self.simple("emailaddress",
                        f"mailto:person{number}@example{number % 7}.com"),
        ]
        if self.rng.random() < 0.7:
            children.append(self.simple(
                "phone",
                f"+{self.rng.randint(0, 99)} ({self.rng.randint(10, 999)}) "
                f"{self.rng.randint(1000000, 99999999)}",
            ))
        if self.rng.random() < 0.4:
            children.append(element("address", (
                self.simple("street", f"{self.rng.randint(1, 99)} "
                                      f"{self.rng.choice(_WORDS).title()} St"),
                self.simple("city", self.rng.choice(_CITIES)),
                self.simple("country", self.rng.choice(_COUNTRIES)),
                self.simple("zipcode", str(self.rng.randint(10000, 99999))),
            )))
        if self.rng.random() < 0.5:
            children.append(self.simple(
                "homepage", f"http://www.example{number % 7}.com/~person{number}"
            ))
        if self.rng.random() < 0.3:
            children.append(self.simple(
                "creditcard",
                " ".join(str(self.rng.randint(1000, 9999)) for _ in range(4)),
            ))
        return element("person", children)

    def build_open_auctions(self) -> Node:
        auctions = []
        for number in range(self.counts.open_auctions):
            bidders = []
            for _ in range(self.rng.randint(0, 3)):
                bidders.append(element("bidder", (
                    self.simple("date", self.date()),
                    element("personref", (attribute(
                        "person",
                        f"person{self.rng.randrange(self.counts.persons)}"),)),
                    self.simple("increase", self.price()),
                )))
            auctions.append(element("open_auction", (
                attribute("id", f"open_auction{number}"),
                self.simple("initial", self.price()),
                *bidders,
                self.simple("current", self.price()),
                element("itemref", (attribute(
                    "item", f"item{self.rng.randrange(self.counts.items)}"),)),
                element("seller", (attribute(
                    "person",
                    f"person{self.rng.randrange(self.counts.persons)}"),)),
                self.simple("quantity", str(self.rng.randint(1, 5))),
                self.simple("type", self.rng.choice(_AUCTION_TYPES)),
            )))
        return element("open_auctions", auctions)

    def build_closed_auctions(self) -> Node:
        auctions = []
        for number in range(self.counts.closed_auctions):
            auctions.append(element("closed_auction", (
                element("seller", (attribute(
                    "person",
                    f"person{self.rng.randrange(self.counts.persons)}"),)),
                element("buyer", (attribute(
                    "person",
                    f"person{self.rng.randrange(self.counts.persons)}"),)),
                element("itemref", (attribute(
                    "item", f"item{self.rng.randrange(self.counts.items)}"),)),
                self.simple("price", self.price()),
                self.simple("date", self.date()),
                self.simple("quantity", str(self.rng.randint(1, 5))),
                self.simple("type", self.rng.choice(_AUCTION_TYPES)),
                element("annotation", (
                    self.simple("author", self.person_name()),
                    element("description", (
                        self.simple("text", self.sentence()),)),
                )),
            )))
        return element("closed_auctions", auctions)

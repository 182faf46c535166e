"""Seeded random instance generator for round-trip and context-rule suites.

Generates only models that respect the instance invariants (unique ids,
required fields, ordered periods); corruption helpers then break specific
references on purpose.
"""

from __future__ import annotations

import dataclasses
import random

from xbrlcore import (
    Context,
    Divide,
    Duration,
    Entity,
    Fact,
    Footnote,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    Measures,
    QName,
    RefKind,
    TaxonomyRef,
    Tuple,
    XmlElement,
)
from xbrlcore.constants import ISO4217_NS, LINK_NS, XBRLI_NS, XLINK_NS, XML_NS
from xbrlcore.iso8601 import compare_start_end, parse_point

GEN_NS = "urn:example:generated"

CONCEPTS = ["Assets", "Revenue", "Expenses", "Headcount", "Remark", "Basis"]
WORDS = ["steady", "growth", "audited", "restated", "final", "draft"]
MEASURES = [
    QName(ISO4217_NS, "USD"),
    QName(ISO4217_NS, "EUR"),
    QName(XBRLI_NS, "shares"),
    QName(XBRLI_NS, "pure"),
    QName("urn:example:units", "widgets"),
]
SCHEMES = ["http://example.com/register", "urn:entities"]
ZONES = ["", "Z", "+02:00", "-05:00", "+00:30"]


def random_point_text(rng: random.Random) -> str:
    year = rng.randint(2000, 2020)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    date = f"{year:04d}-{month:02d}-{day:02d}"
    if rng.random() < 0.5:
        return date
    time = f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
    return date + time + rng.choice(ZONES)


def random_period(rng: random.Random):
    roll = rng.random()
    if roll < 0.15:
        return Forever()
    if roll < 0.6:
        return Instant(when=parse_point(random_point_text(rng)))
    while True:
        a = parse_point(random_point_text(rng))
        b = parse_point(random_point_text(rng))
        cmp, _ = compare_start_end(a, b)
        if cmp <= 0:
            return Duration(start=a, end=b)


def random_scenario(rng: random.Random) -> XmlElement:
    inner = XmlElement(
        name=QName(GEN_NS, "basis"),
        children=(rng.choice(["actual", "projected", "budgeted"]),),
    )
    return XmlElement(name=QName(XBRLI_NS, "scenario"), children=(inner,))


def random_context(rng: random.Random, cid: str) -> Context:
    return Context(
        id=cid,
        entity=Entity(scheme=rng.choice(SCHEMES),
                      identifier=rng.choice(["CO-A", "CO-B", "CO-C"])),
        period=random_period(rng),
        scenario=random_scenario(rng) if rng.random() < 0.3 else None,
    )


def random_unit(rng: random.Random, uid: str):
    from xbrlcore import Unit

    if rng.random() < 0.3:
        return Unit(id=uid, body=Divide(
            numerator=(rng.choice(MEASURES),),
            denominator=(rng.choice(MEASURES),),
        ))
    count = rng.randint(1, 2)
    return Unit(id=uid, body=Measures(
        measures=tuple(rng.choice(MEASURES) for _ in range(count))
    ))


class _Ids:
    def __init__(self):
        self.counter = 0
        self.item_ids: list[str] = []

    def next_id(self) -> str:
        self.counter += 1
        fact_id = f"f{self.counter}"
        self.item_ids.append(fact_id)
        return fact_id


def random_item(rng: random.Random, ids: _Ids, ctx_ids: list[str],
                unit_ids: list[str]) -> Item:
    numeric = rng.random() < 0.6
    if numeric:
        value = str(rng.randint(-10_000, 10_000_000))
        if rng.random() < 0.3:
            value += f".{rng.randint(0, 99):02d}"
    else:
        value = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
    decimals = precision = None
    if numeric and rng.random() < 0.5:
        if rng.random() < 0.5:
            decimals = rng.choice(["0", "2", "-3", "INF"])
        else:
            precision = rng.choice(["4", "12", "INF"])
    return Item(
        concept=QName(GEN_NS, rng.choice(CONCEPTS)),
        context_ref=rng.choice(ctx_ids),
        value=value,
        unit_ref=rng.choice(unit_ids) if unit_ids and numeric else None,
        decimals=decimals,
        precision=precision,
        id=ids.next_id(),
    )


def random_fact(rng: random.Random, ids: _Ids, ctx_ids: list[str],
                unit_ids: list[str], depth: int) -> Fact:
    if depth < 3 and rng.random() < 0.25:
        children = tuple(
            random_fact(rng, ids, ctx_ids, unit_ids, depth + 1)
            for _ in range(rng.randint(0, 3))
        )
        return Tuple(concept=QName(GEN_NS, rng.choice(CONCEPTS) + "Group"),
                     children=children)
    return random_item(rng, ids, ctx_ids, unit_ids)


def random_footnote_link(rng: random.Random, item_ids: list[str]) -> FootnoteLink:
    loc_label = "loc-1"
    note_label = "note-1"
    content = XmlElement(
        name=QName(LINK_NS, "footnote"),
        attributes={
            QName(XLINK_NS, "type"): "resource",
            QName(XLINK_NS, "label"): note_label,
            QName(XML_NS, "lang"): "en",
        },
        children=(" ".join(rng.sample(WORDS, 2)),),
    )
    # Locators may share a label (the arc then applies to each of them),
    # and the link may carry a role: both must survive a round trip.
    targets = rng.sample(item_ids, min(len(item_ids), rng.randint(1, 2)))
    return FootnoteLink(
        locators=tuple((loc_label, "#" + target) for target in targets),
        footnotes=((note_label, Footnote(content=content, language="en")),),
        arcs=(FootnoteArc(
            from_label=loc_label, to_label=note_label,
            arc_role="http://www.xbrl.org/2003/arcrole/fact-footnote",
        ),),
        role=rng.choice(["", "http://www.xbrl.org/2003/role/link"]),
    )


def random_instance(rng: random.Random) -> Instance:
    ctx_ids = [f"c{i}" for i in range(rng.randint(1, 4))]
    unit_ids = [f"u{i}" for i in range(rng.randint(0, 3))]
    ids = _Ids()
    facts = tuple(
        random_fact(rng, ids, ctx_ids, unit_ids, depth=1)
        for _ in range(rng.randint(0, 8))
    )
    links = ()
    if ids.item_ids and rng.random() < 0.4:
        links = (random_footnote_link(rng, ids.item_ids),)
    schema_refs = ()
    if rng.random() < 0.3:
        schema_refs = (TaxonomyRef("gen-taxonomy.xsd", RefKind.SCHEMA),)
    return Instance(
        schema_refs=schema_refs,
        contexts={cid: random_context(rng, cid) for cid in ctx_ids},
        units={uid: random_unit(rng, uid) for uid in unit_ids},
        facts=facts,
        footnote_links=links,
    )


def corrupt_context_refs(rng: random.Random, instance: Instance) -> Instance:
    """Point roughly a third of the items at nonexistent context ids."""
    counter = [0]

    def rebuild(fact: Fact) -> Fact:
        if isinstance(fact, Item):
            if rng.random() < 0.35:
                counter[0] += 1
                return dataclasses.replace(fact, context_ref=f"ghost-{counter[0]}")
            return fact
        return dataclasses.replace(
            fact, children=tuple(rebuild(ch) for ch in fact.children)
        )

    return dataclasses.replace(
        instance, facts=tuple(rebuild(f) for f in instance.facts)
    )

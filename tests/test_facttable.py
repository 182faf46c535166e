from __future__ import annotations

import random

import pytest

import gen
from conftest import FIXTURES
from xbrlcore import (
    Context,
    Duration,
    Entity,
    FactRow,
    Forever,
    Instance,
    Instant,
    Item,
    ParseMode,
    ParseOptions,
    QName,
    Tuple,
    Unit,
    XmlReadError,
    fact_rows,
    find_instances,
    read_document,
)
from xbrlcore.facttable import _period_text, _unit_text
from xbrlcore.iso8601 import parse_point

EX = "urn:example:facts"
ISO4217 = "http://www.xbrl.org/2003/iso4217"


def reference_rows(instance: Instance) -> list[FactRow]:
    """The straightforward per-row rendering that fact_rows must match."""
    rows: list[FactRow] = []

    def emit(item: Item, path: tuple[str, ...]) -> None:
        context = instance.contexts.get(item.context_ref)
        unit = instance.units.get(item.unit_ref) if item.unit_ref else None
        rows.append(FactRow(
            concept=item.concept.clark(),
            value=item.value,
            context_id=item.context_ref,
            entity=context.entity.identifier if context else "",
            period=_period_text(context.period) if context else "",
            unit=_unit_text(unit) if unit else "",
            tuple_path="/".join(path),
        ))

    def walk(facts, path: tuple[str, ...]) -> None:
        for fact in facts:
            if isinstance(fact, Item):
                emit(fact, path)
            elif isinstance(fact, Tuple):
                walk(fact.children, path + (fact.concept.clark(),))

    walk(instance.facts, ())
    return rows


def fixture_instances() -> list:
    found = []
    for path in sorted(FIXTURES.iterdir()):
        if not path.is_file():
            continue
        try:
            root = read_document(path.read_bytes())
        except XmlReadError:
            continue
        outcomes = find_instances(root, ParseOptions(mode=ParseMode.LENIENT))
        for n, outcome in enumerate(outcomes):
            found.append(pytest.param(outcome.instance, id=f"{path.name}-{n}"))
    return found


@pytest.mark.parametrize("instance", fixture_instances())
def test_fact_rows_match_reference_on_fixtures(instance):
    assert fact_rows(instance) == reference_rows(instance)


def test_fact_rows_match_reference_on_awkward_references():
    def item(local, ctx="c1", unit=None, value="1"):
        return Item(concept=QName(EX, local), context_ref=ctx, value=value, unit_ref=unit)

    entity = Entity(scheme="urn:scheme", identifier="CO")
    instance = Instance(
        contexts={
            "c1": Context("c1", entity, Instant(parse_point("2008-12-31"))),
            "c2": Context("c2", entity, Duration(parse_point("2008-01-01"),
                                                 parse_point("2008-12-31T24:00:00Z"))),
            "c3": Context("c3", entity, Forever()),
        },
        units={
            "usd": Unit("usd", (QName(ISO4217, "USD"),)),
            "eps": Unit("eps", (QName(ISO4217, "USD"),),
                        (QName(EX, "shares"), QName("", "bare"))),
        },
        facts=(
            item("A", unit="usd"),
            item("A", ctx="ghost", unit="usd"),
            item("B", ctx="c2", unit="nowhere"),
            item("C", ctx="c3", unit="eps"),
            item("D", unit=""),
            Tuple(QName(EX, "Outer"), children=(
                item("A", ctx="c2", unit="eps"),
                Tuple(QName(EX, "Inner"), children=(
                    item("B", ctx="ghost"),
                    Tuple(QName(EX, "Empty")),
                )),
                item("C", ctx="c3"),
            )),
            Tuple(QName(EX, "Outer"), children=(item("A"),)),
        ),
    )
    rows = fact_rows(instance)
    assert rows == reference_rows(instance)
    assert [(r.entity, r.period, r.unit) for r in rows[1:3]] == [
        ("", "", "{%s}USD" % ISO4217), ("CO", "D:2008-01-01/2008-12-31T24:00:00Z", ""),
    ]
    assert {r.tuple_path for r in rows} == {
        "", "{%s}Outer" % EX, "{%s}Outer/{%s}Inner" % (EX, EX),
    }


def test_fact_rows_match_reference_on_generated_instances():
    rng = random.Random(20081231)
    for _ in range(100):
        instance = gen.corrupt_context_refs(rng, gen.random_instance(rng))
        assert fact_rows(instance) == reference_rows(instance)


def test_fact_rows_and_fact_count_walk_a_chain_deeper_than_the_recursion_limit():
    fact = Item(concept=QName(EX, "V"), context_ref="c", value="1")
    for _ in range(2000):
        fact = Tuple(concept=QName(EX, "T"), children=(fact,))
    instance = Instance(facts=(fact, Item(concept=QName(EX, "W"), context_ref="c")))
    assert instance.fact_count() == 2002
    assert [f.concept.local_name for f in instance.iter_facts()] == ["T"] * 2000 + ["V", "W"]
    (leaf, leaf_ancestors), (last, last_ancestors) = list(instance.walk())[-2:]
    assert (leaf.concept.local_name, len(leaf_ancestors)) == ("V", 2000)
    assert (last.concept.local_name, last_ancestors) == ("W", ())
    rows = fact_rows(instance)
    assert [(r.concept, r.tuple_path) for r in rows] == [
        (f"{{{EX}}}V", "/".join([f"{{{EX}}}T"] * 2000)), (f"{{{EX}}}W", "")]

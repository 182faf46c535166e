from __future__ import annotations

import pytest

import oracle_xml
from conftest import fixture_bytes
from xbrlcore import (
    Divide,
    Duration,
    Forever,
    Instant,
    Item,
    Measures,
    ParseMode,
    ParseOptions,
    QName,
    RefKind,
    Tuple,
    UnboundPrefix,
    find_instances,
    parse_instance,
    parse_period,
    parse_unit,
    read_document,
    serialize,
)
from xbrlcore.parser import (
    DuplicateContextId,
    DuplicateUnitId,
    EmptyUnit,
    InvalidIso8601,
    InvalidItemAttributes,
    InvalidPeriodShape,
    MalformedDivide,
    MissingContextRef,
    NotAnXbrlRoot,
    StartAfterEnd,
    TupleDepthExceeded,
)

XBRLI = "http://www.xbrl.org/2003/instance"
ISO4217 = "http://www.xbrl.org/2003/iso4217"
EX = "http://example.com/taxonomy/mini"
LENIENT = ParseOptions(mode=ParseMode.LENIENT)


def wrap(body: str) -> bytes:
    return (
        '<?xml version="1.0"?>'
        '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:link="http://www.xbrl.org/2003/linkbase"'
        ' xmlns:xlink="http://www.w3.org/1999/xlink"'
        ' xmlns:iso4217="http://www.xbrl.org/2003/iso4217"'
        ' xmlns:ex="http://example.com/taxonomy/mini">'
        f"{body}</xbrli:xbrl>"
    ).encode()


CONTEXT = (
    '<xbrli:context id="c1"><xbrli:entity>'
    '<xbrli:identifier scheme="urn:reg">CO</xbrli:identifier></xbrli:entity>'
    "<xbrli:period><xbrli:instant>2008-12-31</xbrli:instant></xbrli:period>"
    "</xbrli:context>"
)
UNIT = '<xbrli:unit id="u1"><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unit>'


def element(markup: bytes):
    return read_document(markup).root


# ---------------------------------------------------------------------------
# parse_instance
# ---------------------------------------------------------------------------


def test_minimal_document():
    data = wrap(
        '<link:schemaRef xlink:type="simple" xlink:href="t.xsd"/>'
        + CONTEXT + UNIT
        + '<ex:Assets contextRef="c1" unitRef="u1">10</ex:Assets>'
    )
    instance = parse_instance(read_document(data)).instance
    assert len(instance.contexts) == 1
    assert len(instance.units) == 1
    assert len(instance.facts) == 1
    assert instance.schema_refs[0].href == "t.xsd"
    assert instance.schema_refs[0].kind is RefKind.SCHEMA


def test_empty_root_is_empty_instance():
    outcome = parse_instance(read_document(wrap("")))
    assert outcome.instance == parse_instance(read_document(wrap(""))).instance
    assert outcome.instance.fact_count() == 0
    assert not outcome.recovered_findings


def test_fixture_counts_match_oracle():
    data = fixture_bytes("mini-instance.xml")
    oracle_root = oracle_xml.outer_xbrl_roots(oracle_xml.parse(data))[0]
    outcome = parse_instance(read_document(data))
    instance = outcome.instance
    assert instance.fact_count() == oracle_xml.count_facts(oracle_root) == 7
    assert len(instance.contexts) == len(oracle_xml.context_ids(oracle_root)) == 2
    assert len(instance.units) == 1
    assert len(instance.footnote_links) == 1
    assert not outcome.recovered_findings


def test_not_an_xbrl_root():
    with pytest.raises(NotAnXbrlRoot):
        parse_instance(read_document(b"<a/>"))


def test_duplicate_context_id():
    with pytest.raises(DuplicateContextId):
        parse_instance(read_document(wrap(CONTEXT + CONTEXT)))


def test_duplicate_unit_id():
    with pytest.raises(DuplicateUnitId):
        parse_instance(read_document(wrap(UNIT + UNIT)))


def test_missing_context_ref_strict_vs_lenient():
    data = wrap(CONTEXT + "<ex:Assets>10</ex:Assets>")
    with pytest.raises(MissingContextRef) as err:
        parse_instance(read_document(data))
    assert err.value.location.line >= 1  # blocking errors carry their position
    outcome = parse_instance(read_document(data), LENIENT)
    assert outcome.instance.fact_count() == 0
    assert [f.code for f in outcome.recovered_findings] == ["CTX-002"]


def test_dangling_context_ref_is_not_a_parse_error():
    data = wrap('<ex:Assets contextRef="ghost">10</ex:Assets>')
    instance = parse_instance(read_document(data)).instance
    assert instance.facts[0].context_ref == "ghost"


def test_root_children_order_free():
    data = wrap('<ex:Assets contextRef="c1">10</ex:Assets>' + CONTEXT)
    instance = parse_instance(read_document(data)).instance
    assert len(instance.contexts) == 1 and len(instance.facts) == 1


def test_item_value_trimmed_and_attrs_kept():
    data = wrap(CONTEXT + '<ex:Assets id="f1" contextRef="c1" decimals="0">\n  42 \n</ex:Assets>')
    fact = parse_instance(read_document(data)).instance.facts[0]
    assert fact == Item(concept=QName(EX, "Assets"), context_ref="c1",
                        value="42", decimals="0", id="f1")


def test_decimals_and_precision_conflict():
    data = wrap(CONTEXT + '<ex:A contextRef="c1" decimals="0" precision="4">1</ex:A>')
    with pytest.raises(InvalidItemAttributes):
        parse_instance(read_document(data))
    outcome = parse_instance(read_document(data), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["ITM-001"]
    assert outcome.instance.facts[0].decimals == "0"
    assert outcome.instance.facts[0].precision is None


def test_invalid_decimals_lexical():
    data = wrap(CONTEXT + '<ex:A contextRef="c1" decimals="many">1</ex:A>')
    with pytest.raises(InvalidItemAttributes):
        parse_instance(read_document(data))
    outcome = parse_instance(read_document(data), LENIENT)
    assert outcome.instance.facts[0].decimals is None
    assert [f.code for f in outcome.recovered_findings] == ["ITM-001"]


def test_tuple_classification_and_nesting():
    data = wrap(CONTEXT + (
        "<ex:Outer>"
        '<ex:Leaf contextRef="c1">1</ex:Leaf>'
        "<ex:Inner><ex:Deep contextRef=\"c1\">2</ex:Deep></ex:Inner>"
        "</ex:Outer>"
    ))
    instance = parse_instance(read_document(data)).instance
    outer = instance.facts[0]
    assert isinstance(outer, Tuple)
    assert isinstance(outer.children[0], Item)
    assert isinstance(outer.children[1], Tuple)
    assert instance.fact_count() == 4


def test_tuple_depth_guard():
    markup = "<ex:L0 xmlns:q=\"urn:q\">"
    for i in range(1, 5):
        markup += f"<ex:L{i}>"
    markup += '<ex:V contextRef="c1">1</ex:V>'
    for i in reversed(range(1, 5)):
        markup += f"</ex:L{i}>"
    markup += "</ex:L0>"
    data = wrap(CONTEXT + markup)
    shallow = ParseOptions(max_tuple_depth=3)
    with pytest.raises(TupleDepthExceeded):
        parse_instance(read_document(data), shallow)
    lenient_shallow = ParseOptions(mode=ParseMode.LENIENT, max_tuple_depth=3)
    outcome = parse_instance(read_document(data), lenient_shallow)
    assert [f.code for f in outcome.recovered_findings] == ["T-DEPTH"]
    assert outcome.instance.fact_count() == 3  # L0..L2 survive, deeper truncated
    # generous cap parses everything
    assert parse_instance(read_document(data)).instance.fact_count() == 6


def test_tuple_context_ref_recorded_not_resolved():
    data = wrap(CONTEXT + '<ex:T contextRef="c1"><ex:V contextRef="c1">1</ex:V></ex:T>')
    tup = parse_instance(read_document(data)).instance.facts[0]
    assert isinstance(tup, Tuple) and tup.context_ref == "c1"


def test_footnote_link_parsed():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    link = instance.footnote_links[0]
    assert link.locators == {"assets": "#f-assets"}
    assert set(link.footnotes) == {"note-1"}
    assert link.footnotes["note-1"].language == "en"
    arc = link.arcs[0]
    assert (arc.from_label, arc.to_label) == ("assets", "note-1")
    assert arc.arc_role.endswith("fact-footnote")


def test_linkbase_ref_captured():
    data = wrap('<link:linkbaseRef xlink:type="simple" xlink:href="labels.xml"/>')
    instance = parse_instance(read_document(data)).instance
    assert instance.linkbase_refs[0].href == "labels.xml"
    assert instance.linkbase_refs[0].kind is RefKind.LINKBASE


# ---------------------------------------------------------------------------
# parse_period
# ---------------------------------------------------------------------------


def period_element(inner: str):
    data = wrap(CONTEXT.replace(
        "<xbrli:period><xbrli:instant>2008-12-31</xbrli:instant></xbrli:period>",
        f"<xbrli:period>{inner}</xbrli:period>",
    ))
    context_el = read_document(data).root.child_elements()[0]
    return context_el.child_elements()[1]


def test_parse_period_instant():
    period = parse_period(period_element("<xbrli:instant>2008-12-31</xbrli:instant>"))
    assert isinstance(period, Instant)
    assert period.when.raw == "2008-12-31"


def test_parse_period_duration():
    period = parse_period(period_element(
        "<xbrli:startDate>2008-01-01</xbrli:startDate>"
        "<xbrli:endDate>2008-12-31</xbrli:endDate>"
    ))
    assert isinstance(period, Duration)


def test_parse_period_forever():
    assert parse_period(period_element("<xbrli:forever/>")) == Forever()


def test_parse_period_start_after_end():
    with pytest.raises(StartAfterEnd):
        parse_period(period_element(
            "<xbrli:startDate>2008-12-31</xbrli:startDate>"
            "<xbrli:endDate>2008-01-01</xbrli:endDate>"
        ))


def test_parse_period_bad_lexical():
    with pytest.raises(InvalidIso8601):
        parse_period(period_element("<xbrli:instant>2008-13-01</xbrli:instant>"))


def test_parse_period_bad_shape():
    with pytest.raises(InvalidPeriodShape):
        parse_period(period_element("<xbrli:startDate>2008-01-01</xbrli:startDate>"))
    with pytest.raises(InvalidPeriodShape):
        parse_period(period_element(""))


def test_lenient_period_recovery_drops_context():
    outcome = parse_instance(read_document(fixture_bytes("bad-period.xml")), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["PER-001", "PER-002"]
    assert outcome.instance.contexts == {}
    with pytest.raises(InvalidIso8601):
        parse_instance(read_document(fixture_bytes("bad-period.xml")))


# ---------------------------------------------------------------------------
# parse_unit
# ---------------------------------------------------------------------------


def unit_element(inner: str, unit_id: str = "u1"):
    data = wrap(f'<xbrli:unit id="{unit_id}">{inner}</xbrli:unit>')
    return read_document(data).root.child_elements()[0]


def test_parse_unit_single_measure():
    unit = parse_unit(unit_element("<xbrli:measure>iso4217:USD</xbrli:measure>"))
    assert unit.body == Measures(measures=(QName(ISO4217, "USD"),))


def test_parse_unit_divide():
    unit = parse_unit(unit_element(
        "<xbrli:divide>"
        "<xbrli:unitNumerator><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unitNumerator>"
        "<xbrli:unitDenominator><xbrli:measure>xbrli:shares</xbrli:measure></xbrli:unitDenominator>"
        "</xbrli:divide>"
    ))
    assert unit.body == Divide(
        numerator=(QName(ISO4217, "USD"),),
        denominator=(QName(XBRLI, "shares"),),
    )


def test_parse_unit_empty():
    with pytest.raises(EmptyUnit):
        parse_unit(unit_element(""))


def test_parse_unit_malformed_divide():
    with pytest.raises(MalformedDivide):
        parse_unit(unit_element(
            "<xbrli:divide><xbrli:unitNumerator>"
            "<xbrli:measure>iso4217:USD</xbrli:measure>"
            "</xbrli:unitNumerator></xbrli:divide>"
        ))


def test_parse_unit_unbound_measure_prefix():
    with pytest.raises(UnboundPrefix):
        parse_unit(unit_element("<xbrli:measure>nope:USD</xbrli:measure>"))


# ---------------------------------------------------------------------------
# find_instances
# ---------------------------------------------------------------------------


def test_find_instances_plain_document():
    outcomes = find_instances(read_document(fixture_bytes("mini-instance.xml")))
    assert len(outcomes) == 1


def test_find_instances_two_siblings():
    data = (
        b'<wrap xmlns:x="http://www.xbrl.org/2003/instance">'
        b"<x:xbrl/><x:xbrl/></wrap>"
    )
    assert len(find_instances(read_document(data))) == 2


def test_find_instances_no_xbrl_is_empty():
    assert find_instances(read_document(b"<a><b/></a>")) == []


def test_find_instances_skips_nested_and_reports_in_lenient():
    data = fixture_bytes("mini-embedded.xml")
    oracle_outer = oracle_xml.outer_xbrl_roots(oracle_xml.parse(data))
    outcomes = find_instances(read_document(data), LENIENT)
    assert len(outcomes) == len(oracle_outer) == 2
    # outer-first document order, matching the oracle's ancestry walk
    got_entities = [next(iter(o.instance.contexts.values())).entity.identifier
                    for o in outcomes]
    assert got_entities == ["ALPHA", "BETA"]
    assert [f.code for f in outcomes[0].recovered_findings] == []
    assert [f.code for f in outcomes[1].recovered_findings] == ["EMB-001"]
    # the nested instance's contexts never leak into the outer one
    assert set(outcomes[1].instance.contexts) == {"c1"}


def test_find_instances_strict_mode_stays_silent_about_nesting():
    outcomes = find_instances(read_document(fixture_bytes("mini-embedded.xml")))
    assert [o.recovered_findings for o in outcomes] == [(), ()]


# ---------------------------------------------------------------------------
# serialize / round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "mini-instance.xml", "bad-ctxref.xml", "bad-monetary-unit.xml",
    "bad-footnote.xml", "bad-warnings.xml", "cycle-instance.xml",
])
def test_round_trip_fixture(name):
    first = parse_instance(read_document(fixture_bytes(name))).instance
    second = parse_instance(read_document(serialize(first))).instance
    assert first == second


def test_serialize_empty_instance_has_xbrl_root():
    from xbrlcore import Instance

    tree = read_document(serialize(Instance()))
    assert tree.root.name == QName(XBRLI, "xbrl")
    assert tree.root.child_elements() == []


def test_serialize_divide_unit_keeps_both_legs():
    data = wrap(
        '<xbrli:unit id="u-ratio"><xbrli:divide>'
        "<xbrli:unitNumerator><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unitNumerator>"
        "<xbrli:unitDenominator><xbrli:measure>xbrli:shares</xbrli:measure></xbrli:unitDenominator>"
        "</xbrli:divide></xbrli:unit>"
    )
    instance = parse_instance(read_document(data)).instance
    output = serialize(instance)
    assert b"divide" in output and b"unitNumerator" in output and b"unitDenominator" in output
    again = parse_instance(read_document(output)).instance
    assert again.units["u-ratio"].body == instance.units["u-ratio"].body


def test_round_trip_idempotent_at_tree_level():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    once = serialize(instance)
    twice = serialize(parse_instance(read_document(once)).instance)
    assert once == twice


# ---------------------------------------------------------------------------
# classification details
# ---------------------------------------------------------------------------


def test_empty_element_classifies_as_empty_tuple():
    data = wrap(CONTEXT + "<ex:Group/>")
    instance = parse_instance(read_document(data)).instance
    fact = instance.facts[0]
    assert isinstance(fact, Tuple) and fact.children == ()


def test_empty_element_with_item_attributes_stays_item():
    data = wrap(CONTEXT + UNIT + '<ex:Assets contextRef="c1" unitRef="u1"/>')
    fact = parse_instance(read_document(data)).instance.facts[0]
    assert isinstance(fact, Item) and fact.value == ""
    # without contextRef but with a unitRef it is still item-shaped
    bad = wrap(CONTEXT + UNIT + '<ex:Assets unitRef="u1"/>')
    with pytest.raises(MissingContextRef):
        parse_instance(read_document(bad))


def test_schema_refs_retain_document_order():
    data = wrap(
        '<link:schemaRef xlink:type="simple" xlink:href="z.xsd"/>'
        '<link:schemaRef xlink:type="simple" xlink:href="a.xsd"/>'
        '<link:linkbaseRef xlink:type="simple" xlink:href="m.xml"/>'
    )
    instance = parse_instance(read_document(data)).instance
    assert [r.href for r in instance.schema_refs] == ["z.xsd", "a.xsd"]
    assert [r.href for r in instance.linkbase_refs] == ["m.xml"]


def test_undefined_entity_is_malformed():
    from xbrlcore import MalformedXml

    with pytest.raises(MalformedXml):
        read_document(b"<a>&unknown;</a>")

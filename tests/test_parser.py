from __future__ import annotations

import hashlib
import random

import pytest

import gen
import oracle_xml
from conftest import fixture_bytes
from xbrlcore import (
    Duration,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    ParseError,
    ParseMode,
    ParseOptions,
    QName,
    TaxonomyRef,
    Tuple,
    UnboundPrefix,
    Unit,
    XmlElement,
    fact_rows,
    find_instances,
    parse_instance,
    read_document,
    serialize,
    validate,
)
from xbrlcore.parser import (
    _parse_period,
    _parse_unit,
    DuplicateContextId,
    DuplicateUnitId,
    EmptyUnit,
    InvalidContextShape,
    InvalidIso8601,
    InvalidItemAttributes,
    InvalidPeriodShape,
    MalformedDivide,
    MalformedFootnoteLink,
    MissingContextRef,
    NotAnXbrlRoot,
    StartAfterEnd,
    TupleDepthExceeded,
)
from xbrlcore.cli import main
from xbrlcore.constants import LINK_NS, XLINK_NS, XML_NS

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
    assert instance.schema_refs == (TaxonomyRef("t.xsd"),)


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


def test_only_xml_whitespace_is_trimmed():
    data = wrap(
        CONTEXT
        + '<ex:Note contextRef="c1"> \u3000\u6ce8\u8a18\n</ex:Note>'
        + '<ex:Blank contextRef="c1">\t\u00a0 </ex:Blank>'
    )
    instance = parse_instance(read_document(data)).instance
    values = ["\u3000\u6ce8\u8a18", "\u00a0"]
    assert [item.value for item in instance.iter_items()] == values
    assert [row.value for row in fact_rows(instance)] == values
    assert parse_instance(read_document(serialize(instance))).instance == instance
    # a date padded with a non-XML space is not a date
    padded = wrap(CONTEXT.replace("2008-12-31", "\u00a02008-12-31"))
    with pytest.raises(InvalidIso8601):
        parse_instance(read_document(padded))
    outcome = parse_instance(read_document(padded), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["PER-001"]


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


@pytest.mark.parametrize("attribute, text, raw", [
    ("decimals", "\u0662", "\u0662"),          # an Arabic-Indic digit is not [0-9]
    ("decimals", "2&#10;3", "2\n3"),           # a referenced line feed survives normalization
    ("precision", "1\u0662", "1\u0662"),
])
def test_decimals_and_precision_take_only_ascii_digits(attribute, text, raw):
    data = wrap(CONTEXT + f'<ex:A contextRef="c1" {attribute}="{text}">1</ex:A>')
    with pytest.raises(InvalidItemAttributes) as info:
        parse_instance(read_document(data))
    assert str(info.value) == f"invalid {attribute} value {raw!r}"
    outcome = parse_instance(read_document(data), LENIENT)
    assert getattr(outcome.instance.facts[0], attribute) is None
    assert [(f.code, f.message) for f in outcome.recovered_findings] == [
        ("ITM-001", f"invalid {attribute} value {raw!r} ignored")]


@pytest.mark.parametrize("attribute, text, value", [
    ("decimals", " 2", "2"),
    ("precision", "4 ", "4"),
    ("decimals", "&#9;-3&#10;", "-3"),   # referenced tab and line feed survive normalization
])
def test_decimals_and_precision_collapse_surrounding_whitespace(attribute, text, value):
    # Both are XML Schema integer-based types, whose whitespace facet is collapse.
    data = wrap(CONTEXT + UNIT
                + f'<ex:A contextRef="c1" unitRef="u1" {attribute}="{text}">1</ex:A>')
    instance = parse_instance(read_document(data)).instance
    assert getattr(instance.facts[0], attribute) == value
    again = parse_instance(read_document(serialize(instance))).instance
    assert again == instance
    assert getattr(again.facts[0], attribute) == value


def test_whitespace_inside_decimals_is_still_invalid():
    data = wrap(CONTEXT + '<ex:A contextRef="c1" decimals="2 3">1</ex:A>')
    with pytest.raises(InvalidItemAttributes) as info:
        parse_instance(read_document(data))
    assert str(info.value) == "invalid decimals value '2 3'"
    outcome = parse_instance(read_document(data), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["ITM-001"]


def test_a_decimals_value_is_not_taken_for_a_precision_value():
    # "-2" and "0" are valid decimals but not valid precision; each attribute
    # is checked against its own lexical space, whatever came before it.
    data = wrap(CONTEXT
                + '<ex:A contextRef="c1" decimals="-2">1</ex:A>'
                + '<ex:B contextRef="c1" decimals="0">1</ex:B>'
                + '<ex:C contextRef="c1" precision="-2">1</ex:C>'
                + '<ex:D contextRef="c1" precision="0">1</ex:D>')
    outcome = parse_instance(read_document(data), LENIENT)
    assert [(f.decimals, f.precision) for f in outcome.instance.facts] == [
        ("-2", None), ("0", None), (None, None), (None, None)]
    assert [f.message for f in outcome.recovered_findings] == [
        "invalid precision value '-2' ignored", "invalid precision value '0' ignored"]


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
    def nested(levels: int) -> bytes:
        markup = "".join(f"<ex:L{i}>" for i in range(levels))
        markup += '<ex:V contextRef="c1">1</ex:V>'
        markup += "".join(f"</ex:L{i}>" for i in reversed(range(levels)))
        return wrap(CONTEXT + markup)

    # the guard is DEFAULT_MAX_TUPLE_DEPTH (64) tuple levels
    with pytest.raises(TupleDepthExceeded):
        parse_instance(read_document(nested(65)))
    outcome = parse_instance(read_document(nested(65)), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["T-DEPTH"]
    assert outcome.instance.fact_count() == 64  # L0..L63 survive, deeper truncated
    # at the guard everything parses
    assert parse_instance(read_document(nested(64))).instance.fact_count() == 65


def test_tuple_context_ref_recorded_not_resolved():
    data = wrap(CONTEXT + '<ex:T contextRef="c1"><ex:V contextRef="c1">1</ex:V></ex:T>')
    tup = parse_instance(read_document(data)).instance.facts[0]
    assert isinstance(tup, Tuple) and tup.context_ref == "c1"


def test_footnote_link_parsed():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    link = instance.footnote_links[0]
    assert link.locators == (("assets", "#f-assets"),)
    [note] = link.footnotes
    assert note.attributes[QName(XLINK_NS, "label")] == "note-1"
    assert note.attributes[QName(XML_NS, "lang")] == "en"
    assert link.role == ""
    arc = link.arcs[0]
    assert (arc.from_label, arc.to_label) == ("assets", "note-1")
    assert arc.arc_role.endswith("fact-footnote")


def test_footnote_link_keeps_shared_labels_and_role():
    role = "http://www.xbrl.org/2003/role/link"
    data = wrap(
        CONTEXT
        + '<ex:V id="f1" contextRef="c1">1</ex:V><ex:V id="f2" contextRef="c1">2</ex:V>'
        + f'<link:footnoteLink xlink:type="extended" xlink:role="{role}">'
        '<link:loc xlink:type="locator" xlink:label="fact" xlink:href="#f1"/>'
        '<link:loc xlink:type="locator" xlink:label="fact" xlink:href="#f2"/>'
        '<link:footnote xlink:type="resource" xlink:label="note" xml:lang="en">n</link:footnote>'
        '<link:footnoteArc xlink:type="arc" xlink:arcrole="urn:fact-footnote" '
        'xlink:from="fact" xlink:to="note"/>'
        "</link:footnoteLink>"
    )
    instance = parse_instance(read_document(data)).instance
    link = instance.footnote_links[0]
    assert link.locators == (("fact", "#f1"), ("fact", "#f2"))
    assert link.role == role
    text = serialize(instance).decode()
    assert text.count("<link:loc ") == 2 and f'xlink:role="{role}"' in text
    assert parse_instance(read_document(text.encode())).instance == instance
    assert not [f for f in validate(instance).findings if f.code == "FTN-001"]


@pytest.mark.parametrize("attributes", [
    {QName(XLINK_NS, "label"): "note", QName(XML_NS, "lang"): "en"},
    {QName(XLINK_NS, "label"): "note"},
], ids=["with-lang", "without-lang"])
def test_a_footnote_is_its_element_through_serialize(attributes):
    # A footnote's label and language are its element's attributes, so what
    # serialize writes is all there is to read back.
    note = XmlElement(QName(LINK_NS, "footnote"), attributes, ("a note",))
    link = FootnoteLink(locators=(("fact", "#f1"),), footnotes=(note,),
                        arcs=(FootnoteArc("fact", "note", "urn:fact-footnote"),))
    instance = Instance(facts=(Item(QName("urn:ex", "V"), "c1", "1", id="f1"),),
                        footnote_links=(link,))
    again = parse_instance(read_document(serialize(instance))).instance
    assert again == instance
    assert again.footnote_links[0].footnotes[0].attributes == attributes


def test_an_empty_footnote_link_round_trips():
    link = '<link:footnoteLink xlink:type="extended" xlink:role="urn:role"/>'
    instance = parse_instance(read_document(wrap(link))).instance
    assert len(instance.footnote_links) == 1
    text = serialize(instance)
    assert link.encode() in text
    assert parse_instance(read_document(text)).instance == instance


def test_linkbase_ref_captured():
    data = wrap('<link:linkbaseRef xlink:type="simple" xlink:href="labels.xml"/>')
    instance = parse_instance(read_document(data)).instance
    assert instance.linkbase_refs == (TaxonomyRef("labels.xml"),)


def test_linkbase_ref_keeps_role_and_arcrole():
    role = "http://www.xbrl.org/2003/role/labelLinkbaseRef"
    arcrole = "http://www.w3.org/1999/xlink/properties/linkbase"
    data = wrap(
        '<link:linkbaseRef xlink:type="simple" xlink:href="labels.xml"'
        f' xlink:role="{role}" xlink:arcrole="{arcrole}"/>'
    )
    instance = parse_instance(read_document(data)).instance
    assert instance.linkbase_refs == (TaxonomyRef("labels.xml", arcrole=arcrole, role=role),)
    text = serialize(instance).decode()
    assert f'xlink:role="{role}"' in text and f'xlink:arcrole="{arcrole}"' in text
    assert parse_instance(read_document(text.encode())).instance == instance


# ---------------------------------------------------------------------------
# parse_period
# ---------------------------------------------------------------------------


def period_element(inner: str):
    data = wrap(CONTEXT.replace(
        "<xbrli:period><xbrli:instant>2008-12-31</xbrli:instant></xbrli:period>",
        f"<xbrli:period>{inner}</xbrli:period>",
    ))
    context_el = read_document(data).child_elements()[0]
    return context_el.child_elements()[1]


def test_parse_period_instant():
    period = _parse_period(period_element("<xbrli:instant>2008-12-31</xbrli:instant>"))
    assert isinstance(period, Instant)
    assert period.when.raw == "2008-12-31"


def test_parse_period_duration():
    period = _parse_period(period_element(
        "<xbrli:startDate>2008-01-01</xbrli:startDate>"
        "<xbrli:endDate>2008-12-31</xbrli:endDate>"
    ))
    assert isinstance(period, Duration)


def test_parse_period_forever():
    assert _parse_period(period_element("<xbrli:forever/>")) == Forever()


def test_parse_period_start_after_end():
    with pytest.raises(StartAfterEnd):
        _parse_period(period_element(
            "<xbrli:startDate>2008-12-31</xbrli:startDate>"
            "<xbrli:endDate>2008-01-01</xbrli:endDate>"
        ))


def test_parse_period_bad_lexical():
    with pytest.raises(InvalidIso8601):
        _parse_period(period_element("<xbrli:instant>2008-13-01</xbrli:instant>"))


def test_parse_period_bad_shape():
    with pytest.raises(InvalidPeriodShape):
        _parse_period(period_element("<xbrli:startDate>2008-01-01</xbrli:startDate>"))
    with pytest.raises(InvalidPeriodShape):
        _parse_period(period_element(""))


def test_lenient_period_recovery_drops_context():
    outcome = parse_instance(read_document(fixture_bytes("bad-period.xml")), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["PER-001", "PER-002"]
    assert outcome.instance.contexts == {}
    with pytest.raises(InvalidIso8601):
        parse_instance(read_document(fixture_bytes("bad-period.xml")))


@pytest.mark.parametrize("start, end", [
    ("2008-01-01", "9999-12-31"),  # the end of the day is past datetime's range
    ("0001-01-01T00:00:00+01:00", "2008-12-31T00:00:00Z"),  # UTC is before year 1
])
def test_periods_at_the_ends_of_the_datetime_range_parse(start, end):
    def outcome(start, end, options):
        inner = f"<xbrli:startDate>{start}</xbrli:startDate><xbrli:endDate>{end}</xbrli:endDate>"
        return parse_instance(read_document(wrap(CONTEXT.replace(
            "<xbrli:instant>2008-12-31</xbrli:instant>", inner))), options)

    def mid_range(point):
        return "2008" + point[4:]

    for options in (ParseOptions(), LENIENT):
        edge = outcome(start, end, options)
        assert edge.recovered_findings == ()
        period = edge.instance.contexts["c1"].period
        assert (period.start.raw, period.end.raw) == (start, end)
        # validated with only the findings the same shape gets mid-range
        twin = outcome(mid_range(start), mid_range(end), options)
        assert [f.code for f in validate(edge).findings] == \
            [f.code for f in validate(twin).findings]


def test_hour_24_past_the_last_representable_day_is_per001():
    data = wrap(CONTEXT.replace("2008-12-31", "9999-12-31T24:00:00"))
    with pytest.raises(InvalidIso8601, match="date value out of range"):
        parse_instance(read_document(data))
    outcome = parse_instance(read_document(data), LENIENT)
    assert [f.code for f in outcome.recovered_findings] == ["PER-001"]
    assert outcome.instance.contexts == {}


@pytest.mark.parametrize("bad", ["startDate", "endDate"])
def test_an_invalid_period_date_is_reported_at_its_own_element(bad, tmp_path, capsys):
    dates = {"startDate": "2008-01-01", "endDate": "2008-12-31", bad: "2008-13-01"}
    data = wrap(CONTEXT.replace(
        "<xbrli:instant>2008-12-31</xbrli:instant>",
        "".join(f"\n  <xbrli:{name}>{value}</xbrli:{name}>" for name, value in dates.items())))
    where = "2:2" if bad == "startDate" else "3:2"
    message = "invalid calendar date '2008-13-01': month must be in 1..12"
    with pytest.raises(InvalidIso8601) as info:
        parse_instance(read_document(data))
    assert (str(info.value.location), str(info.value)) == (where, message)
    [finding] = parse_instance(read_document(data), LENIENT).recovered_findings
    assert (finding.code, str(finding.location)) == ("PER-001", where)
    path = tmp_path / "bad.xml"
    path.write_bytes(data)
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == f"xbrlcore: parse failed at {where}: {message}\n"


# ---------------------------------------------------------------------------
# parse_unit
# ---------------------------------------------------------------------------


def unit_element(inner: str, unit_id: str = "u1"):
    data = wrap(f'<xbrli:unit id="{unit_id}">{inner}</xbrli:unit>')
    return read_document(data).child_elements()[0]


def test_parse_unit_single_measure():
    unit = _parse_unit(unit_element("<xbrli:measure>iso4217:USD</xbrli:measure>"))
    assert unit.numerator == (QName(ISO4217, "USD"),)
    assert unit.denominator == ()


def test_parse_unit_divide():
    unit = _parse_unit(unit_element(
        "<xbrli:divide>"
        "<xbrli:unitNumerator><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unitNumerator>"
        "<xbrli:unitDenominator><xbrli:measure>xbrli:shares</xbrli:measure></xbrli:unitDenominator>"
        "</xbrli:divide>"
    ))
    assert unit.numerator == (QName(ISO4217, "USD"),)
    assert unit.denominator == (QName(XBRLI, "shares"),)


def test_parse_unit_empty():
    with pytest.raises(EmptyUnit):
        _parse_unit(unit_element(""))


def test_parse_unit_malformed_divide():
    with pytest.raises(MalformedDivide):
        _parse_unit(unit_element(
            "<xbrli:divide><xbrli:unitNumerator>"
            "<xbrli:measure>iso4217:USD</xbrli:measure>"
            "</xbrli:unitNumerator></xbrli:divide>"
        ))


def test_parse_unit_unbound_measure_prefix():
    with pytest.raises(UnboundPrefix):
        _parse_unit(unit_element("<xbrli:measure>nope:USD</xbrli:measure>"))


# ---------------------------------------------------------------------------
# structural errors
# ---------------------------------------------------------------------------

ENTITY = '<xbrli:entity><xbrli:identifier scheme="s">CO</xbrli:identifier></xbrli:entity>'
PERIOD = "<xbrli:period><xbrli:forever/></xbrli:period>"
MEASURE = "<xbrli:measure>iso4217:USD</xbrli:measure>"
NUMERATOR = f"<xbrli:unitNumerator>{MEASURE}</xbrli:unitNumerator>"
DENOMINATOR = "<xbrli:unitDenominator><xbrli:measure>xbrli:shares</xbrli:measure></xbrli:unitDenominator>"


# Each body puts the offending element at the start of line 2, column 2.
@pytest.mark.parametrize("error, message, body", [
    (InvalidContextShape, "context has no id",
     f"\n  <xbrli:context>{ENTITY}{PERIOD}</xbrli:context>"),
    (InvalidContextShape, "context 'c1' has no entity",
     f'\n  <xbrli:context id="c1">{PERIOD}</xbrli:context>'),
    (InvalidPeriodShape, "context 'c1' has no period",
     f'\n  <xbrli:context id="c1">{ENTITY}</xbrli:context>'),
    (ParseError, "schemaRef has no xlink:href",
     '\n  <link:schemaRef xlink:type="simple"/>'),
    (InvalidContextShape, "entity has no identifier",
     f'<xbrli:context id="c1">\n  <xbrli:entity/>{PERIOD}</xbrli:context>'),
    (InvalidContextShape, "entity identifier requires a scheme and a non-empty value",
     '<xbrli:context id="c1"><xbrli:entity>\n  <xbrli:identifier scheme="s"> </xbrli:identifier>'
     f"</xbrli:entity>{PERIOD}</xbrli:context>"),
    (MalformedFootnoteLink, "locator requires xlink:label and xlink:href",
     '<link:footnoteLink xlink:type="extended">'
     '\n  <link:loc xlink:type="locator" xlink:label="l"/></link:footnoteLink>'),
    (MalformedFootnoteLink, "footnote requires xlink:label",
     '<link:footnoteLink xlink:type="extended">'
     '\n  <link:footnote xlink:type="resource">note</link:footnote></link:footnoteLink>'),
    (MalformedFootnoteLink, "footnote arc requires xlink:from and xlink:to",
     '<link:footnoteLink xlink:type="extended">'
     '\n  <link:footnoteArc xlink:type="arc" xlink:from="l"/></link:footnoteLink>'),
    (EmptyUnit, f"unit holds {{{EX}}}Other, which it may not",
     f'<xbrli:unit id="u1">{MEASURE}\n  <ex:Other/></xbrli:unit>'),
    (MalformedDivide, "unit mixes divide with other content",
     f'\n  <xbrli:unit id="u1">{MEASURE}<xbrli:divide/></xbrli:unit>'),
    (EmptyUnit, f"unit holds {{{EX}}}Other, which it may not",
     f'<xbrli:unit id="u1"><xbrli:divide/>\n  <ex:Other/></xbrli:unit>'),
    (MalformedDivide, f"unitNumerator holds {{{EX}}}junk, which it may not",
     f'<xbrli:unit id="u1"><xbrli:divide><xbrli:unitNumerator>{MEASURE}\n  <ex:junk>x</ex:junk>'
     f"</xbrli:unitNumerator>{DENOMINATOR}</xbrli:divide></xbrli:unit>"),
    (MalformedDivide, "divide must hold one unitNumerator followed by one unitDenominator",
     f'<xbrli:unit id="u1">\n  <xbrli:divide>{NUMERATOR}{DENOMINATOR}{DENOMINATOR}'
     "</xbrli:divide></xbrli:unit>"),
    (MalformedDivide, "divide must hold one unitNumerator followed by one unitDenominator",
     f'<xbrli:unit id="u1">\n  <xbrli:divide>{DENOMINATOR}{NUMERATOR}'
     "</xbrli:divide></xbrli:unit>"),
    (MalformedDivide, f"divide holds {{{EX}}}junk, which it may not",
     f'<xbrli:unit id="u1"><xbrli:divide>{NUMERATOR}\n  <ex:junk/>{DENOMINATOR}'
     "</xbrli:divide></xbrli:unit>"),
    (MalformedDivide, "divide requires measures in both numerator and denominator",
     f'<xbrli:unit id="u1">\n  <xbrli:divide><xbrli:unitNumerator/>{DENOMINATOR}'
     "</xbrli:divide></xbrli:unit>"),
    (ParseError, "unit has no id",
     f"\n  <xbrli:unit>{MEASURE}</xbrli:unit>"),
])
def test_structural_error_is_blocking_in_strict_mode(error, message, body, tmp_path, capsys):
    data = wrap(body)
    with pytest.raises(ParseError) as info:
        parse_instance(read_document(data))
    assert type(info.value) is error
    assert str(info.value) == message
    assert str(info.value.location) == "2:2"
    path = tmp_path / "bad.xml"
    path.write_bytes(data)
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == f"xbrlcore: parse failed at 2:2: {message}\n"


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


def test_find_instances_strict_mode_reports_nesting():
    data = fixture_bytes("mini-embedded.xml")
    strict = find_instances(read_document(data))
    lenient = find_instances(read_document(data), LENIENT)
    # the nested instance is reported, not dropped silently, in both modes
    assert [[f.code for f in o.recovered_findings] for o in strict] == [[], ["EMB-001"]]
    assert strict == lenient


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
    root = read_document(serialize(Instance()))
    assert root.name == QName(XBRLI, "xbrl")
    assert root.child_elements() == []


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
    assert again.units["u-ratio"] == instance.units["u-ratio"]


def test_round_trip_idempotent_at_tree_level():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    once = serialize(instance)
    twice = serialize(parse_instance(read_document(once)).instance)
    assert once == twice


def test_serialize_bytes_match_the_goldens():
    # golden/mini-embedded.serialize.xml holds the outputs of the fixture's
    # instances in document order, joined by one newline.
    for name in ("mini-instance", "mini-embedded"):
        outcomes = find_instances(read_document(fixture_bytes(f"{name}.xml")))
        written = b"\n".join(serialize(outcome.instance) for outcome in outcomes)
        assert written == fixture_bytes(f"golden/{name}.serialize.xml")
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(serialize(gen.random_instance(random.Random(seed))))
    assert digest.hexdigest() == (
        "79c31be488e982e4d6a522f2ce8d34f9aea0f06990e1d605477df1025ceef0a0"
    )


def test_serialize_writes_a_deep_tuple_chain():
    fact = Item(QName(EX, "Leaf"), "c1", "1")
    for _ in range(2000):
        fact = Tuple(QName(EX, "Group"), (fact,))
    root = read_document(serialize(Instance(facts=(fact,))))
    assert sum(1 for _ in root.iter_elements()) == 2002


@pytest.mark.parametrize("bad", ["\x00", "\x01", "\ud800", "\ufffe"])
def test_serialize_rejects_characters_xml_cannot_carry(bad):
    def instance(value: str) -> Instance:
        return Instance(facts=(Item(QName(EX, "Note"), "c1", value),))

    offset = serialize(instance("aXb")).index(b"aXb") + 1
    with pytest.raises(ValueError) as info:
        serialize(instance(f"a{bad}b"))
    assert str(info.value).startswith(f"U+{ord(bad):04X} at byte {offset} ")


@pytest.mark.parametrize("unit", [
    Unit("u", ()),  # would read back as EmptyUnit
    Unit("u", (), (QName(ISO4217, "USD"),)),  # would read back as MalformedDivide
], ids=["no-measure", "no-numerator"])
def test_serialize_rejects_a_unit_with_no_numerator_measure(unit):
    with pytest.raises(ValueError, match="^unit 'u' has no numerator measure$"):
        serialize(Instance(units={"u": unit}))


FOOTNOTE = QName(LINK_NS, "footnote")
LABEL = QName(XLINK_NS, "label")


# Each would read back as MalformedFootnoteLink, with the message serialize
# gives, or not as written.
@pytest.mark.parametrize("link, message", [
    (FootnoteLink(footnotes=(XmlElement(FOOTNOTE),)), "footnote requires xlink:label"),
    (FootnoteLink(footnotes=(XmlElement(FOOTNOTE, {LABEL: ""}),)),
     "footnote requires xlink:label"),
    # read back, it would be skipped: a link with no footnotes
    (FootnoteLink(footnotes=(XmlElement(QName("urn:x", "note"), {LABEL: "n1"}, ("hello",)),)),
     r"footnote must be a link:footnote element, not \{urn:x\}note"),
    (FootnoteLink(locators=(("", "#f1"),)), "locator requires xlink:label and xlink:href"),
    (FootnoteLink(locators=(("l1", ""),)), "locator requires xlink:label and xlink:href"),
    (FootnoteLink(arcs=(FootnoteArc("", "n1", ""),)),
     "footnote arc requires xlink:from and xlink:to"),
], ids=["footnote-without-label", "footnote-empty-label", "footnote-not-link-footnote",
        "locator-empty-label", "locator-empty-href", "arc-empty-from"])
def test_serialize_rejects_a_footnote_link_that_would_not_read_back(link, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(Instance(footnote_links=(link,)))


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

"""``read_instances`` gives what ``find_instances(read_document(data))`` gives.

The same outcomes, source positions and recovered findings included, or
the same error with the same type, message and location, on every fixture,
on generated documents with planted defects, on mutated fixture bytes and
on pinned shapes the one-pass reader handles apart from the tree.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import gen
from conftest import FIXTURES, fixture_bytes
from test_cli_properties import EDITS, mutate
from xbrlcore import (
    Context,
    Duration,
    Entity,
    Forever,
    Instant,
    MalformedXml,
    ParseMode,
    ParseOptions,
    QName,
    SourceLocation,
    UnboundPrefix,
    XbrlError,
    find_instances,
    read_document,
    read_instances,
    serialize,
)
from xbrlcore import cli
from xbrlcore.constants import DEFAULT_MAX_TUPLE_DEPTH, ISO4217_NS, LINK_NS, XLINK_NS
from xbrlcore.iso8601 import parse_point
from xbrlcore.parser import (
    _CONTENT_MODELS, DuplicateContextId, EmptyUnit, InvalidContextShape, InvalidIso8601,
    InvalidPeriodShape, MalformedDivide, MalformedFootnoteLink, MissingContextRef, ParseError,
    TupleDepthExceeded, _InstanceBuilder,
)
from xbrlcore.xmltree import XML_NAMESPACE

XBRLI = "http://www.xbrl.org/2003/instance"
MODES = [ParseOptions(mode=mode) for mode in ParseMode]


def from_tree(data: bytes, options: ParseOptions):
    return find_instances(read_document(data), options)


def result(read, data: bytes, options: ParseOptions):
    """What ``read`` gives, in a form that compares every field and position."""
    try:
        outcomes = read(data, options)
    except XbrlError as exc:
        return type(exc), str(exc), exc.location, getattr(exc, "subcode", None)
    # Equality ignores source positions and prefix bindings; repr shows the
    # positions, and the bindings of each kept fragment are listed.
    bindings = [
        [(element.name, element.prefix_bindings) for fragment in fragments(outcome)
         for element in fragment.iter_elements()]
        for outcome in outcomes
    ]
    return outcomes, [repr(outcome) for outcome in outcomes], bindings


def fragments(outcome):
    instance = outcome.instance
    for context in instance.contexts.values():
        yield from (f for f in (context.entity.segment, context.scenario) if f is not None)
    for link in instance.footnote_links:
        yield from link.footnotes


def assert_same(data: bytes, options: ParseOptions):
    got = result(read_instances, data, options)
    assert got == result(from_tree, data, options)
    return got


@pytest.mark.parametrize("options", MODES, ids=lambda o: o.mode.value)
@pytest.mark.parametrize("path", sorted(p for p in FIXTURES.rglob("*") if p.is_file()),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_every_fixture_reads_the_same(path, options):
    assert_same(path.read_bytes(), options)


@pytest.mark.parametrize("data", [
    b"<!DOCTYPE x><x/>",
    b"<a:b/>",
    b'<?xml version="1.0" encoding="x-unknown"?><a/>',
    b'<x xmlns:p="urn:p" xmlns:q="urn:p" p:a="1" q:a="2"/>',
    b"",
], ids=["doctype", "unbound prefix", "unknown encoding", "duplicate attribute", "empty"])
def test_read_errors_are_the_tree_readers(data):
    for options in MODES:
        assert issubclass(assert_same(data, options)[0], XbrlError)


def instance_text(**namespaces: str) -> str:
    declarations = "".join(f' xmlns:{p}="{uri}"' for p, uri in
                           {"xbrli": XBRLI, "ex": "urn:ex", **namespaces}.items())
    return f"<xbrli:xbrl{declarations}>{{}}</xbrli:xbrl>"


CONTEXT = ('<xbrli:context id="c1"><xbrli:entity><xbrli:identifier scheme="urn:s">E'
           "</xbrli:identifier></xbrli:entity><xbrli:period><xbrli:forever/></xbrli:period>"
           "</xbrli:context>")


def test_a_read_error_after_an_early_strict_error_wins():
    data = instance_text().format('<ex:A>1</ex:A><ex:B contextRef="c1">2</ex:B>').encode()
    assert assert_same(data, ParseOptions())[0] is MissingContextRef
    got = assert_same(data + b"<tail/>", ParseOptions())
    assert got[:3] == (MalformedXml, "junk after document element", (1, len(data)))


LINKS = dict(link=LINK_NS, xlink=XLINK_NS)


@pytest.mark.parametrize("body, spoil, read_error, error, message, marker, modes", [
    (f'{CONTEXT}<xbrli:unit id="u1"><xbrli:measure>foo:USD</xbrli:measure></xbrli:unit>',
     lambda data: data.replace(b"</xbrli:xbrl>", b'<ex:B a="1" a="2"/></xbrli:xbrl>'),
     "duplicate attribute", UnboundPrefix, "prefix 'foo' in value 'foo:USD' is not declared",
     "<xbrli:measure>", MODES),
    ("stray", lambda data: data + b"<", "unclosed token", ParseError,
     "xbrl holds text, which it may not", "<xbrli:xbrl", MODES),
    ('<link:footnoteLink xlink:type="extended"><link:loc xlink:type="locator"/>'
     "</link:footnoteLink>", lambda data: data[:-1], "unclosed token", MalformedFootnoteLink,
     "locator requires xlink:label and xlink:href", "<link:loc", [MODES[1]]),
], ids=["unbound measure, then a duplicate attribute", "text in xbrl, then < after the root",
        "lenient footnote link, then a truncated end tag"])
def test_a_read_error_anywhere_wins_over_an_instance_error(body, spoil, read_error, error,
                                                           message, marker, modes):
    data = instance_text(**LINKS).format(body).encode()
    spoiled = spoil(data)
    for options in modes:
        assert assert_same(data, options)[:3] == (error, message, where(data, marker))
        assert assert_same(spoiled, options)[:2] == (MalformedXml, read_error)


def test_a_failing_instance_is_read_in_bounded_memory():
    # A unit without an id before 20,000 facts: the read that stops at it
    # has built next to nothing, and the pass that then looks for a read
    # error builds nothing, so neither holds a tree of the facts.
    facts = "".join(f'<ex:A contextRef="c1" decimals="0">{n}</ex:A>' for n in range(20_000))
    unit = "<xbrli:unit><xbrli:measure>ex:U</xbrli:measure></xbrli:unit>"
    data = instance_text().format(f"{unit}{CONTEXT}{facts}").encode()
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^unit has no id$"):
            read_instances(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(data)


def test_the_first_of_several_errors_is_raised():
    body = f'<ex:A>1</ex:A>{CONTEXT}{CONTEXT}<ex:B decimals="x" contextRef="c1">2</ex:B>'
    data = instance_text().format(body).encode()
    for options in MODES:
        assert assert_same(data, options)[0] in (MissingContextRef, DuplicateContextId)


def test_a_nested_xbrl_is_reported_where_the_tree_reports_it():
    inner = instance_text().format(CONTEXT)
    body = (f'{inner}<ex:T><ex:A contextRef="c1">1</ex:A>{inner}</ex:T>'
            f'<xbrli:context id="c2"><xbrli:entity><xbrli:identifier scheme="s">E'
            f"</xbrli:identifier><xbrli:segment>{inner}</xbrli:segment></xbrli:entity>"
            "<xbrli:period><xbrli:forever/></xbrli:period></xbrli:context>")
    outcomes, _, _ = assert_same(instance_text().format(body).encode(), ParseOptions())
    assert [f.code for f in outcomes[0].recovered_findings] == ["EMB-001", "EMB-001"]


def test_several_instances_in_one_wrapper_keep_document_order():
    parts = [instance_text().format(f'{CONTEXT}<ex:A contextRef="c1">{n}</ex:A>')
             for n in range(3)]
    parts[1] = parts[1].replace(' contextRef="c1"', "")
    data = (f'<w:filing xmlns:w="urn:w"><w:a>{parts[0]}</w:a>text<w:b/>{parts[1]}'
            f"{parts[2]}</w:filing>").encode()
    assert assert_same(data, ParseOptions())[0] is MissingContextRef
    outcomes, _, _ = assert_same(data, ParseOptions(mode=ParseMode.LENIENT))
    assert [[f.code for f in o.recovered_findings] for o in outcomes] == [[], ["CTX-002"], []]
    assert [[i.value for i in o.instance.iter_items()] for o in outcomes] == [["0"], [], ["2"]]


def test_text_outside_every_instance_is_not_kept():
    # 5 MB of text sitting directly in a wrapper, in 1,000-character runs
    # between empty elements: nothing reads it, so no copy of it is kept.
    data = (b'<w:filing xmlns:w="urn:w">' + (b"x" * 1000 + b"<w:e/>") * 5000
            + instance_text().format(CONTEXT).encode() + b"</w:filing>")
    tracemalloc.start()
    try:
        [outcome] = read_instances(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(outcome.instance.contexts) == ["c1"]
    assert peak < len(data)


def test_contexts_and_units_after_the_facts():
    unit = '<xbrli:unit id="u1"><xbrli:measure>iso:USD</xbrli:measure></xbrli:unit>'
    body = f'<ex:A contextRef="c1" unitRef="u1" decimals="0">5</ex:A>{unit}{CONTEXT}'
    data = instance_text(iso="http://www.xbrl.org/2003/iso4217").format(body).encode()
    [outcome], _, _ = assert_same(data, ParseOptions())
    assert list(outcome.instance.contexts) == ["c1"] and list(outcome.instance.units) == ["u1"]
    # A measure prefix bound on the fact's ancestors only resolves the same way.
    unbound = instance_text().format(body).encode()
    assert assert_same(unbound, ParseOptions())[0] is UnboundPrefix


def test_a_too_deep_tuple_holding_a_bad_item():
    depth = DEFAULT_MAX_TUPLE_DEPTH + 1
    body = "<ex:T>" * depth + "<ex:A>no contextRef</ex:A>" + "</ex:T>" * depth
    data = instance_text().format(body).encode()
    assert assert_same(data, ParseOptions())[0] is TupleDepthExceeded
    [outcome], _, _ = assert_same(data, ParseOptions(mode=ParseMode.LENIENT))
    assert [f.code for f in outcome.recovered_findings] == ["T-DEPTH"]


def test_a_fact_with_element_children_is_read_as_the_tree_reads_it():
    # Before, the xbrli:x inside the first item was dropped with no finding.
    body = (f'{CONTEXT}<ex:A contextRef="c1" xmlns:ex="urn:other">1<xbrli:x/>2</ex:A>'
            '<ex:T id="t" contextRef="c1"/><ex:E/>'
            '<ex:T><ex:A contextRef="c1" ex:decimals="2">3</ex:A></ex:T>')
    data = instance_text().format(body).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            ParseError, f"A holds {{{XBRLI}}}x, which it may not", where(data, "<xbrli:x/>"))
    body = body.replace("<xbrli:x/>", "")
    outcomes, _, _ = assert_same(instance_text().format(body).encode(), ParseOptions())
    facts = list(outcomes[0].instance.iter_facts())
    assert [type(f).__name__ for f in facts] == ["Item", "Item", "Tuple", "Tuple", "Item"]
    assert [i.value for i in outcomes[0].instance.iter_items()] == ["12", "", "3"]


# Regex edits on serialized text, each applied at one match: every one
# plants a defect one of the two modes reports or fails on.
PLANTED = {
    "no contextRef": (r' contextRef="[^"]*"', ""),
    "bad decimals": (r' decimals="[^"]*"', ' decimals="x"'),
    "bad precision": (r' precision="[^"]*"', ' precision="0"'),
    "decimals and precision": (r' decimals="', ' precision="3" decimals="'),
    "bad instant": (r"<xbrli:instant>[^<]*", "<xbrli:instant>2020-13-01"),
    "empty unit": (r'(<xbrli:unit id="[^"]*">).*?(</xbrli:unit>)', r"\1\2"),
    "unbound measure": (r"(<xbrli:measure[^>]*>)[^<:]*:", r"\1zz:"),
    "duplicate context": (r"(<xbrli:context .*?</xbrli:context>)", r"\1\1"),
    "nested xbrl": (r"(<xbrli:xbrl[^>]*>)", r"\1<xbrli:xbrl/>"),
    "no schemaRef href": (r' xlink:href="gen-taxonomy.xsd"', ""),
}


def plant(text: str, edits: list[tuple[str, int]]) -> str:
    for name, index in edits:
        pattern, replacement = PLANTED[name]
        matches = list(re.finditer(pattern, text, re.S))
        if matches:
            match = matches[index % len(matches)]
            text = text[:match.start()] + match.expand(replacement) + text[match.end():]
    return text


def filing(seeds: list[int], edits: list[tuple[str, int]], cut: float | None) -> bytes:
    """``gen.py`` instances, one per seed, in a wrapper, with ``edits`` planted
    and, unless ``cut`` is None, cut to that share of their bytes."""
    instances = [serialize(gen.random_instance(random.Random(seed))).decode().split("?>", 1)[1]
                 for seed in seeds]
    text = plant(f'<w:filing xmlns:w="urn:w">{"<w:gap/>".join(instances)}</w:filing>', edits)
    data = text.encode()
    return data if cut is None else data[:int(len(data) * cut)]


FILINGS = dict(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
               edits=st.lists(st.tuples(st.sampled_from(sorted(PLANTED)), st.integers(0, 20)),
                              max_size=3),
               cut=st.none() | st.floats(0, 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(**FILINGS)
def test_generated_documents_read_the_same(seeds, edits, cut):
    data = filing(seeds, edits, cut)
    for options in MODES:
        assert_same(data, options)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(name=st.sampled_from(["mini-instance.xml", "mini-embedded.xml", "bad-period.xml",
                             "bad-footnote.xml", "bad-warnings.xml", "bad-ctxref.xml"]),
       edits=st.lists(EDITS, min_size=1, max_size=4))
def test_mutated_fixtures_read_the_same(name, edits):
    data = mutate(fixture_bytes(name), edits)
    for options in MODES:
        assert_same(data, options)


# -- context shapes: each result pinned through repr, each error by type,
# message and location, and the same from both readers --------------------


def where(data: bytes, marker: str, occurrence: int = 0) -> SourceLocation:
    """The position of the ``occurrence``-th ``marker`` in an ASCII document."""
    at = -1
    for _ in range(occurrence + 1):
        at = data.index(marker.encode(), at + 1)
    line_start = data.rfind(b"\n", 0, at) + 1
    return SourceLocation(data.count(b"\n", 0, at) + 1, at - line_start)


def context_xml(cid: str, period: str, identifier: str = "E", segment: str = "",
                scenario: str = "") -> str:
    return (f'<xbrli:context id="{cid}"><xbrli:entity><xbrli:identifier scheme="urn:s">'
            f"{identifier}</xbrli:identifier>{segment}</xbrli:entity><xbrli:period>{period}"
            f"</xbrli:period>{scenario}</xbrli:context>")


def read_contexts(body: str):
    data = instance_text().format(body).encode()
    [outcome], _, _ = assert_same(data, ParseOptions())
    return data, outcome


def expected_context(data: bytes, cid: str, period, entity: Entity = Entity("urn:s", "E"),
                     scenario=None) -> Context:
    return Context(cid, entity, period, scenario, where(data, f'<xbrli:context id="{cid}"'))


def test_period_children_between_whitespace_comments_and_instructions():
    period = ("\n  <!-- start --> <?pi x?>\n<xbrli:startDate> 2008-01-01 </xbrli:startDate>"
              "<!-- between --><?pi y?>\n\t<xbrli:endDate>2008-<!-- in -->12-31"
              "<?pi z?></xbrli:endDate> <!-- end -->\n")
    body = (context_xml("c1", period, identifier="\n E <!-- c -->\n")
            + context_xml("c2", "<?pi?><xbrli:instant>\t2008-12-31\n</xbrli:instant><!---->"))
    data, outcome = read_contexts(body)
    assert repr(outcome.instance.contexts) == repr({
        "c1": expected_context(data, "c1", Duration(parse_point("2008-01-01"),
                                                    parse_point("2008-12-31"))),
        "c2": expected_context(data, "c2", Instant(parse_point("2008-12-31"))),
    })


def test_forever_zoned_dates_equal_ends_and_a_segment_with_a_scenario():
    segment = '<xbrli:segment><ex:region xmlns:ex="urn:ex">north</ex:region></xbrli:segment>'
    scenario = "<xbrli:scenario><ex:basis>actual</ex:basis></xbrli:scenario>"
    body = (context_xml("forever", "<xbrli:forever/>")
            + context_xml("zoned", "<xbrli:startDate>2008-01-01Z</xbrli:startDate>"
                                   "<xbrli:endDate>2008-12-31T23:59:59.5-05:00</xbrli:endDate>")
            + context_xml("same", "<xbrli:startDate>2008-06-30</xbrli:startDate>"
                                  "<xbrli:endDate>2008-06-30</xbrli:endDate>")
            + context_xml("both", "<xbrli:instant>2008-12-31T24:00:00+14:00</xbrli:instant>",
                          segment=segment, scenario=scenario))
    data, outcome = read_contexts(body)
    by_name = {element.name.local_name: element for element in read_document(data).iter_elements()}
    assert repr(outcome.instance.contexts) == repr({
        "forever": expected_context(data, "forever", Forever()),
        "zoned": expected_context(data, "zoned", Duration(
            parse_point("2008-01-01Z"), parse_point("2008-12-31T23:59:59.5-05:00"))),
        "same": expected_context(data, "same", Duration(parse_point("2008-06-30"),
                                                        parse_point("2008-06-30"))),
        "both": expected_context(
            data, "both", Instant(parse_point("2008-12-31T24:00:00+14:00")),
            Entity("urn:s", "E", by_name["segment"]), by_name["scenario"]),
    })


def test_contexts_sharing_dates_stay_equal_and_keep_their_positions():
    texts = ["2008-12-31", " 2008-12-31 ", "2007-12-31", "2008-12-31T00:00:00Z"]
    periods = {}
    for n in range(60):
        text = texts[n % 4]
        if n % 3:
            periods[f"c{n}"] = (f"<xbrli:instant>{text}</xbrli:instant>",
                                Instant(parse_point(text.strip())))
        else:
            periods[f"c{n}"] = (f"<xbrli:startDate>2001-01-01</xbrli:startDate>"
                                f"<xbrli:endDate>{text}</xbrli:endDate>",
                                Duration(parse_point("2001-01-01"), parse_point(text.strip())))
    data, outcome = read_contexts("\n".join(context_xml(cid, xml)
                                            for cid, (xml, _) in periods.items()))
    expected = {cid: expected_context(data, cid, period)
                for cid, (_, period) in periods.items()}
    assert list(outcome.instance.contexts) == list(periods)
    assert repr(outcome.instance.contexts) == repr(expected)


def test_a_bad_date_repeating_a_good_ones_text_fails_at_its_own_element():
    body = (context_xml("good", "<xbrli:instant>2008-12-31</xbrli:instant>")
            + context_xml("child", "<xbrli:instant>2008-<ex:y/>12-31</xbrli:instant>")
            + context_xml("bad1", "<xbrli:instant>2008-13-01</xbrli:instant>")
            + context_xml("bad2", "<xbrli:instant>2008-13-01</xbrli:instant>")
            + context_xml("again", "<xbrli:instant>2008-12-31</xbrli:instant>"))
    data = instance_text().format(body).encode()
    child_at = where(data, "<xbrli:instant>", 1)
    assert assert_same(data, ParseOptions())[:3] == (
        InvalidIso8601, "instant holds element content", child_at)
    strict_bad = instance_text().format(body.replace("2008-<ex:y/>12-31", "2008-12-31")).encode()
    assert assert_same(strict_bad, ParseOptions())[:3] == (
        InvalidIso8601, "invalid calendar date '2008-13-01': month must be in 1..12",
        where(strict_bad, "<xbrli:instant>", 2))
    [outcome], _, _ = assert_same(data, ParseOptions(mode=ParseMode.LENIENT))
    assert list(outcome.instance.contexts) == ["good", "again"]
    contexts = outcome.instance.contexts
    assert contexts["good"].period == contexts["again"].period == Instant(parse_point("2008-12-31"))
    assert [(f.code, f.location, f.subject, f.message) for f in outcome.recovered_findings] == [
        ("PER-001", child_at, "child", "context dropped: instant holds element content"),
        ("PER-001", where(data, "<xbrli:instant>", 2), "bad1",
         "context dropped: invalid calendar date '2008-13-01': month must be in 1..12"),
        ("PER-001", where(data, "<xbrli:instant>", 3), "bad2",
         "context dropped: invalid calendar date '2008-13-01': month must be in 1..12"),
    ]


@pytest.mark.parametrize("period", [
    "<xbrli:instant>2008-12-31<ex:y/></xbrli:instant>",
    "<xbrli:startDate><ex:y>2008-01-01</ex:y></xbrli:startDate>"
    "<xbrli:endDate>2008-12-31</xbrli:endDate>",
    "<xbrli:startDate>2008-01-01</xbrli:startDate>"
    "<xbrli:endDate>2008-<xbrli:x/>12-31</xbrli:endDate>",
], ids=["instant", "startDate", "endDate"])
def test_an_element_inside_a_date_is_an_invalid_date(period):
    data = instance_text().format(context_xml("c1", period)).encode()
    name = re.search(r"<xbrli:(\w+)>[^<]*<(?!/)", period).group(1)
    at = where(data, f"<xbrli:{name}>")
    message = f"{name} holds element content"
    assert assert_same(data, ParseOptions())[:3] == (InvalidIso8601, message, at)
    [outcome], _, _ = assert_same(data, ParseOptions(mode=ParseMode.LENIENT))
    assert outcome.instance.contexts == {}
    assert [(f.code, f.location, f.subject) for f in outcome.recovered_findings] == [
        ("PER-001", at, "c1")]


def test_a_period_of_three_elements_fails_in_both_modes():
    period = ("<xbrli:startDate>2008-01-01</xbrli:startDate><xbrli:endDate>2008-12-31"
              "</xbrli:endDate><xbrli:instant>2008-12-31</xbrli:instant>")
    data = instance_text().format(context_xml("c1", period)).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            InvalidPeriodShape, "period must contain instant, forever, or startDate+endDate",
            where(data, "<xbrli:period>"))


START, END = ("<xbrli:startDate>2008-01-01</xbrli:startDate>",
              "<xbrli:endDate>2008-12-31</xbrli:endDate>")


@pytest.mark.parametrize("period", [END + START, START, END, START + START + END],
                         ids=["end before start", "start alone", "end alone", "two starts"])
def test_a_period_needs_one_start_date_then_one_end_date(period):
    data = instance_text().format(context_xml("c1", period)).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            InvalidPeriodShape, "period must contain instant, forever, or startDate+endDate",
            where(data, "<xbrli:period>"))


@pytest.mark.parametrize("identifier", ["E<ex:y/>", "<ex:y>E</ex:y>", "E<!-- c --><ex:y/>F"])
def test_an_element_inside_an_identifier_is_an_invalid_context(identifier):
    data = instance_text().format(
        context_xml("c1", "<xbrli:forever/>", identifier=identifier)).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            InvalidContextShape, "identifier holds element content",
            where(data, "<xbrli:identifier"))


SHAPE_ERRORS = [
    ("second entity", "</xbrli:entity>",
     '</xbrli:entity><xbrli:entity><xbrli:identifier scheme="urn:s">B</xbrli:identifier>'
     "</xbrli:entity>", "<xbrli:entity>", 1, "context holds a second entity"),
    ("second period", "</xbrli:period>",
     "</xbrli:period><xbrli:period><xbrli:instant>2009-12-31</xbrli:instant></xbrli:period>",
     "<xbrli:period>", 1, "context holds a second period"),
    ("second scenario", "</xbrli:period>",
     "</xbrli:period><xbrli:scenario/><xbrli:scenario/>", "<xbrli:scenario", 1,
     "context holds a second scenario"),
    ("foreign in context", "</xbrli:period>", "</xbrli:period><ex:foreign/>", "<ex:foreign",
     0, "context holds {urn:ex}foreign, which it may not"),
    ("segment in context", "</xbrli:entity>", "</xbrli:entity><xbrli:segment/>",
     "<xbrli:segment", 0,
     "context holds {http://www.xbrl.org/2003/instance}segment, which it may not"),
    ("second identifier", "</xbrli:identifier>",
     '</xbrli:identifier><xbrli:identifier scheme="urn:s">B</xbrli:identifier>',
     "<xbrli:identifier", 1, "entity holds a second identifier"),
    ("second segment", "</xbrli:identifier>",
     "</xbrli:identifier><xbrli:segment/><xbrli:segment/>", "<xbrli:segment", 1,
     "entity holds a second segment"),
    ("foreign in entity", "</xbrli:identifier>", "</xbrli:identifier><ex:foreign/>",
     "<ex:foreign", 0, "entity holds {urn:ex}foreign, which it may not"),
    ("period in entity", "</xbrli:identifier>",
     "</xbrli:identifier><xbrli:period><xbrli:forever/></xbrli:period>", "<xbrli:period>", 0,
     "entity holds {http://www.xbrl.org/2003/instance}period, which it may not"),
]


@pytest.mark.parametrize("old, new, marker, occurrence, message",
                         [case[1:] for case in SHAPE_ERRORS], ids=[c[0] for c in SHAPE_ERRORS])
def test_a_repeated_or_foreign_child_of_a_context_or_entity_fails_at_it(
        old, new, marker, occurrence, message, tmp_path, capsys):
    # XBRL 2.1 section 4.7: a context holds one entity, one period and at
    # most one scenario, an entity one identifier and at most one segment.
    # Whatever else a context or an entity holds would otherwise be dropped.
    body = context_xml("c1", "<xbrli:instant>2008-12-31</xbrli:instant>").replace(old, new, 1)
    data = instance_text().format(body + '<ex:A contextRef="c1">1</ex:A>').encode()
    at = where(data, marker, occurrence)
    for options in MODES:
        assert assert_same(data, options)[:3] == (InvalidContextShape, message, at)
    path = tmp_path / "shape.xml"
    path.write_bytes(data)
    for command in (["validate"], ["facts"], ["parse", "--mode", "lenient"]):
        assert cli.main([*command, str(path)]) == 2
        assert capsys.readouterr().err == f"xbrlcore: {command[0]} failed at {at}: {message}\n"


def test_context_and_entity_children_in_any_order_between_comments_and_instructions():
    segment = "<xbrli:segment><ex:region>north</ex:region></xbrli:segment>"
    scenario = "<xbrli:scenario><ex:basis>actual</ex:basis></xbrli:scenario>"
    body = ('<xbrli:context id="c1">\n<!-- c --><?pi a?>'
            f"{scenario}<?pi b?><xbrli:period><xbrli:forever/></xbrli:period> <!-- d -->"
            f"<xbrli:entity><?pi c?>{segment}<!-- e -->\n"
            '<xbrli:identifier scheme="urn:s">E</xbrli:identifier><?pi d?></xbrli:entity>'
            "<!-- f --></xbrli:context>")
    data, outcome = read_contexts(body)
    by_name = {element.name.local_name: element for element in read_document(data).iter_elements()}
    assert repr(outcome.instance.contexts) == repr({"c1": expected_context(
        data, "c1", Forever(), Entity("urn:s", "E", by_name["segment"]), by_name["scenario"])})


ENTITY = '<xbrli:entity><xbrli:identifier scheme="urn:s">E</xbrli:identifier></xbrli:entity>'
BAD_ENTITY = "<xbrli:entity/>"
PERIOD = "<xbrli:period><xbrli:forever/></xbrli:period>"
BAD_PERIOD = "<xbrli:period/>"


@pytest.mark.parametrize("attributes, children, error, message", [
    ("", f"<ex:foreign/>{BAD_ENTITY}", InvalidContextShape, "context has no id"),
    ("", "", InvalidContextShape, "context has no id"),
    (' id="c1"', f"<ex:foreign/>{BAD_ENTITY}{BAD_PERIOD}", InvalidContextShape,
     "context holds {urn:ex}foreign, which it may not"),
    (' id="c1"', "", InvalidContextShape, "context 'c1' has no entity"),
    (' id="c1"', BAD_PERIOD, InvalidContextShape, "context 'c1' has no entity"),
    (' id="c1"', BAD_ENTITY, InvalidPeriodShape, "context 'c1' has no period"),
    (' id="c1"', BAD_PERIOD + BAD_ENTITY, InvalidContextShape, "entity has no identifier"),
    (' id="c1"', BAD_PERIOD + ENTITY, InvalidPeriodShape,
     "period must contain instant, forever, or startDate+endDate"),
], ids=["no id before a foreign child", "no id", "a foreign child before no entity",
        "no entity", "no entity before a bad period", "no period before a bad entity",
        "a bad entity before a bad period", "a bad period"])
def test_context_errors_keep_their_order(attributes, children, error, message):
    # No id, then a repeated or foreign child, then no entity, then no
    # period, then the entity's own errors, then the period's.
    data = instance_text().format(f"<xbrli:context{attributes}>{children}</xbrli:context>")
    for options in MODES:
        assert assert_same(data.encode(), options)[:2] == (error, message)


# -- units: a measure is QName text, so an element inside one fails at it --


def unit_xml(numerator: str, denominator: str | None = None) -> str:
    if denominator is None:
        return f'<xbrli:unit id="u1">{numerator}</xbrli:unit>'
    return (f'<xbrli:unit id="u1"><xbrli:divide><xbrli:unitNumerator>{numerator}'
            f"</xbrli:unitNumerator><xbrli:unitDenominator>{denominator}"
            "</xbrli:unitDenominator></xbrli:divide></xbrli:unit>")


GOOD_MEASURE = "<xbrli:measure>iso4217:USD</xbrli:measure>"
BAD_MEASURE = "<xbrli:measure>iso4217:<ex:x/>USD</xbrli:measure>"


@pytest.mark.parametrize("unit, error, occurrence", [
    (unit_xml(GOOD_MEASURE + BAD_MEASURE), EmptyUnit, 1),
    (unit_xml(BAD_MEASURE, "<xbrli:measure>xbrli:shares</xbrli:measure>"), MalformedDivide, 0),
    (unit_xml(GOOD_MEASURE, BAD_MEASURE), MalformedDivide, 1),
], ids=["unit", "numerator", "denominator"])
def test_an_element_inside_a_measure_is_an_invalid_unit(unit, error, occurrence):
    data = instance_text(iso4217=ISO4217_NS).format(unit).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            error, "measure holds element content", where(data, "<xbrli:measure>", occurrence))


def test_a_denominator_before_its_numerator_fails_at_the_divide():
    unit = (f'<xbrli:unit id="u1"><xbrli:divide><xbrli:unitDenominator>{GOOD_MEASURE}'
            f"</xbrli:unitDenominator><xbrli:unitNumerator>{GOOD_MEASURE}"
            "</xbrli:unitNumerator></xbrli:divide></xbrli:unit>")
    data = instance_text(iso4217=ISO4217_NS).format(unit).encode()
    for options in MODES:
        assert assert_same(data, options)[:3] == (
            MalformedDivide, "divide must hold one unitNumerator followed by one unitDenominator",
            where(data, "<xbrli:divide>"))


# -- the content-model table: text, a foreign element or an unknown reserved
# one inside an element-only element is an error there, never dropped ------

# What text directly inside each element of the content-model table raises.
ELEMENT_ONLY = {
    "context": (InvalidContextShape, "context holds text, which it may not"),
    "entity": (InvalidContextShape, "entity holds text, which it may not"),
    "period": (InvalidPeriodShape, "period holds text, which it may not"),
    "unit": (EmptyUnit, "unit holds text, which it may not"),
    "divide": (MalformedDivide, "divide holds text, which it may not"),
    "unitNumerator": (MalformedDivide, "unitNumerator holds text, which it may not"),
    "unitDenominator": (MalformedDivide, "unitDenominator holds text, which it may not"),
    "xbrl": (ParseError, "xbrl holds text, which it may not"),
    "footnoteLink": (MalformedFootnoteLink, "footnoteLink holds text, which it may not"),
}
TAG = re.compile(r"<(/?)(?:xbrli:|link:)?([\w:]+)[^>]*?(/?)>")
FOREIGN = '<ex:foreign xmlns:ex="urn:ex"/>'
BOGUS = "<xbrli:bogus/>"


def text_positions(text: str):
    """(element name, offset of its start tag, offset of a place for text
    directly inside it) for each such place in each ``ELEMENT_ONLY`` element."""
    open_ = []  # (name, start tag offset) of each open element
    for tag in TAG.finditer(text):
        closing, name, empty = tag.groups()
        if open_ and open_[-1][0] in ELEMENT_ONLY:
            yield (*open_[-1], tag.start())
        if closing:
            open_.pop()
        elif not empty:
            open_.append((name, tag.start()))


def location(text: str, at: int) -> SourceLocation:
    return SourceLocation(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at) - 1)


def test_text_inside_element_only_content_fails_at_its_element():
    # Before, both readers skipped text and foreign or unknown reserved
    # elements inside xbrl and footnoteLink, and every text child of the
    # others, so what was inserted was lost with no finding, and serialize
    # wrote none of it.
    assert {name.local_name: error for name, (_, _, error) in _CONTENT_MODELS.items()} == {
        name: error for name, (error, _) in ELEMENT_ONLY.items()}
    seen = set()
    for seed in (0, 3, 29):
        text = serialize(gen.random_instance(random.Random(seed))).decode()
        assert text.isascii()
        for name, start, at in text_positions(text):
            seen.add(name)
            error = ELEMENT_ONLY[name][0]
            for inserted, expected in [
                ("stray", (*ELEMENT_ONLY[name], location(text, start))),
                (FOREIGN, (error, f"{name} holds {{urn:ex}}foreign, which it may not",
                           location(text, at))),
                (BOGUS, (error, f"{name} holds {{{XBRLI}}}bogus, which it may not",
                         location(text, at))),
            ]:
                data = (text[:at] + inserted + text[at:]).encode()
                for options in MODES:
                    got = assert_same(data, options)
                    if name == "xbrl" and inserted == FOREIGN:  # a fact: kept
                        [outcome], _, _ = got
                        instance = outcome.instance
                        assert QName("urn:ex", "foreign") in [f.concept for f in instance.facts]
                        assert read_instances(serialize(instance))[0].instance == instance
                    else:
                        assert got[:3] == expected, (name, text[start:at], inserted)
            # whitespace stays allowed
            spaced = (text[:at] + " \t\r\n " + text[at:]).encode()
            for options in MODES:
                assert assert_same(spaced, options)[0] == read_instances(text.encode(), options)
    assert seen == set(ELEMENT_ONLY)


MINI = fixture_bytes("mini-instance.xml").decode()
FOOTNOTE_LINK = '<link:footnoteLink xlink:type="extended">'
SCHEMA_REF = '<link:schemaRef xlink:type="simple" xlink:href="mini-taxonomy.xsd"/>'


@pytest.mark.parametrize("after, inserted, marker, error, message", [
    (SCHEMA_REF, "stray", "<xbrli:xbrl", ParseError, "xbrl holds text, which it may not"),
    (SCHEMA_REF, BOGUS, BOGUS, ParseError,
     f"xbrl holds {{{XBRLI}}}bogus, which it may not"),
    (FOOTNOTE_LINK, "stray", FOOTNOTE_LINK, MalformedFootnoteLink,
     "footnoteLink holds text, which it may not"),
    (FOOTNOTE_LINK, "<ex:other/>", "<ex:other/>", MalformedFootnoteLink,
     "footnoteLink holds {http://example.com/taxonomy/mini}other, which it may not"),
    (FOOTNOTE_LINK, "<link:bogus/>", "<link:bogus/>", MalformedFootnoteLink,
     f"footnoteLink holds {{{LINK_NS}}}bogus, which it may not"),
], ids=["text in xbrl", "xbrli:bogus in xbrl", "text in footnoteLink", "ex:other in footnoteLink",
        "link:bogus in footnoteLink"])
def test_what_xbrl_and_footnote_link_may_not_hold_fails_at_its_place(
        after, inserted, marker, error, message, tmp_path, capsys):
    # Before, each of these read with no finding and serialize wrote none of it.
    data = MINI.replace(after, after + inserted, 1).encode()
    at = where(data, marker)
    for options in MODES:
        assert assert_same(data, options)[:3] == (error, message, at)
    path = tmp_path / "shape.xml"
    path.write_bytes(data)
    for command in (["validate"], ["facts"], ["parse", "--mode", "lenient"]):
        assert cli.main([*command, str(path)]) == 2
        assert capsys.readouterr().err == f"xbrlcore: {command[0]} failed at {at}: {message}\n"


@pytest.mark.parametrize("after, inserted", [
    (SCHEMA_REF, '<link:roleRef xlink:type="simple" xlink:href="mini-taxonomy.xsd#r"'
                 ' roleURI="urn:r"/>'),
    (SCHEMA_REF, '<link:arcroleRef xlink:type="simple" xlink:href="mini-taxonomy.xsd#a"'
                 ' arcroleURI="urn:a"/>'),
    (FOOTNOTE_LINK, "<link:documentation>notes</link:documentation>"),
], ids=["roleRef", "arcroleRef", "documentation"])
def test_reserved_elements_the_models_allow_are_read(after, inserted):
    data = MINI.replace(after, after + inserted, 1).encode()
    for options in MODES:
        assert assert_same(data, options)[0] == read_instances(MINI.encode(), options)


TUPLE = "<ex:FinancialHighlights>"
EXTRA = '<ex:Extra contextRef="c-2008i">5{}</ex:Extra>'
EMPTY_FOOTNOTE_LINK = '<link:footnoteLink xlink:type="extended"/>'


@pytest.mark.parametrize("after, inserted, marker, message", [
    (TUPLE, "stray", TUPLE, "FinancialHighlights holds text, which it may not"),
    (TUPLE, BOGUS, BOGUS, f"FinancialHighlights holds {{{XBRLI}}}bogus, which it may not"),
    (TUPLE, EMPTY_FOOTNOTE_LINK, EMPTY_FOOTNOTE_LINK,
     f"FinancialHighlights holds {{{LINK_NS}}}footnoteLink, which it may not"),
    (TUPLE, "<xbrli:numerator>1</xbrli:numerator>", "<xbrli:numerator>",
     f"FinancialHighlights holds {{{XBRLI}}}numerator, which it may not"),
    (SCHEMA_REF, EXTRA.format(BOGUS), BOGUS, f"Extra holds {{{XBRLI}}}bogus, which it may not"),
    (SCHEMA_REF, EXTRA.format("<link:footnote/>"), "<link:footnote/>",
     f"Extra holds {{{LINK_NS}}}footnote, which it may not"),
    (TUPLE, EXTRA.format(BOGUS), BOGUS, f"Extra holds {{{XBRLI}}}bogus, which it may not"),
], ids=["text in a tuple", "xbrli:bogus in a tuple", "link:footnoteLink in a tuple",
        "xbrli:numerator in a tuple", "xbrli:bogus in an item", "link:footnote in an item",
        "xbrli:bogus in an item in a tuple"])
def test_what_a_fact_may_not_hold_fails_at_its_place(after, inserted, marker, message, tmp_path,
                                                     capsys):
    # Before, each of these read with no finding, and serialize wrote none of it.
    data = MINI.replace(after, after + inserted, 1).encode()
    at = where(data, marker)
    for options in MODES:
        assert assert_same(data, options)[:3] == (ParseError, message, at)
    path = tmp_path / "fact.xml"
    path.write_bytes(data)
    for command in (["validate"], ["facts"], ["parse", "--mode", "lenient"]):
        assert cli.main([*command, str(path)]) == 2
        assert capsys.readouterr().err == f"xbrlcore: {command[0]} failed at {at}: {message}\n"


@pytest.mark.parametrize("inserted, marker, codes", [
    (EXTRA.format("<xbrli:xbrl/>"), "<xbrli:xbrl/>", ["EMB-001"]),
    (EXTRA.format("<xbrli:numerator>1</xbrli:numerator><xbrli:denominator>3"
                  "</xbrli:denominator>"), None, []),
], ids=["xbrl in an item", "a fraction's terms"])
def test_an_item_may_hold_a_nested_xbrl_and_a_fractions_terms(inserted, marker, codes):
    # Before, the nested xbrl was dropped with no finding. A fraction's
    # numerator and denominator are allowed and not kept yet.
    data = MINI.replace(TUPLE, TUPLE + inserted, 1).encode()
    for options in MODES:
        [outcome], _, _ = assert_same(data, options)
        [extra] = [i for i in outcome.instance.iter_items() if i.concept.local_name == "Extra"]
        assert extra.value == "5"
        findings = outcome.recovered_findings
        assert [(f.code, f.location) for f in findings] == [
            (code, where(data, marker)) for code in codes]


def test_fact_is_never_given_a_reserved_name(monkeypatch):
    fact = _InstanceBuilder.fact

    def checked(self, name, *args):
        assert name.namespace_uri not in (XBRLI, LINK_NS), name
        return fact(self, name, *args)

    monkeypatch.setattr(_InstanceBuilder, "fact", checked)
    documents = [p.read_bytes() for p in sorted(FIXTURES.rglob("*.xml"))]
    documents += [MINI.replace(TUPLE, TUPLE + inserted, 1).encode() for inserted in (
        "<xbrli:xbrl/>", BOGUS, EXTRA.format("<xbrli:xbrl/>"), EXTRA.format(BOGUS))]
    for data, options in itertools.product(documents, MODES):
        for read in (read_instances, from_tree):
            with contextlib.suppress(XbrlError):
                read(data, options)


def test_text_inside_a_context_fails_through_the_cli(tmp_path, capsys):
    data = instance_text().format(CONTEXT.replace("<xbrli:period>", "stray<xbrli:period>"))
    path = tmp_path / "stray.xml"
    path.write_text(data)
    at = where(data.encode(), "<xbrli:context")
    for command in (["validate"], ["facts"], ["parse", "--mode", "lenient"]):
        assert cli.main([*command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"xbrlcore: {command[0]} failed at {at}: context holds text, which it may not\n")


# -- attributes: unprefixed, foreign-prefixed and xml:lang ones become QName
# keys in document order; namespace declarations are not attributes ------

ATTRS = ' a="1" xmlns:f="urn:f" f:b="2" xml:lang="de"'
KEYED = [(QName("", "a"), "1"), (QName("urn:f", "b"), "2"), (QName(XML_NAMESPACE, "lang"), "de")]


def test_attributes_are_keyed_by_qname_in_document_order():
    segment = f"<xbrli:segment{ATTRS}><ex:member{ATTRS}>m</ex:member></xbrli:segment>"
    body = (f'<xbrli:context id="c1"{ATTRS}><xbrli:entity><xbrli:identifier scheme="urn:s">E'
            f"</xbrli:identifier>{segment}</xbrli:entity><xbrli:period><xbrli:forever/>"
            f'</xbrli:period></xbrli:context><xbrli:unit id="u1"{ATTRS}>{GOOD_MEASURE}'
            f'</xbrli:unit><ex:Leaf contextRef="c1"{ATTRS} unitRef="u1" decimals="0">5</ex:Leaf>'
            f'<ex:Tuple{ATTRS}><ex:Child{ATTRS} contextRef="c1">x</ex:Child></ex:Tuple>'
            '<link:footnoteLink xlink:type="extended"><link:loc xlink:type="locator"'
            ' xlink:label="l" xlink:href="#f"/><link:footnote xlink:type="resource"'
            f' xlink:label="n"{ATTRS}>note</link:footnote></link:footnoteLink>')
    data = instance_text(iso4217=ISO4217_NS, link=LINK_NS, xlink=XLINK_NS).format(body).encode()
    expected = {
        "xbrl": [], "context": [(QName("", "id"), "c1"), *KEYED], "entity": [],
        "identifier": [(QName("", "scheme"), "urn:s")], "segment": KEYED, "member": KEYED,
        "period": [], "forever": [], "unit": [(QName("", "id"), "u1"), *KEYED], "measure": [],
        "Leaf": [(QName("", "contextRef"), "c1"), *KEYED, (QName("", "unitRef"), "u1"),
                 (QName("", "decimals"), "0")],
        "Tuple": KEYED, "Child": [*KEYED, (QName("", "contextRef"), "c1")],
        "footnoteLink": [(QName(XLINK_NS, "type"), "extended")],
        "loc": [(QName(XLINK_NS, "type"), "locator"), (QName(XLINK_NS, "label"), "l"),
                (QName(XLINK_NS, "href"), "#f")],
        "footnote": [(QName(XLINK_NS, "type"), "resource"), (QName(XLINK_NS, "label"), "n"),
                     *KEYED],
    }
    tree = list(read_document(data).iter_elements())
    assert sorted(e.name.local_name for e in tree) == sorted(expected)
    for element in tree:
        assert list(element.attributes.items()) == expected[element.name.local_name], element
    for options in MODES:
        [outcome], _, _ = assert_same(data, options)
        kept = [e for fragment in fragments(outcome) for e in fragment.iter_elements()]
        assert [e.name.local_name for e in kept] == ["segment", "member", "footnote"]
        for element in kept:
            assert list(element.attributes.items()) == expected[element.name.local_name]
        assert [(f.concept.local_name, f.context_ref, f.unit_ref, f.decimals, f.value)
                for f in outcome.instance.iter_items()] == [
            ("Leaf", "c1", "u1", "0", "5"), ("Child", "c1", None, None, "x")]
        [tuple_] = [f for f in outcome.instance.facts if f.concept.local_name == "Tuple"]
        assert tuple_.context_ref is None

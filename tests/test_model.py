from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import random
from collections import Counter
from datetime import datetime

import pytest

import gen
import oracle_xml
import xbrlcore
from conftest import FIXTURES, fixture_bytes
from xbrlcore import (
    Concept,
    Context,
    DataKind,
    DocumentKind,
    Dts,
    DtsDocument,
    Duration,
    Entity,
    Finding,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    ItemKind,
    ParseMode,
    ParseOptions,
    ParseOutcome,
    PeriodType,
    QName,
    Rule,
    Severity,
    SourceLocation,
    TaxonomyRef,
    Tuple,
    Unit,
    ValidationReport,
    XbrlError,
    XmlElement,
    build_resolver,
    discover,
    find_instances,
    parse_instance,
    read_document,
    read_instances,
    rule_catalog,
    serialize,
    validate,
)
from xbrlcore.iso8601 import TimePoint, parse_point

EX = "urn:example:model"


def item(local, ctx="c1", **kwargs):
    return Item(concept=QName(EX, local), context_ref=ctx, **kwargs)


def context(cid="c1"):
    return Context(
        id=cid,
        entity=Entity(scheme="urn:scheme", identifier="X"),
        period=Instant(when=parse_point("2008-12-31")),
    )


def test_fact_count_empty_instance():
    assert Instance().fact_count() == 0


def test_fact_count_counts_nested_facts():
    instance = Instance(
        contexts={"c1": context()},
        facts=(
            item("a"), item("b"), item("c"),
            Tuple(concept=QName(EX, "t"), children=(item("x"), item("y"))),
        ),
    )
    assert instance.fact_count() == 6


def test_fact_count_fixture_matches_oracle():
    data = fixture_bytes("mini-instance.xml")
    oracle_count = oracle_xml.count_facts(oracle_xml.outer_xbrl_roots(oracle_xml.parse(data))[0])
    instance = parse_instance(read_document(data)).instance
    assert instance.fact_count() == oracle_count == 7


def test_iter_items_identity_flatten():
    facts = (item("a"), item("b"))
    instance = Instance(contexts={"c1": context()}, facts=facts)
    assert list(instance.iter_items()) == list(facts)


def test_iter_items_depth_first_order():
    x, y = item("x"), item("y")
    nested = Tuple(concept=QName(EX, "B"), children=(y,))
    top = Tuple(concept=QName(EX, "A"), children=(x, nested))
    instance = Instance(contexts={"c1": context()}, facts=(top,))
    assert list(instance.iter_items()) == [x, y]


def test_walk_yields_each_fact_with_its_enclosing_tuples():
    t2 = Tuple(concept=QName(EX, "T2"), children=(item("i1"),))
    t1 = Tuple(concept=QName(EX, "T1"), children=(t2, item("i2")))
    instance = Instance(contexts={"c1": context()}, facts=(t1, item("i3")))
    walked = list(instance.walk())
    assert [(f.concept.local_name, tuple(t.concept.local_name for t in ancestors))
            for f, ancestors in walked] == [
        ("T1", ()), ("T2", ("T1",)), ("i1", ("T1", "T2")), ("i2", ("T1",)), ("i3", ()),
    ]
    assert list(instance.iter_facts()) == [f for f, _ in walked]


def test_iter_items_fixture_concepts_match_oracle():
    data = fixture_bytes("mini-instance.xml")
    oracle_names = oracle_xml.item_concepts(oracle_xml.outer_xbrl_roots(oracle_xml.parse(data))[0])
    instance = parse_instance(read_document(data)).instance
    got = [(i.concept.namespace_uri, i.concept.local_name) for i in instance.iter_items()]
    assert sorted(got) == sorted(oracle_names)
    assert len(got) == 6


def test_iter_items_visits_fact_count_minus_tuple_count():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    tuples = sum(1 for f in instance.iter_facts() if isinstance(f, Tuple))
    assert sum(1 for _ in instance.iter_items()) == instance.fact_count() - tuples


def test_every_fixture_item_resolves():
    # cross-checked by hand: the fixture's contextRefs are c-2008i / c-2008d
    data = fixture_bytes("mini-instance.xml")
    instance = parse_instance(read_document(data)).instance
    for it in instance.iter_items():
        assert instance.contexts[it.context_ref].id in ("c-2008i", "c-2008d")


def test_resolve_unit_present():
    data = fixture_bytes("mini-instance.xml")
    instance = parse_instance(read_document(data)).instance
    assets = next(instance.iter_items())
    unit = instance.units[assets.unit_ref]
    assert unit.id == "u-usd"
    iso4217 = "http://www.xbrl.org/2003/iso4217"
    assert unit.numerator == (QName(iso4217, "USD"),)
    assert unit.denominator == ()


def test_model_equality_ignores_prefixes_and_positions():
    doc_p = b"""<p:xbrl xmlns:p="http://www.xbrl.org/2003/instance" xmlns:e="urn:x">
      <p:context id="c1"><p:entity><p:identifier scheme="s">I</p:identifier></p:entity>
      <p:period><p:instant>2008-12-31</p:instant></p:period></p:context>
      <e:A contextRef="c1">5</e:A></p:xbrl>"""
    doc_q = b"""<q:xbrl xmlns:q="http://www.xbrl.org/2003/instance" xmlns:f="urn:x">
      <q:context id="c1"><q:entity><q:identifier scheme="s">I</q:identifier></q:entity>
        <q:period><q:instant>2008-12-31</q:instant></q:period></q:context>


      <f:A contextRef="c1">5</f:A></q:xbrl>"""
    a = parse_instance(read_document(doc_p), ParseOptions()).instance
    b = parse_instance(read_document(doc_q), ParseOptions()).instance
    assert a == b


# Each record: its parameters with their defaults, as the public constructor
# has always taken them; a value for every field in field order (all
# distinct, so a value stored in the wrong field shows); and the values the
# optional fields take when omitted, which come last.
LOCATION = "source_location=SourceLocation(line=0, column=0)"
SEGMENT = XmlElement(QName(EX, "segment"))
FINDING = Finding("DTS-002", Severity.WARNING, "no periodType", SourceLocation(1, 1), "C")
RECORDS = {
    "XmlElement": (XmlElement, "name, attributes=None, children=(), "
                               f"{LOCATION}, prefix_bindings=None", {
        "name": QName(EX, "e"), "attributes": {QName("", "id"): "x"}, "children": ("text",),
        "source_location": SourceLocation(2, 3), "prefix_bindings": {"m": EX},
    }, {"attributes": {}, "children": (), "source_location": SourceLocation(),
           "prefix_bindings": {}}),
    "Item": (Item, "concept, context_ref, value='', unit_ref=None, decimals=None, "
                   f"precision=None, id=None, {LOCATION}", {
        "concept": QName(EX, "A"), "context_ref": "c1", "value": "5", "unit_ref": "u1",
        "decimals": "2", "precision": "3", "id": "f1", "source_location": SourceLocation(4, 5),
    }, {"value": "", "unit_ref": None, "decimals": None, "precision": None, "id": None,
           "source_location": SourceLocation()}),
    "Tuple": (Tuple, f"concept, children=(), id=None, context_ref=None, {LOCATION}", {
        "concept": QName(EX, "T"), "children": (item("x"),), "id": "t1", "context_ref": "c9",
        "source_location": SourceLocation(6, 7),
    }, {"children": (), "id": None, "context_ref": None, "source_location": SourceLocation()}),
    "Concept": (Concept, "qname, item_kind=<ItemKind.UNKNOWN: 'unknown'>, "
                         "data_kind=<DataKind.UNKNOWN: 'unknown'>, "
                         "period_type=<PeriodType.UNKNOWN: 'unknown'>, abstract=False", {
        "qname": QName(EX, "C"), "item_kind": ItemKind.ITEM, "data_kind": DataKind.MONETARY,
        "period_type": PeriodType.INSTANT, "abstract": True,
    }, {"item_kind": ItemKind.UNKNOWN, "data_kind": DataKind.UNKNOWN,
           "period_type": PeriodType.UNKNOWN, "abstract": False}),
    "Entity": (Entity, "scheme, identifier, segment=None", {
        "scheme": "urn:scheme", "identifier": "X", "segment": SEGMENT,
    }, {"segment": None}),
    "TimePoint": (TimePoint, "raw, moment, offset_minutes, is_date", {
        "raw": "2008-12-31T10:00:00+02:00", "moment": datetime(2008, 12, 31, 10),
        "offset_minutes": 120, "is_date": False,
    }, {}),
    "Instant": (Instant, "when", {"when": parse_point("2008-12-31")}, {}),
    "Duration": (Duration, "start, end", {
        "start": parse_point("2008-01-01"), "end": parse_point("2008-12-31"),
    }, {}),
    "Context": (Context, f"id, entity, period, scenario=None, {LOCATION}", {
        "id": "c1", "entity": Entity("urn:scheme", "X"),
        "period": Instant(parse_point("2008-12-31")), "scenario": SEGMENT,
        "source_location": SourceLocation(1, 2),
    }, {"scenario": None, "source_location": SourceLocation()}),
    "Unit": (Unit, f"id, numerator, denominator=(), {LOCATION}", {
        "id": "u1", "numerator": (QName(EX, "USD"),), "denominator": (QName(EX, "share"),),
        "source_location": SourceLocation(3, 4),
    }, {"denominator": (), "source_location": SourceLocation()}),
    "TaxonomyRef": (TaxonomyRef, "href, arcrole='', role=''", {
        "href": "a.xsd", "arcrole": "urn:arcrole", "role": "urn:role",
    }, {"arcrole": "", "role": ""}),
    "Forever": (Forever, "", {}, {}),
    "FootnoteArc": (FootnoteArc, "from_label, to_label, arc_role", {
        "from_label": "f1", "to_label": "n1", "arc_role": "urn:fact-footnote",
    }, {}),
    "FootnoteLink": (FootnoteLink, f"locators=(), footnotes=(), arcs=(), role='', {LOCATION}", {
        "locators": (("f1", "#a"),), "footnotes": (SEGMENT,),
        "arcs": (FootnoteArc("f1", "n1", "urn:fact-footnote"),), "role": "urn:role",
        "source_location": SourceLocation(5, 6),
    }, {"locators": (), "footnotes": (), "arcs": (), "role": "",
        "source_location": SourceLocation()}),
    "Instance": (Instance, "schema_refs=(), linkbase_refs=(), contexts=None, units=None, "
                           f"facts=(), footnote_links=(), {LOCATION}", {
        "schema_refs": (TaxonomyRef("a.xsd"),), "linkbase_refs": (TaxonomyRef("b.xml"),),
        "contexts": {"c1": context()}, "units": {"u1": Unit("u1", (QName(EX, "USD"),))},
        "facts": (item("a"),), "footnote_links": (FootnoteLink(role="urn:role"),),
        "source_location": SourceLocation(7, 8),
    }, {"schema_refs": (), "linkbase_refs": (), "contexts": {}, "units": {}, "facts": (),
        "footnote_links": (), "source_location": SourceLocation()}),
    "ParseOptions": (ParseOptions, "mode=<ParseMode.STRICT: 'strict'>", {
        "mode": ParseMode.LENIENT,
    }, {"mode": ParseMode.STRICT}),
    "ParseOutcome": (ParseOutcome, "instance, recovered_findings=()", {
        "instance": Instance(), "recovered_findings": (FINDING,),
    }, {"recovered_findings": ()}),
    "ValidationReport": (ValidationReport, "findings, counts, input_digest, skipped_rules=()", {
        "findings": (FINDING,), "counts": {"error": 1}, "input_digest": "sha256:00",
        "skipped_rules": ("DTS-001",),
    }, {"skipped_rules": ()}),
    "Finding": (Finding, "code, severity, message, location=SourceLocation(line=0, column=0), "
                         "subject=None", {
        "code": "CTX-001", "severity": Severity.ERROR, "message": "m",
        "location": SourceLocation(9, 1), "subject": "c9",
    }, {"location": SourceLocation(), "subject": None}),
    "Rule": (Rule, "code, severity, description, requires_dts=False", {
        "code": "DTS-001", "severity": Severity.WARNING, "description": "d", "requires_dts": True,
    }, {"requires_dts": False}),
    "DtsDocument": (DtsDocument, "uri, kind, outgoing_refs=()", {
        "uri": "a.xsd", "kind": DocumentKind.TAXONOMY_SCHEMA, "outgoing_refs": ("b.xsd",),
    }, {"outgoing_refs": ()}),
    "Dts": (Dts, "documents=None, concepts=None, unresolved=(), findings=(), "
                 "limit_exceeded=False", {
        "documents": {"a.xsd": DtsDocument("a.xsd", DocumentKind.LINKBASE)},
        "concepts": {QName(EX, "C"): Concept(QName(EX, "C"))},
        "unresolved": (("b.xsd", "not found"),), "findings": (FINDING,), "limit_exceeded": True,
    }, {"documents": {}, "concepts": {}, "unresolved": (), "findings": (),
        "limit_exceeded": False}),
}

# Each record's repr, as dataclass() wrote it, of the record built from all
# its RECORDS values.
REPRS = {
    "XmlElement": "XmlElement(name=QName(namespace_uri='urn:example:model', local_name='e'), "
                  "attributes={QName(namespace_uri='', local_name='id'): 'x'}, "
                  "children=('text',), source_location=SourceLocation(line=2, column=3))",
    "Item": "Item(concept=QName(namespace_uri='urn:example:model', local_name='A'), "
            "context_ref='c1', value='5', unit_ref='u1', decimals='2', precision='3', id='f1', "
            "source_location=SourceLocation(line=4, column=5))",
    "Tuple": "Tuple(concept=QName(namespace_uri='urn:example:model', local_name='T'), "
             "children=(Item(concept=QName(namespace_uri='urn:example:model', local_name='x'), "
             "context_ref='c1', value='', unit_ref=None, decimals=None, precision=None, id=None, "
             "source_location=SourceLocation(line=0, column=0)),), id='t1', context_ref='c9', "
             "source_location=SourceLocation(line=6, column=7))",
    "Concept": "Concept(qname=QName(namespace_uri='urn:example:model', local_name='C'), "
               "item_kind=<ItemKind.ITEM: 'item'>, data_kind=<DataKind.MONETARY: 'monetary'>, "
               "period_type=<PeriodType.INSTANT: 'instant'>, abstract=True)",
    "Entity": "Entity(scheme='urn:scheme', identifier='X', "
              "segment=XmlElement(name=QName(namespace_uri='urn:example:model', "
              "local_name='segment'), attributes={}, children=(), "
              "source_location=SourceLocation(line=0, column=0)))",
    "TimePoint": "TimePoint(raw='2008-12-31T10:00:00+02:00', moment=datetime.datetime(2008, 12, "
                 "31, 10, 0), offset_minutes=120, is_date=False)",
    "Instant": "Instant(when=TimePoint(raw='2008-12-31', moment=datetime.datetime(2008, 12, 31, "
               "0, 0), offset_minutes=None, is_date=True))",
    "Duration": "Duration(start=TimePoint(raw='2008-01-01', moment=datetime.datetime(2008, 1, 1, "
                "0, 0), offset_minutes=None, is_date=True), end=TimePoint(raw='2008-12-31', "
                "moment=datetime.datetime(2008, 12, 31, 0, 0), offset_minutes=None, "
                "is_date=True))",
    "Context": "Context(id='c1', entity=Entity(scheme='urn:scheme', identifier='X', "
               "segment=None), period=Instant(when=TimePoint(raw='2008-12-31', "
               "moment=datetime.datetime(2008, 12, 31, 0, 0), offset_minutes=None, "
               "is_date=True)), "
               "scenario=XmlElement(name=QName(namespace_uri='urn:example:model', "
               "local_name='segment'), attributes={}, children=(), "
               "source_location=SourceLocation(line=0, column=0)), "
               "source_location=SourceLocation(line=1, column=2))",
    "Unit": "Unit(id='u1', numerator=(QName(namespace_uri='urn:example:model', "
            "local_name='USD'),), denominator=(QName(namespace_uri='urn:example:model', "
            "local_name='share'),), source_location=SourceLocation(line=3, column=4))",
    "TaxonomyRef": "TaxonomyRef(href='a.xsd', arcrole='urn:arcrole', role='urn:role')",
    "Forever": "Forever()",
    "FootnoteArc": "FootnoteArc(from_label='f1', to_label='n1', arc_role='urn:fact-footnote')",
    "FootnoteLink": "FootnoteLink(locators=(('f1', '#a'),), "
                    "footnotes=(XmlElement(name=QName(namespace_uri='urn:example:model', "
                    "local_name='segment'), attributes={}, children=(), "
                    "source_location=SourceLocation(line=0, column=0)),), "
                    "arcs=(FootnoteArc(from_label='f1', to_label='n1', "
                    "arc_role='urn:fact-footnote'),), role='urn:role', "
                    "source_location=SourceLocation(line=5, column=6))",
    "Instance": "Instance(schema_refs=(TaxonomyRef(href='a.xsd', arcrole='', role=''),), "
                "linkbase_refs=(TaxonomyRef(href='b.xml', arcrole='', role=''),), "
                "contexts={'c1': Context(id='c1', entity=Entity(scheme='urn:scheme', "
                "identifier='X', segment=None), period=Instant(when=TimePoint(raw='2008-12-31', "
                "moment=datetime.datetime(2008, 12, 31, 0, 0), offset_minutes=None, "
                "is_date=True)), scenario=None, source_location=SourceLocation(line=0, "
                "column=0))}, units={'u1': Unit(id='u1', "
                "numerator=(QName(namespace_uri='urn:example:model', local_name='USD'),), "
                "denominator=(), source_location=SourceLocation(line=0, column=0))}, "
                "facts=(Item(concept=QName(namespace_uri='urn:example:model', local_name='a'), "
                "context_ref='c1', value='', unit_ref=None, decimals=None, precision=None, "
                "id=None, source_location=SourceLocation(line=0, column=0)),), "
                "footnote_links=(FootnoteLink(locators=(), footnotes=(), arcs=(), "
                "role='urn:role', source_location=SourceLocation(line=0, column=0)),), "
                "source_location=SourceLocation(line=7, column=8))",
    "ParseOptions": "ParseOptions(mode=<ParseMode.LENIENT: 'lenient'>)",
    "ParseOutcome": "ParseOutcome(instance=Instance(schema_refs=(), linkbase_refs=(), "
                    "contexts={}, units={}, facts=(), footnote_links=(), "
                    "source_location=SourceLocation(line=0, column=0)), "
                    "recovered_findings=(Finding(code='DTS-002', "
                    "severity=<Severity.WARNING: 'warning'>, message='no periodType', "
                    "location=SourceLocation(line=1, column=1), subject='C'),))",
    "ValidationReport": "ValidationReport(findings=(Finding(code='DTS-002', "
                        "severity=<Severity.WARNING: 'warning'>, message='no periodType', "
                        "location=SourceLocation(line=1, column=1), subject='C'),), "
                        "counts={'error': 1}, input_digest='sha256:00', "
                        "skipped_rules=('DTS-001',))",
    "Finding": "Finding(code='CTX-001', severity=<Severity.ERROR: 'error'>, message='m', "
               "location=SourceLocation(line=9, column=1), subject='c9')",
    "Rule": "Rule(code='DTS-001', severity=<Severity.WARNING: 'warning'>, description='d', "
            "requires_dts=True)",
    "DtsDocument": "DtsDocument(uri='a.xsd', kind=<DocumentKind.TAXONOMY_SCHEMA: 'schema'>, "
                   "outgoing_refs=('b.xsd',))",
    "Dts": "Dts(documents={'a.xsd': DtsDocument(uri='a.xsd', "
           "kind=<DocumentKind.LINKBASE: 'linkbase'>, outgoing_refs=())}, "
           "concepts={QName(namespace_uri='urn:example:model', "
           "local_name='C'): Concept(qname=QName(namespace_uri='urn:example:model', "
           "local_name='C'), item_kind=<ItemKind.UNKNOWN: 'unknown'>, "
           "data_kind=<DataKind.UNKNOWN: 'unknown'>, "
           "period_type=<PeriodType.UNKNOWN: 'unknown'>, abstract=False)}, unresolved=(('b.xsd', "
           "'not found'),), findings=(Finding(code='DTS-002', "
           "severity=<Severity.WARNING: 'warning'>, message='no periodType', "
           "location=SourceLocation(line=1, column=1), subject='C'),), limit_exceeded=True)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_public_constructor_builds_every_record(name):
    cls, signature, values, defaults = RECORDS[name]
    names = [f.name for f in dataclasses.fields(cls)]
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == names == list(values)
    assert ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in parameters) == signature

    def fields_of(record):
        return {n: getattr(record, n) for n in names}

    for record in (cls(*values.values()), cls(**values)):
        assert all(getattr(record, n) is v for n, v in values.items())

    required = len(values) - len(defaults)
    bare = cls(*list(values.values())[:required])
    assert fields_of(bare) == dict(list(values.items())[:required], **defaults)
    # each record gets its own empty dict for each default_factory field
    other = cls(*list(values.values())[:required])
    dicts = [getattr(record, f.name) for record in (bare, other) for f in dataclasses.fields(cls)
             if f.default_factory is not dataclasses.MISSING]
    assert len({id(d) for d in dicts}) == len(dicts)
    assert cls.__match_args__ == tuple(names)

    full = cls(**values)
    copy = dataclasses.replace(full)
    assert copy == full and all(getattr(copy, n) is v for n, v in values.items())
    if "source_location" in values:
        moved = dataclasses.replace(full, source_location=SourceLocation(8, 9))
        assert fields_of(moved) == {**values, "source_location": SourceLocation(8, 9)}
        assert moved == full  # positions never take part in equality

    frozen = dataclasses.FrozenInstanceError
    for n in names:
        with pytest.raises(frozen, match=f"^cannot assign to field '{n}'$"):
            setattr(full, n, values[n])
        with pytest.raises(frozen, match=f"^cannot delete field '{n}'$"):
            delattr(full, n)
    with pytest.raises(frozen):
        full.other = 1


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_prints_compares_and_hashes_as_dataclass_did(name):
    cls, _, values, _ = RECORDS[name]
    full = cls(**values)
    assert repr(full) == REPRS[name]
    assert full == cls(**values) and full != object()
    compared = tuple(getattr(full, f.name) for f in dataclasses.fields(cls) if f.compare)
    try:
        expected = hash(compared)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(full)
    else:
        assert hash(full) == expected


def test_a_record_that_reaches_itself_prints_as_dataclass_did():
    contexts = {}
    instance = Instance(contexts=contexts)
    contexts["self"] = instance
    assert repr(instance) == (
        "Instance(schema_refs=(), linkbase_refs=(), contexts={'self': ...}, units={}, "
        "facts=(), footnote_links=(), source_location=SourceLocation(line=0, column=0))")
    contexts.clear()


@pytest.mark.parametrize("name", RECORDS)
def test_the_dataclasses_functions_read_every_record(name):
    cls, _, values, defaults = RECORDS[name]
    full = cls(**values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(full)
    assert dataclasses.fields(full) == dataclasses.fields(cls)
    as_dict = dataclasses.asdict(full)
    assert list(as_dict) == list(values) and len(dataclasses.astuple(full)) == len(values)
    for n, v in values.items():
        if not any(dataclasses.is_dataclass(obj) for obj in reachable(v)):
            assert as_dict[n] == v
    # copy.replace (Python 3.13 and later) calls the class's __replace__
    replace = getattr(copy, "replace",
                      lambda obj, /, **changes: type(obj).__replace__(obj, **changes))
    for changes in ({}, defaults):
        twin, expected = replace(full, **changes), dataclasses.replace(full, **changes)
        assert type(twin) is cls
        assert [getattr(twin, n) for n in values] == [getattr(expected, n) for n in values]


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_pickles_and_copies_to_an_equal_record(name):
    cls, _, values, _ = RECORDS[name]
    full = cls(**values)
    for twin in (pickle.loads(pickle.dumps(full)), copy.copy(full), copy.deepcopy(full)):
        # compare=False fields too: a copy keeps its position and bindings
        assert type(twin) is cls and twin == full
        assert {n: getattr(twin, n) for n in values} == values
    assert all(getattr(copy.copy(full), n) is v for n, v in values.items())


@pytest.mark.parametrize("name", RECORDS)
def test_the_compiled_constructor_builds_what_the_class_builds(name):
    # The readers call Cls.__new__(Cls, ...) to skip the class call's round
    # trip through type.__call__; the record must be the same in every way.
    cls, _, values, _ = RECORDS[name]
    direct, called = cls.__new__(cls, *values.values()), cls(*values.values())
    assert type(direct) is cls
    assert direct == called and repr(direct) == repr(called) == REPRS[name]
    try:
        expected = hash(called)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(direct)
    else:
        assert hash(direct) == expected
    twin = pickle.loads(pickle.dumps(direct))
    assert type(twin) is cls and twin == called
    for n in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(direct, n, values[n])


# The records the readers build per element, per fact and per context.
BUILT_PER_ELEMENT = (XmlElement, Item, Tuple, Context, Entity, Instant, Duration, Forever,
                     TimePoint, Unit)


def test_the_readers_build_records_without_calling_their_classes(monkeypatch):
    # A class call looks __new__ up when it runs, so a counter put in its
    # place sees every one; the readers hold the compiled function itself.
    documents = [serialize(gen.random_instance(random.Random(seed))) for seed in range(30)]
    calls = Counter()
    for cls in BUILT_PER_ELEMENT:
        def counted(record_cls, *args, __new__=cls.__new__, **kwargs):
            calls[record_cls.__name__] += 1
            return __new__(record_cls, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    Item(QName(EX, "A"), "c1")
    assert calls == {"Item": 1}
    calls.clear()
    built = set()
    for data in documents:
        for options in (ParseOptions(), ParseOptions(ParseMode.LENIENT)):
            for result in (read_instances(data, options), tree_and_instances(data, options)):
                built |= {type(obj) for obj in reachable(result)}
    assert calls == {}
    assert built >= {*BUILT_PER_ELEMENT, FootnoteLink}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_subclassed(name):
    cls = RECORDS[name][0]
    with pytest.raises(TypeError, match=f"^{name} is a final record and cannot be subclassed$"):
        type("Sub", (cls,), {"__slots__": ()})


def reachable(root):
    """Every object reachable from ``root`` through containers and attributes."""
    # seen keeps each object alive: the (key, value) tuples of dict.items()
    # are temporaries, and a freed one's id may come again
    stack, seen = [root], {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, int, float, type(None), datetime)):
            continue
        seen[id(obj)] = obj
        yield obj
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.items())
        else:
            stack.extend(getattr(obj, n) for c in type(obj).__mro__
                         for n in c.__dict__.get("__slots__", ()))
            stack.extend(getattr(obj, "__dict__", {}).values())


def tree_and_instances(data, options):
    root = read_document(data)
    return root, find_instances(root, options)


def test_both_readers_build_every_record_as_its_public_class():
    # A record is built as an instance of a private base and then handed to
    # its class: no object of the base may reach a caller.
    public = {cls for cls, *_ in RECORDS.values()}
    private = tuple(cls.__base__ for cls in public)
    assert not public & set(private)
    seen = set()
    for path in sorted(p for p in FIXTURES.rglob("*") if p.is_file()):
        data = path.read_bytes()
        for mode in ParseMode:
            for read in (read_instances, tree_and_instances):
                try:
                    result = read(data, ParseOptions(mode))
                except XbrlError:
                    continue
                kinds = {type(obj) for obj in reachable(result) if isinstance(obj, private)}
                assert kinds <= public, (path.name, mode)
                seen |= kinds
    # no fixture has a forever period; the others are not the readers' to build
    assert seen == public - {Concept, Dts, DtsDocument, Forever, ParseOptions, Rule,
                             ValidationReport}
    outcome = parse_instance(read_document(fixture_bytes("mini-instance.xml")))
    dts = discover(outcome.instance, build_resolver(str(FIXTURES)),
                   base_uri=str(FIXTURES / "mini-instance.xml"))
    built = (dts, validate(outcome, dts), rule_catalog())
    assert {type(obj) for obj in reachable(built) if isinstance(obj, private)} == {
        Concept, Dts, DtsDocument, Rule, ValidationReport}


def test_no_dataclass_carries_a_generated_docstring():
    # Every record keeps its own docstring, not the "Name(field, ...)" that
    # dataclass() writes from inspect.signature for a class without one.
    classes = [obj for module in pkgutil.iter_modules(xbrlcore.__path__)
               for obj in vars(importlib.import_module(f"xbrlcore.{module.name}")).values()
               if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
               and obj.__module__ == f"xbrlcore.{module.name}"]
    assert len(classes) > 20
    assert [cls.__name__ for cls in classes if cls.__doc__.startswith(cls.__name__ + "(")] == []

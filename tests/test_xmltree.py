from __future__ import annotations

import _thread
import contextlib
import gc
import itertools
import random
import threading
import tracemalloc
import xml.parsers.expat

import pytest
from hypothesis import given, settings

import gen
import oracle_xml
from conftest import FIXTURES, fixture_bytes
from test_read_instances import FILINGS, MODES, filing
from xbrlcore import (
    Instance,
    MalformedXml,
    ParseError,
    ParseMode,
    ParseOptions,
    QName,
    SourceLocation,
    TaxonomyRef,
    UnboundPrefix,
    UnsupportedEncoding,
    Resolver,
    XbrlError,
    XmlElement,
    discover,
    fact_rows,
    find_instances,
    parse_instance,
    read_document,
    read_instances,
    serialize,
    validate,
)
from xbrlcore import constants, xmltree
from xbrlcore.cli import main
from xbrlcore.xmltree import serialize_element

XBRLI = "http://www.xbrl.org/2003/instance"


def test_default_namespace_resolution():
    root = read_document(b'<a xmlns="urn:x"/>')
    assert root.name == QName("urn:x", "a")


def test_document_order_of_children():
    root = read_document(b"<a><b/>text</a>")
    children = root.children
    assert len(children) == 2
    assert isinstance(children[0], XmlElement)
    assert children[0].name == QName("", "b")
    assert children[1] == "text"


def tree_shape(element: XmlElement):
    """``oracle_xml.shape`` of an element."""
    return (element.name, element.attributes,
            [c if isinstance(c, str) else tree_shape(c) for c in element.children])


def assert_reads_as_the_oracle(data: bytes) -> None:
    try:
        expected = oracle_xml.shape(oracle_xml.parse(data))
    except oracle_xml.OracleError:  # not a document: the tree must refuse it too
        with pytest.raises(MalformedXml):
            read_document(data)
        return
    assert tree_shape(read_document(data)) == expected


@pytest.mark.parametrize("path", sorted(p for p in FIXTURES.rglob("*") if p.is_file()),
                         ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_fixture_tree_matches_oracle(path):
    assert_reads_as_the_oracle(path.read_bytes())


def test_generated_instances_match_oracle():
    for seed in range(40):
        assert_reads_as_the_oracle(serialize(gen.random_instance(random.Random(seed))))


def test_prefix_never_part_of_identity():
    a = read_document(b'<p:a xmlns:p="urn:x"><p:b/></p:a>')
    b = read_document(b'<q:a xmlns:q="urn:x"><q:b/></q:a>')
    assert a == b


def test_unprefixed_attribute_has_no_namespace():
    root = read_document(b'<a xmlns="urn:x" id="1"/>')
    assert root.attributes == {QName("", "id"): "1"}


def test_prefixed_attribute_resolves():
    root = read_document(b'<a xmlns:p="urn:y" p:ref="2"/>')
    assert root.attributes == {QName("urn:y", "ref"): "2"}
    # a namespace name is kept whole, even one holding a space
    root = read_document(b'<p:a xmlns:p="urn:a b" p:k="1"/>')
    assert root.name == QName("urn:a b", "a")
    assert root.attributes == {QName("urn:a b", "k"): "1"}


def test_unbound_prefix_on_element():
    with pytest.raises(UnboundPrefix):
        read_document(b"<p:a/>")


def test_unbound_prefix_on_attribute():
    with pytest.raises(UnboundPrefix):
        read_document(b'<a p:x="1"/>')


def test_malformed_xml():
    for data in (
        b"<a><b></a>",
        b"this is not XML",
        # declarations the Namespaces in XML 1.0 constraints forbid
        b'<a xmlns:p=""/>',
        b'<a xmlns:xml="urn:other"/>',
        b'<a xmlns:xmlns="urn:x"/>',
        b'<a xmlns:p="http://www.w3.org/2000/xmlns/"/>',
    ):
        with pytest.raises(MalformedXml):
            read_document(data)


def test_dtd_rejected_with_subcode():
    data = b'<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>'
    with pytest.raises(MalformedXml) as err:
        read_document(data)
    assert err.value.subcode == "doctype"


def test_unsupported_encoding():
    with pytest.raises(UnsupportedEncoding):
        read_document(b'<?xml version="1.0" encoding="EBCDIC-FUNKY"?><a/>')
    # an encoding expat knows but the bytes contradict fails in expat itself
    with pytest.raises(UnsupportedEncoding) as err:
        read_document(b'<?xml version="1.0" encoding="UTF-16"?><a/>')
    assert str(err.value) == xml.parsers.expat.errors.XML_ERROR_INCORRECT_ENCODING
    assert err.value.location == (1, 30)


def test_duplicate_attribute_qnames_rejected():
    data = b'<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>'
    with pytest.raises(MalformedXml) as err:
        read_document(data)
    assert err.value.subcode == "duplicate-attribute"
    # each name already resolved in this scope by an earlier element
    data = (b'<a xmlns:p="urn:x" xmlns:q="urn:x"><b p:k="1"/><b q:k="2"/>\n'
            b'<b p:k="1" q:k="2"/></a>')
    with pytest.raises(MalformedXml) as err:
        read_document(data)
    assert err.value.subcode == "duplicate-attribute"
    assert (str(err.value), err.value.location) == ("duplicate attribute", (2, 0))
    # the same raw name twice carries the subcode too
    with pytest.raises(MalformedXml) as err:
        read_document(b'<a k="1" k="2"/>')
    assert (str(err.value), err.value.location, err.value.subcode) == (
        "duplicate attribute", (1, 9), "duplicate-attribute")


def test_predefined_entities_and_char_refs():
    root = read_document(b"<a>&amp;&lt;&gt;&quot;&apos;&#65;</a>")
    assert root.text_content() == "&<>\"'A"


def test_read_is_pure_function_of_bytes():
    data = fixture_bytes("mini-instance.xml")
    assert read_document(data) == read_document(data)


def test_source_locations_nondecreasing_in_document_order():
    root = read_document(fixture_bytes("mini-instance.xml"))
    locations = [e.source_location for e in root.iter_elements()]
    assert locations == sorted(locations)
    assert all(type(loc) is SourceLocation for loc in locations)


def test_iter_elements_walks_a_deep_tree():
    depth = 5000
    root = read_document(b"<w>" * depth + b"<x/>" + b"</w>" * depth)
    names = [e.name.local_name for e in root.iter_elements()]
    assert names == ["w"] * depth + ["x"]


def test_equality_walks_a_deep_tree():
    depth = 5000

    def deep(leaf: bytes) -> XmlElement:
        return read_document(b"<w>" * depth + leaf + b"</w>" * depth)

    assert deep(b"<x>1</x>") == deep(b"<x>1</x>")
    assert deep(b"<x>1</x>") != deep(b"<x>2</x>")
    assert deep(b"<x>1</x>") != deep(b"<y>1</y>")


def test_serialize_walks_a_deep_tree():
    depth = 5000
    node = XmlElement(name=QName("", "x"))
    for _ in range(depth):
        node = XmlElement(name=QName("", "w"), children=(node,))
    back = read_document(serialize_element(node))
    names = [e.name.local_name for e in back.iter_elements()]
    assert names == ["w"] * depth + ["x"]


def test_serialize_numbers_past_a_hinted_ns1():
    root = XmlElement(name=QName("urn:a", "r"), children=(
        XmlElement(name=QName("urn:b", "c"), attributes={QName("urn:c", "k"): "v"}),
    ))
    data = serialize_element(root, {"urn:a": "ns1"})
    assert data == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<ns1:r xmlns:ns1="urn:a" xmlns:ns2="urn:b" xmlns:ns3="urn:c">'
        b'<ns2:c ns3:k="v"/></ns1:r>'
    )
    assert read_document(data) == root


def test_resolve_qname_text_trims_only_xml_whitespace():
    element = read_document(b'<r xmlns:p="urn:p"/>')
    assert element.resolve_qname_text(" \tp:x\r\n") == QName("urn:p", "x")
    with pytest.raises(UnboundPrefix):
        element.resolve_qname_text("\u00a0p:x")


def test_every_error_carries_a_location():
    root = read_document(b'<r xmlns:p="urn:p">\n  <v/></r>')
    value = root.child_elements()[0]
    for text, error in (("q:x", UnboundPrefix), ("p:", MalformedXml), ("", MalformedXml)):
        with pytest.raises(error) as err:
            value.resolve_qname_text(text)
        assert err.value.location == value.source_location == (2, 2)
    with pytest.raises(UnsupportedEncoding) as err:
        read_document(b'<?xml version="1.0" encoding="EBCDIC-FUNKY"?><a/>')
    assert err.value.location == (1, 0)
    # an error found at no position reports line 0
    assert XbrlError("no position").location == SourceLocation() == (0, 0)


def test_prefix_rebound_in_sibling_scopes_gives_different_names():
    root = read_document(
        b'<r><a xmlns:p="urn:1"><p:x p:k="1"/></a><b xmlns:p="urn:2"><p:x p:k="2"/></b></r>'
    )
    first, second = (scope.child_elements()[0] for scope in root.child_elements())
    assert first.name == QName("urn:1", "x")
    assert second.name == QName("urn:2", "x")
    assert list(first.attributes) == [QName("urn:1", "k")]
    assert list(second.attributes) == [QName("urn:2", "k")]


@pytest.mark.parametrize("data", [
    b'<r><a xmlns:p="urn:1"><p:x/></a>\n<p:x/></r>',
    b'<r><a xmlns:p="urn:1" p:k="1"/>\n<b p:k="1"/></r>',
])
def test_prefix_declared_in_sibling_scope_stays_unbound(data):
    with pytest.raises(UnboundPrefix) as err:
        read_document(data)
    assert (str(err.value), err.value.location) == ("unbound prefix", (2, 0))


def test_unprefixed_attribute_differs_from_default_namespace_element():
    root = read_document(b'<k xmlns="urn:d" k="1"><k k="2"/></k>')
    inner = root.child_elements()[0]
    assert root.name == inner.name == QName("urn:d", "k")
    assert list(root.attributes) == list(inner.attributes) == [QName("", "k")]


def test_same_named_elements_in_one_scope_share_one_qname():
    root = read_document(
        b'<r xmlns:p="urn:1"><p:x a="1"/><p:x a="2"/><s><p:x a="3"/></s></r>'
    )
    xs = [e for e in root.iter_elements() if e.name == QName("urn:1", "x")]
    assert len(xs) == 3
    assert xs[0].name is xs[1].name is xs[2].name
    first, second, third = (next(iter(x.attributes)) for x in xs)
    assert first is second is third
    # the library's own names arrive as its constants
    root = read_document(f'<x:xbrl xmlns:x="{XBRLI}" id="i"><x:context id="c"/></x:xbrl>'
                         .encode())
    context = root.child_elements()[0]
    assert root.name is constants.QN_XBRL and context.name is constants.QN_CONTEXT
    assert next(iter(root.attributes)) is next(iter(context.attributes)) is constants.QN_ATTR_ID


# Expat interns namespace prefixes and URIs in the table it interns names
# in: each case has a prefix or URI equal to an unqualified name, seen before
# or after that name, or a default namespace, or a name first seen deep in
# the tree. Expected: each element's name, attributes and the bindings it
# adds to the initial scope, in document order.
@pytest.mark.parametrize("data, expected", [
    (b'<a id="1"><b xmlns:id="urn:x" id:k="2"/></a>',
     [(("", "a"), {("", "id"): "1"}, {}),
      (("", "b"), {("urn:x", "k"): "2"}, {"id": "urn:x"})]),
    (b'<a k="1"><b xmlns:p="k" p:x="2"/></a>',
     [(("", "a"), {("", "k"): "1"}, {}),
      (("", "b"), {("k", "x"): "2"}, {"p": "k"})]),
    (b'<a><a xmlns:q="urn:x" q:k="2"/><a q="3"/></a>',
     [(("", "a"), {}, {}), (("", "a"), {("urn:x", "k"): "2"}, {"q": "urn:x"}),
      (("", "a"), {("", "q"): "3"}, {})]),
    (b'<a xmlns:p="k"><a k="3"/><k k="4"/><p:a/></a>',
     [(("", "a"), {}, {"p": "k"}), (("", "a"), {("", "k"): "3"}, {"p": "k"}),
      (("", "k"), {("", "k"): "4"}, {"p": "k"}), (("k", "a"), {}, {"p": "k"})]),
    (b'<k xmlns:k="k" k="1"><k:k k:k="2" k="3"/></k>',
     [(("", "k"), {("", "k"): "1"}, {"k": "k"}),
      (("k", "k"), {("k", "k"): "2", ("", "k"): "3"}, {"k": "k"})]),
    (b'<a xmlns="urn:d" x="1"><b xmlns="" y="2"><c/></b><d/></a>',
     [(("urn:d", "a"), {("", "x"): "1"}, {"": "urn:d"}), (("", "b"), {("", "y"): "2"}, {}),
      (("", "c"), {}, {}), (("urn:d", "d"), {}, {"": "urn:d"})]),
    (b'<a><b><c><d><e deep="1" xmlns:q="deep" q:deep="2"/></d></c></b></a>',
     [(("", "a"), {}, {}), (("", "b"), {}, {}), (("", "c"), {}, {}), (("", "d"), {}, {}),
      (("", "e"), {("", "deep"): "1", ("deep", "deep"): "2"}, {"q": "deep"})]),
    (b'<id xmlns:id="id" xmlns="contextRef" id:id="1" id="2"><contextRef/></id>',
     [(("contextRef", "id"), {("id", "id"): "1", ("", "id"): "2"},
       {"id": "id", "": "contextRef"}),
      (("contextRef", "contextRef"), {}, {"id": "id", "": "contextRef"})]),
], ids=["prefix-after-name", "uri-after-name", "prefix-before-name", "uri-before-name",
        "one-string-everywhere", "default-namespace", "deep", "library-names"])
def test_every_name_arrives_as_a_qname(data, expected):
    elements = list(read_document(data).iter_elements())
    for element in elements:
        assert element.name.__class__ is QName
        assert all(key.__class__ is QName for key in element.attributes)
        assert all(text.__class__ is str for item in element.prefix_bindings.items()
                   for text in item)
    assert [(e.name, list(e.attributes.items()),
             {k: v for k, v in e.prefix_bindings.items() if k != "xml"}) for e in elements] \
        == [(name, list(attributes.items()), bindings) for name, attributes, bindings in expected]


def test_qname_and_source_location_hash_and_compare_as_tuples():
    qn = QName("urn:x", "a")
    assert qn == QName("urn:x", "a") and hash(qn) == hash(QName("urn:x", "a"))
    assert qn != QName("urn:y", "a") and qn != QName("urn:x", "b")
    assert qn == ("urn:x", "a") and hash(qn) == hash(("urn:x", "a"))
    assert {qn: 1}[QName("urn:x", "a")] == 1
    assert (qn.namespace_uri, qn.local_name) == ("urn:x", "a")
    assert str(qn) == qn.clark() == "{urn:x}a" and QName("", "a").clark() == "a"
    assert repr(qn) == "QName(namespace_uri='urn:x', local_name='a')"
    loc = SourceLocation(3, 7)
    assert loc == SourceLocation(3, 7) == (3, 7) and hash(loc) == hash((3, 7))
    assert SourceLocation(2, 9) < loc < SourceLocation(3, 8)
    assert SourceLocation() == SourceLocation(0, 0)
    assert (loc.line, loc.column) == (3, 7)
    assert str(loc) == "3:7" and repr(loc) == "SourceLocation(line=3, column=7)"


def test_iter_elements_filter_no_match_is_empty():
    root = read_document(b'<a xmlns="urn:x"><b/></a>')
    assert [e for e in root.iter_elements() if e.name == QName("urn:x", "zzz")] == []


def test_iter_elements_filter_two_sibling_xbrl_roots():
    data = (
        b'<wrap xmlns:x="http://www.xbrl.org/2003/instance">'
        b"<x:xbrl/><x:xbrl/></wrap>"
    )
    found = [e for e in read_document(data).iter_elements() if e.name == QName(XBRLI, "xbrl")]
    assert len(found) == 2
    assert found[0].source_location < found[1].source_location


def test_iter_elements_filter_embedded_fixture_matches_oracle():
    data = fixture_bytes("mini-embedded.xml")
    oracle_count = oracle_xml.count_named(oracle_xml.parse(data), XBRLI, "xbrl")
    found = [e for e in read_document(data).iter_elements() if e.name == QName(XBRLI, "xbrl")]
    assert len(found) == oracle_count == 3
    locations = [e.source_location for e in found]
    assert locations == sorted(locations)
    assert len(set(locations)) == 3
    assert all(e.name == QName(XBRLI, "xbrl") for e in found)


def test_whitespace_only_text_preserved_in_tree():
    root = read_document(b"<a>\n  <b/>\n</a>")
    texts = [ch for ch in root.children if isinstance(ch, str)]
    assert texts == ["\n  ", "\n"]


def test_serialize_reread_is_idempotent():
    root = read_document(fixture_bytes("mini-instance.xml"))
    once = serialize_element(root)
    again = serialize_element(read_document(once))
    assert read_document(once) == read_document(again)
    assert once == again


def test_serialize_escapes_attribute_whitespace():
    el = XmlElement(name=QName("", "a"),
                    attributes={QName("", "k"): "line1\nline2\ttab"},
                    children=("text & <markup>",))
    back = read_document(serialize_element(el))
    assert back.attributes.get(QName("", "k")) == "line1\nline2\ttab"
    assert back.text_content() == "text & <markup>"


@pytest.mark.parametrize("bad", ["\x00", "\x01", "\ud800", "\ufffe"])
def test_serialize_rejects_characters_xml_cannot_carry(bad):
    # The XML declaration and its newline are 39 bytes.
    for el, offset in ((XmlElement(QName("", "a"), {QName("", "k"): f"x{bad}"}), 46),
                       (XmlElement(QName("", "a"), children=(f"y{bad}",)), 43)):
        with pytest.raises(ValueError, match=f"^U\\+{ord(bad):04X} at byte {offset} "):
            serialize_element(el)


def test_resolve_qname_text_uses_in_scope_prefixes():
    root = read_document(b'<a xmlns:m="urn:m"><u>m:USD</u></a>')
    u = root.child_elements()[0]
    assert u.resolve_qname_text(u.text_content()) == QName("urn:m", "USD")
    with pytest.raises(UnboundPrefix):
        u.resolve_qname_text("nope:USD")
    # a redeclaration holds inside its element only
    root = read_document(
        b'<a xmlns:m="urn:1"><b xmlns:m="urn:2"><u>m:X</u></b><u>m:X</u></a>'
    )
    inner, outer = (e for e in root.iter_elements() if e.name == QName("", "u"))
    assert inner.resolve_qname_text(inner.text_content()) == QName("urn:2", "X")
    assert outer.resolve_qname_text(outer.text_content()) == QName("urn:1", "X")
    # xmlns="" undeclares the default namespace for names and for values
    root = read_document(b'<a xmlns="urn:d"><b xmlns=""><u>X</u></b><u>X</u></a>')
    b, outer = root.child_elements()
    inner = b.child_elements()[0]
    assert (b.name, inner.name, outer.name) == (
        QName("", "b"), QName("", "u"), QName("urn:d", "u"))
    assert inner.resolve_qname_text("X") == QName("", "X")
    assert outer.resolve_qname_text("X") == QName("urn:d", "X")


def test_text_expat_delivers_in_pieces_reads_back_as_one_string():
    # A run of text longer than expat's text buffer arrives in several
    # pieces (entity and character references and CDATA add more); text
    # around a comment arrives in one. Either way it is one text child.
    long_text = "x" * 70_000
    source = f"head &amp; {long_text} &#233; <![CDATA[<raw> & ]]> tail"
    value = f"head & {long_text} \u00e9 <raw> &  tail"
    data = (
        f'<x:xbrl xmlns:x="{XBRLI}" xmlns:ex="urn:ex">'
        f'<ex:Long contextRef="c1">{source}</ex:Long>'
        '<ex:Split contextRef="c1">be<!-- a comment -->fore</ex:Split></x:xbrl>'
    ).encode()
    root = read_document(data)
    long_element, split = root.child_elements()
    assert long_element.children == (value,)
    assert split.children == ("before",)
    [outcome] = find_instances(root)
    assert [item.value for item in outcome.instance.facts] == [value, "before"]


def test_a_pipeline_pass_leaves_nothing_for_the_cyclic_collector():
    # Trees, parsers, models and results hold no reference cycles, so
    # reference counting frees each as soon as it is dropped, on the failure
    # paths too. This is what makes pausing the collector safe.
    failures = set()
    gc.disable()
    try:
        gc.collect()
        resolver = Resolver(FIXTURES)
        for path, mode, one_pass in itertools.product(
                sorted(p for p in FIXTURES.rglob("*") if p.is_file()), ParseMode, (False, True)):
            data, options = path.read_bytes(), ParseOptions(mode=mode)
            try:
                outcomes = (read_instances(data, options) if one_pass
                            else find_instances(read_document(data), options))
            except MalformedXml:
                failures.add((MalformedXml, one_pass))
                continue
            except ParseError:
                failures.add((ParseError, one_pass))
                continue
            for outcome in outcomes:
                validate(outcome, discover(outcome.instance, resolver, base_uri=str(path)))
                fact_rows(outcome.instance)
                serialize(outcome.instance)
        del resolver, outcomes, outcome
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert failures == {(error, one_pass) for error in (MalformedXml, ParseError)
                        for one_pass in (False, True)}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(**FILINGS)
def test_generated_documents_leave_nothing_for_the_cyclic_collector(seeds, edits, cut):
    # A cycle the library built would now wait for a full collection, since
    # a call hands what it built to the oldest generation: generated
    # instances with planted defects, some cut short, through both readers
    # in both modes, then fact_rows and serialize. With the collector
    # disabled, all they allocate stays young, so collecting generation 0
    # finds any cycle among it.
    data = filing(seeds, edits, cut)
    gc.disable()
    try:
        gc.collect(0)
        for options, one_pass in itertools.product(MODES, (False, True)):
            try:
                outcomes = (read_instances(data, options) if one_pass
                            else find_instances(read_document(data), options))
            except XbrlError:
                continue
            for outcome in outcomes:
                fact_rows(outcome.instance)
                with contextlib.suppress(ValueError):  # what cannot be written back
                    serialize(outcome.instance)
        assert gc.collect(0) == 0
    finally:
        gc.enable()


def _bulk_instance(items: int) -> bytes:
    contexts = "".join(
        f'<xbrli:context id="c{n}"><xbrli:entity><xbrli:identifier scheme="urn:s">e'
        f'</xbrli:identifier></xbrli:entity><xbrli:period><xbrli:instant>2020-01-{n + 1:02}'
        '</xbrli:instant></xbrli:period></xbrli:context>'
        for n in range(20)
    )
    facts = "".join(f'<ex:A contextRef="c{n % 20}" unitRef="u" decimals="0">{n}</ex:A>'
                    for n in range(items))
    return (
        f'<xbrli:xbrl xmlns:xbrli="{XBRLI}" xmlns:ex="urn:ex"'
        ' xmlns:iso4217="http://www.xbrl.org/2003/iso4217">'
        f'{contexts}<xbrli:unit id="u"><xbrli:measure>iso4217:USD</xbrli:measure>'
        f'</xbrli:unit>{facts}</xbrli:xbrl>'
    ).encode()


def _big_schema(declarations: int) -> bytes:
    return (
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
        f' xmlns:xbrli="{XBRLI}" targetNamespace="urn:big">'
        + "".join(f'<xsd:element name="C{n}" type="xbrli:monetaryItemType"'
                  ' substitutionGroup="xbrli:item" xbrli:periodType="instant"/>'
                  for n in range(declarations))
        + "</xsd:schema>"
    ).encode()


def _from_an_empty_young_generation():
    """Collect every generation, then thaw what CPython 3.12's collector
    parks in the permanent generation (immortal objects), which the
    hand-off would take for a caller's ``gc.freeze()``, and have the next
    call read the freeze count."""
    gc.collect()
    gc.unfreeze()
    xmltree._frozen_recheck = 0


def test_building_a_large_instance_runs_no_collection(tmp_path):
    # Counted, not timed, so host speed cannot change the outcome. Each call
    # starts from an empty young generation, so a collection that its own
    # argument tuple would trigger on entry is not counted against it. A
    # call that hands off starts one collection, of generation 1, before it
    # pauses the collector, none while it is paused, and returns with an
    # empty young generation, so that no collection starts in the next
    # threshold - 1 allocations either. discover only pauses: no collection.
    assert not _thread._count(), "the hand-off needs this thread to be alone"
    data = _bulk_instance(5000)
    (tmp_path / "big.xsd").write_bytes(_big_schema(3000))
    threshold = gc.get_threshold()[0]
    current = [None]  # name of the call in progress
    collections, young = [], {}

    def count(phase, info):
        if phase == "start" and current[0]:
            collections.append((current[0], info["generation"], gc.isenabled()))

    def counted(name, function, *args, **kwargs):
        _from_an_empty_young_generation()
        current[0] = name
        result = function(*args, **kwargs)
        if name != "discover":
            young[name] = gc.get_count()[0]  # one allocation: the tuple
            current[0] = f"after {name}"
            allocations = [None] * (threshold - 3)  # one more
            for n in range(threshold - 3):
                allocations[n] = []
        current[0] = None
        return result

    handed_off = ("read_document", "find_instances", "parse_instance", "fact_rows",
                  "read_instances")
    gc.callbacks.append(count)
    try:
        root = counted("read_document", read_document, data)
        [outcome] = counted("find_instances", find_instances, root)
        assert counted("parse_instance", parse_instance, root) == outcome
        rows = counted("fact_rows", fact_rows, outcome.instance)
        [again] = counted("read_instances", read_instances, data)
        # A cold discovery: the resolver is fresh, so the schema is loaded.
        dts = counted("discover", discover, Instance(schema_refs=(TaxonomyRef("big.xsd"),)),
                      Resolver(tmp_path), base_uri=str(tmp_path / "instance.xml"))
    finally:
        gc.callbacks.remove(count)
    assert young == dict.fromkeys(handed_off, 0)
    assert [c for c in collections if c[0].startswith("after ")] == []
    assert collections == [(name, 1, True) for name in handed_off]
    assert len(rows) == 5000
    assert again == outcome
    assert len(dts.concepts) == 3000


def test_the_collector_state_is_restored_after_each_paused_call():
    # Enabled or disabled, and with or without a caller's gc.freeze(), which
    # a hand-off would undo: after a normal return and after an exception.
    bad_instance = read_document(fixture_bytes("bad-period.xml"))  # strict: ParseError
    calls = {
        read_document: ((fixture_bytes("mini-instance.xml"),), (b"<a",)),
        parse_instance: ((read_document(fixture_bytes("mini-instance.xml")),),
                         (read_document(b"<a/>"),)),
        find_instances: ((read_document(fixture_bytes("mini-embedded.xml")),),
                         (bad_instance,)),
        read_instances: ((fixture_bytes("mini-embedded.xml"),),
                         (fixture_bytes("bad-period.xml"),)),
        discover: ((Instance(), Resolver(FIXTURES)), (None, Resolver(FIXTURES))),
        fact_rows: ((Instance(),), (None,)),
        main: ((["rules"],), (["no-such-command"],)),
    }
    for enabled, frozen in itertools.product((True, False), repeat=2):
        _from_an_empty_young_generation()
        kept = []  # frozen with the rest when the caller freezes
        if frozen:
            gc.freeze()
        (gc.enable if enabled else gc.disable)()
        try:
            for function, (good, bad) in calls.items():
                function(*good)
                assert (gc.isenabled(), _is_frozen(kept)) == (enabled, frozen), function.__name__
                with pytest.raises((XbrlError, AttributeError, SystemExit)):
                    function(*bad)
                assert (gc.isenabled(), _is_frozen(kept)) == (enabled, frozen), function.__name__
        finally:
            gc.enable()
            gc.unfreeze()


def _is_frozen(obj) -> bool:
    # gc.get_objects() lists every generation but the permanent one. The
    # freeze count itself is no witness: a frozen object still dies when
    # its last reference goes, and the count drops with it.
    return not any(o is obj for o in gc.get_objects())


def test_a_frozen_heap_is_not_counted_on_every_call(monkeypatch):
    # Counting the frozen objects walks them all, so a call that reads n
    # leaves the next n // 1024 calls to pause without reading.
    data = fixture_bytes("mini-instance.xml")
    count, reads = gc.get_freeze_count, []

    def read():
        reads.append(count())
        return reads[-1]

    monkeypatch.setattr(gc, "get_freeze_count", read)
    _from_an_empty_young_generation()
    kept = [[] for _ in range(100 * 1024)]
    gc.freeze()
    try:
        for _ in range(100):
            read_instances(data)
    finally:
        gc.unfreeze()
    assert len(reads) == 1 and reads[0] > len(kept)


def test_cycles_made_between_handed_off_calls_are_collected():
    # The entry collection of each call collects the caller's young cycles;
    # handing them to the oldest generation instead would keep the 10,000
    # made in the measured calls, about 10 MB, until a full collection that
    # nothing triggers.
    data = fixture_bytes("mini-instance.xml")

    def garbage():
        for _ in range(20):
            cycle = [bytes(1000)]
            cycle.append(cycle)

    def calls(number):
        for _ in range(number):
            garbage()
            read_instances(data)

    _from_an_empty_young_generation()
    tracemalloc.start()
    try:
        calls(50)
        before = tracemalloc.get_traced_memory()[0]
        calls(500)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1_000_000


def test_no_call_hands_off_while_another_thread_runs(monkeypatch):
    # gc.freeze() would hand the other thread's young objects, its cycles
    # included, to the oldest generation along with the call's. Those
    # already there stay after a collection of the young generations.
    data = _bulk_instance(500)
    freeze, freezes = gc.freeze, []
    monkeypatch.setattr(gc, "freeze", lambda: (freezes.append(1), freeze()))
    stop = threading.Event()

    def garbage():
        cycle = [bytes(50_000)]
        cycle.append(cycle)

    def make_cycles():
        while not stop.wait(0.0001):
            garbage()

    _from_an_empty_young_generation()
    thread = threading.Thread(target=make_cycles)
    tracemalloc.start()
    thread.start()
    try:
        for _ in range(5):
            read_instances(data)
        gc.collect(1)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(60):
            read_instances(data)
        stop.set()
        thread.join(timeout=10)
        gc.collect(1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        stop.set()
        thread.join(timeout=10)
        tracemalloc.stop()
    assert not thread.is_alive()
    assert freezes == []
    assert grown < 2_000_000
    _from_an_empty_young_generation()
    read_instances(data)
    assert freezes == [1]


def test_a_call_that_raises_hands_nothing_off():
    # The young generation keeps what the call made, here the error, and
    # a raised threshold keeps any collection from promoting it before
    # it is looked for.
    threshold = gc.get_threshold()
    _from_an_empty_young_generation()
    gc.set_threshold(10**6)
    try:
        with pytest.raises(MalformedXml) as raised:
            read_instances(b"<a")
        assert any(o is raised.value for o in gc.get_objects(generation=0))
    finally:
        gc.set_threshold(*threshold)

from __future__ import annotations

import pytest

import oracle_xml
from conftest import fixture_bytes
from xbrlcore import (
    MalformedXml,
    QName,
    SourceLocation,
    UnboundPrefix,
    UnsupportedEncoding,
    XmlElement,
    read_document,
)
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


def test_fixture_root_matches_oracle():
    data = fixture_bytes("mini-instance.xml")
    oracle_root = oracle_xml.parse(data)
    root = read_document(data)
    assert root.name == QName(*oracle_root.name)
    assert root.name == QName(XBRLI, "xbrl")


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


def test_unbound_prefix_on_element():
    with pytest.raises(UnboundPrefix):
        read_document(b"<p:a/>")


def test_unbound_prefix_on_attribute():
    with pytest.raises(UnboundPrefix):
        read_document(b'<a p:x="1"/>')


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        read_document(b"<a><b></a>")
    with pytest.raises(MalformedXml):
        read_document(b"this is not XML")


def test_dtd_rejected_with_subcode():
    data = b'<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>'
    with pytest.raises(MalformedXml) as err:
        read_document(data)
    assert err.value.subcode == "doctype"


def test_unsupported_encoding():
    with pytest.raises(UnsupportedEncoding):
        read_document(b'<?xml version="1.0" encoding="EBCDIC-FUNKY"?><a/>')


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
    assert (str(err.value), err.value.line, err.value.column) == (
        "duplicate attribute {urn:x}k", 2, 0)


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
    assert (str(err.value), err.value.line, err.value.column) == (
        "prefix 'p' is not declared", 2, 0)


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


def test_qname_and_source_location_hash_and_compare_as_tuples():
    qn = QName("urn:x", "a")
    assert qn == QName("urn:x", "a") and hash(qn) == hash(QName("urn:x", "a"))
    assert qn != QName("urn:y", "a") and qn != QName("urn:x", "b")
    assert qn == ("urn:x", "a") and hash(qn) == hash(("urn:x", "a"))
    assert {qn: 1}[QName("urn:x", "a")] == 1
    assert (qn.namespace_uri, qn.local_name) == ("urn:x", "a")
    assert str(qn) == qn.clark() == "{urn:x}a" and QName("", "a").clark() == "a"
    assert QName.from_clark("{urn:x}a") == qn and QName.from_clark("a") == QName("", "a")
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


def test_resolve_qname_text_uses_in_scope_prefixes():
    root = read_document(b'<a xmlns:m="urn:m"><u>m:USD</u></a>')
    u = root.child_elements()[0]
    assert u.resolve_qname_text(u.text_content()) == QName("urn:m", "USD")
    with pytest.raises(UnboundPrefix):
        u.resolve_qname_text("nope:USD")

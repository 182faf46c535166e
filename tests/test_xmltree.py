from __future__ import annotations

import pytest

import oracle_xml
from conftest import fixture_bytes
from xbrlcore import (
    MalformedXml,
    QName,
    UnboundPrefix,
    UnsupportedEncoding,
    XmlElement,
    find_elements,
    read_document,
)
from xbrlcore.xmltree import serialize_element

XBRLI = "http://www.xbrl.org/2003/instance"


def test_default_namespace_resolution():
    tree = read_document(b'<a xmlns="urn:x"/>')
    assert tree.root.name == QName("urn:x", "a")


def test_document_order_of_children():
    tree = read_document(b"<a><b/>text</a>")
    children = tree.root.children
    assert len(children) == 2
    assert isinstance(children[0], XmlElement)
    assert children[0].name == QName("", "b")
    assert children[1] == "text"


def test_fixture_root_matches_oracle():
    data = fixture_bytes("mini-instance.xml")
    oracle_root = oracle_xml.parse(data)
    tree = read_document(data)
    assert tree.root.name == QName(*oracle_root.name)
    assert tree.root.name == QName(XBRLI, "xbrl")


def test_prefix_never_part_of_identity():
    a = read_document(b'<p:a xmlns:p="urn:x"><p:b/></p:a>')
    b = read_document(b'<q:a xmlns:q="urn:x"><q:b/></q:a>')
    assert a.root == b.root
    assert a == b


def test_unprefixed_attribute_has_no_namespace():
    tree = read_document(b'<a xmlns="urn:x" id="1"/>')
    assert tree.root.attributes == {QName("", "id"): "1"}


def test_prefixed_attribute_resolves():
    tree = read_document(b'<a xmlns:p="urn:y" p:ref="2"/>')
    assert tree.root.attributes == {QName("urn:y", "ref"): "2"}


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


def test_predefined_entities_and_char_refs():
    tree = read_document(b"<a>&amp;&lt;&gt;&quot;&apos;&#65;</a>")
    assert tree.root.text_content() == "&<>\"'A"


def test_read_is_pure_function_of_bytes():
    data = fixture_bytes("mini-instance.xml")
    assert read_document(data) == read_document(data)


def test_source_locations_nondecreasing_in_document_order():
    tree = read_document(fixture_bytes("mini-instance.xml"))
    locations = [e.source_location for e in tree.root.iter_elements()]
    assert locations == sorted(locations)


def test_iter_elements_walks_a_deep_tree():
    depth = 5000
    tree = read_document(b"<w>" * depth + b"<x/>" + b"</w>" * depth)
    names = [e.name.local_name for e in tree.root.iter_elements()]
    assert names == ["w"] * depth + ["x"]


def test_find_elements_no_match_is_empty():
    tree = read_document(b'<a xmlns="urn:x"><b/></a>')
    assert find_elements(tree, QName("urn:x", "zzz")) == []


def test_find_elements_two_sibling_xbrl_roots():
    data = (
        b'<wrap xmlns:x="http://www.xbrl.org/2003/instance">'
        b"<x:xbrl/><x:xbrl/></wrap>"
    )
    found = find_elements(read_document(data), QName(XBRLI, "xbrl"))
    assert len(found) == 2
    assert found[0].source_location < found[1].source_location


def test_find_elements_embedded_fixture_matches_oracle():
    data = fixture_bytes("mini-embedded.xml")
    oracle_count = oracle_xml.count_named(oracle_xml.parse(data), XBRLI, "xbrl")
    found = find_elements(read_document(data), QName(XBRLI, "xbrl"))
    assert len(found) == oracle_count == 3
    locations = [e.source_location for e in found]
    assert locations == sorted(locations)
    assert len(set(locations)) == 3
    assert all(e.name == QName(XBRLI, "xbrl") for e in found)


def test_whitespace_only_text_preserved_in_tree():
    tree = read_document(b"<a>\n  <b/>\n</a>")
    texts = [ch for ch in tree.root.children if isinstance(ch, str)]
    assert texts == ["\n  ", "\n"]


def test_serialize_reread_is_idempotent():
    tree = read_document(fixture_bytes("mini-instance.xml"))
    once = serialize_element(tree.root)
    again = serialize_element(read_document(once).root)
    assert read_document(once) == read_document(again)
    assert once == again


def test_serialize_escapes_attribute_whitespace():
    el = XmlElement(name=QName("", "a"),
                    attributes={QName("", "k"): "line1\nline2\ttab"},
                    children=("text & <markup>",))
    back = read_document(serialize_element(el))
    assert back.root.attr("k") == "line1\nline2\ttab"
    assert back.root.text_content() == "text & <markup>"


def test_resolve_qname_text_uses_in_scope_prefixes():
    tree = read_document(b'<a xmlns:m="urn:m"><u>m:USD</u></a>')
    u = tree.root.child_elements()[0]
    assert u.resolve_qname_text(u.text_content()) == QName("urn:m", "USD")
    with pytest.raises(UnboundPrefix):
        u.resolve_qname_text("nope:USD")

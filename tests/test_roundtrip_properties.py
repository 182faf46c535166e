"""Property test of the serialize round trip over awkward text.

An instance built in code, with ids, refs, schemes, labels and values drawn
from any XML 1.0 text (markup characters, quotes, tab, CR, LF, U+00A0 and
U+3000 included), goes through ``serialize``, ``read_document`` and
``parse_instance`` and comes back equal.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from xbrlcore import (
    Context,
    Entity,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Item,
    QName,
    TaxonomyRef,
    Tuple,
    Unit,
    XmlElement,
    parse_instance,
    read_document,
    serialize,
)
from xbrlcore.constants import ISO4217_NS, LINK_NS, XLINK_NS
from xbrlcore.xmltree import XML_WHITESPACE

GEN_NS = "urn:example:generated"

# Characters of the XML 1.0 Char production, weighted towards the ones a
# writer has to escape or keep apart from whitespace handling.
CHARS = st.one_of(
    st.sampled_from("&<>\"'\r\n\t\u00a0\u3000"),
    st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
)
TEXT = st.text(CHARS, max_size=12)
NONEMPTY = st.text(CHARS, min_size=1, max_size=12)
# Values that parsing gives back unchanged: it trims XML whitespace.
TRIMMED = TEXT.filter(lambda s: s == s.strip(XML_WHITESPACE))
IDENTIFIER = TRIMMED.filter(bool)
MEASURES = st.sampled_from([QName(ISO4217_NS, "USD"), QName("urn:example:units", "w"),
                            QName("", "batches")])


@st.composite
def instances(draw) -> Instance:
    ctx_ids = draw(st.lists(NONEMPTY, min_size=1, max_size=3, unique=True))
    unit_ids = draw(st.lists(NONEMPTY, max_size=2, unique=True))
    contexts = {
        cid: Context(cid, Entity(draw(NONEMPTY), draw(IDENTIFIER)), Forever())
        for cid in ctx_ids
    }
    units = {uid: Unit(uid, (draw(MEASURES),)) for uid in unit_ids}
    items = tuple(
        Item(QName(GEN_NS, "Value"), draw(st.sampled_from(ctx_ids)), draw(TRIMMED),
             unit_ref=draw(st.none() | st.sampled_from(unit_ids or [None])),
             id=draw(st.none() | TEXT))
        for _ in range(draw(st.integers(0, 4)))
    )
    facts = items[:1] + (Tuple(QName(GEN_NS, "Group"), items[1:], id=draw(st.none() | TEXT)),)
    loc_label, note_label = draw(NONEMPTY), draw(NONEMPTY)
    note = XmlElement(QName(LINK_NS, "footnote"), {QName(XLINK_NS, "label"): note_label},
                      (draw(NONEMPTY),))
    link = FootnoteLink(
        locators=((loc_label, draw(NONEMPTY)),),
        footnotes=(note,),
        arcs=(FootnoteArc(loc_label, note_label, draw(TEXT)),),
        role=draw(TEXT),
    )
    return Instance(
        schema_refs=(TaxonomyRef(draw(NONEMPTY)),),
        linkbase_refs=(TaxonomyRef(draw(NONEMPTY), arcrole=draw(TEXT), role=draw(TEXT)),),
        contexts=contexts,
        units=units,
        facts=facts,
        footnote_links=(link,),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(instances())
def test_serialize_round_trips_awkward_text(instance):
    assert parse_instance(read_document(serialize(instance))).instance == instance

"""Converts XML into Instances and Instances back into XML.

Parsing is deterministic and order-preserving. Strict mode either fully
succeeds or fails with the first blocking error and its source position;
Lenient mode recovers from a documented set of defects (missing
contextRef, invalid periods, conflicting numeric-fidelity attributes,
tuple over-nesting), emitting one finding per recovery so no data is lost
silently. An xbrl element nested inside an instance is not parsed in
either mode; both report it as an EMB-001 finding and go on.

There are two ways in, with one result. ``read_instances`` goes from bytes
to instances in one pass of the XML reader, on ``read_document``'s tree
builder, from which every name and attribute key arrives as a QName; it
adds only the instance rule. A fact without child elements is built as
its end tag closes, from its name, attributes and text, and every other
child of an xbrl element (contexts, units, references, footnote links,
tuples) as the element ``read_document`` would build.
``parse_instance`` and ``find_instances`` start from a tree. Both hand
each child of an xbrl element, in document order, to one
``_InstanceBuilder``, whose ``fact`` alone decides what an element is:
skipped, a nested instance (EMB-001), a tuple, an empty tuple or an item,
and which of CTX-002, ITM-001 and T-DEPTH apply.

XBRL's own element-only elements (xbrl, context, entity, period, unit,
divide and its legs, footnoteLink) are checked in both modes against one
table, ``_CONTENT_MODELS``, whose entry names each one's error class. Text
other than whitespace is an error at the element; a child element it may
not hold, or a second of one it holds once, is an error at the child. Dates,
identifiers, measures and other simple-typed values are text only: an
element inside one is an error at that value's element: InvalidIso8601
(PER-001 in lenient mode), InvalidContextShape, or EmptyUnit
(MalformedDivide in a divide).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from enum import Enum

from . import constants as c
from .errors import XbrlError
from .findings import Finding
from .iso8601 import TimePoint, parse_point, timeline_position
from .model import (
    Context,
    Entity,
    Fact,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    Duration,
    TaxonomyRef,
    Tuple,
    Unit,
)
from .xmltree import (
    XML_WHITESPACE, QName, SourceLocation, XmlElement, XmlNode, XmlWriter, _read, _record,
    _TreeBuilder, _handed_off,
)

# Each per-fact and per-context record's compiled constructor, called with its
# class first: a class call goes through type.__call__ and slot_tp_new, which
# looks ``__new__`` up and runs it in a new interpreter loop (see
# ``xmltree._record``).
_new_item, _new_tuple, _new_unit = Item.__new__, Tuple.__new__, Unit.__new__
_new_context, _new_entity = Context.__new__, Entity.__new__
_new_instant, _new_duration, _new_forever = Instant.__new__, Duration.__new__, Forever.__new__

_DECIMALS_RE = re.compile(r"INF|[+-]?[0-9]+")
_PRECISION_RE = re.compile(r"INF|[1-9][0-9]*")


class ParseError(XbrlError):
    """Blocking problem while building an Instance from a tree."""


class NotAnXbrlRoot(ParseError):
    pass


class DuplicateContextId(ParseError):
    pass


class DuplicateUnitId(ParseError):
    pass


class MissingContextRef(ParseError):
    pass


class TupleDepthExceeded(ParseError):
    pass


class InvalidPeriodShape(ParseError):
    pass


class InvalidIso8601(ParseError):
    pass


class StartAfterEnd(ParseError):
    pass


class EmptyUnit(ParseError):
    pass


class MalformedDivide(ParseError):
    pass


class InvalidContextShape(ParseError):
    pass


class InvalidItemAttributes(ParseError):
    pass


class MalformedFootnoteLink(ParseError):
    pass


class ParseMode(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@_record
class ParseOptions:
    """How to parse: strict (the default) or lenient."""

    mode: ParseMode = ParseMode.STRICT


@_record
class ParseOutcome:
    """A parsed instance and the findings of what lenient parsing recovered from."""

    instance: Instance
    recovered_findings: tuple[Finding, ...] = ()


def _simple_text(element: XmlElement, error: type[ParseError]) -> str:
    """The text of an element of simple type; raises ``error`` at the
    element if it holds a child element."""
    children = element.children
    if len(children) == 1 and children[0].__class__ is str:
        return children[0]
    if not all(isinstance(child, str) for child in children):
        raise error(f"{element.name.local_name} holds element content",
                    element.source_location)
    return "".join(children)


# XBRL 2.1's content models for its own elements that hold elements only
# (the instance and linkbase schemas): each one's child elements at their
# slots in what ``_content`` returns, and the one error class a breach raises.
# A slot written as a list holds its children in document order: ones that
# may repeat, and ones whose number and order the element's own check reads.
# Segments and scenarios are kept whole. Allowed and not kept: roleRef,
# arcroleRef and a footnoteLink's documentation. xl:title is not allowed:
# without the DTS it cannot be told from a foreign element.
def _model(error: type[ParseError], *slots: QName | list[QName]) -> tuple:
    """Each child's slot, the slots as ``_content`` starts them (``()`` for
    a list slot, else None), and the error class."""
    children = {name: i for i, slot in enumerate(slots)
                for name in (slot if isinstance(slot, list) else [slot])}
    return children, [() if isinstance(slot, list) else None for slot in slots], error


_CONTENT_MODELS = {
    c.QN_XBRL: _model(ParseError, [c.QN_SCHEMA_REF, c.QN_LINKBASE_REF, c.QN_ROLE_REF,
                                   c.QN_ARCROLE_REF, c.QN_CONTEXT, c.QN_UNIT,
                                   c.QN_FOOTNOTE_LINK, c.QN_XBRL]),
    c.QN_CONTEXT: _model(InvalidContextShape, c.QN_ENTITY, c.QN_PERIOD, c.QN_SCENARIO),
    c.QN_ENTITY: _model(InvalidContextShape, c.QN_IDENTIFIER, c.QN_SEGMENT),
    c.QN_PERIOD: _model(InvalidPeriodShape,
                        [c.QN_INSTANT, c.QN_FOREVER, c.QN_START_DATE, c.QN_END_DATE]),
    c.QN_UNIT: _model(EmptyUnit, [c.QN_MEASURE], c.QN_DIVIDE),
    c.QN_DIVIDE: _model(MalformedDivide, [c.QN_UNIT_NUMERATOR, c.QN_UNIT_DENOMINATOR]),
    c.QN_UNIT_NUMERATOR: _model(MalformedDivide, [c.QN_MEASURE]),
    c.QN_UNIT_DENOMINATOR: _model(MalformedDivide, [c.QN_MEASURE]),
    c.QN_FOOTNOTE_LINK: _model(MalformedFootnoteLink,
                               [c.QN_LOC, c.QN_FOOTNOTE, c.QN_FOOTNOTE_ARC], [c.QN_DOCUMENTATION]),
}


def _breach(owner: QName, held: str, location: SourceLocation) -> ParseError:
    """The error of ``owner``'s content model, for ``owner`` holding ``held``."""
    return _CONTENT_MODELS[owner][2](f"{owner.local_name} holds {held}", location)


def _content(element: XmlElement) -> list:
    """``element``'s child elements by slot of its ``_CONTENT_MODELS`` entry;
    raises the entry's error at ``element`` for text other than whitespace,
    and at a child the entry does not name or that repeats a one-child slot."""
    children, slots, _ = _CONTENT_MODELS[element.name]
    parts = slots.copy()
    for child in element.children:
        if child.__class__ is str:
            if child.strip(XML_WHITESPACE):
                raise _breach(element.name, "text, which it may not", element.source_location)
            continue
        i = children.get(child.name)
        if i is None:
            raise _breach(element.name, f"{child.name.clark()}, which it may not",
                          child.source_location)
        part = parts[i]
        if part is None:
            parts[i] = child
        elif part.__class__ is list:
            part.append(child)
        elif part.__class__ is tuple:  # a list slot's first child
            parts[i] = [child]
        else:
            raise _breach(element.name, f"a second {child.name.local_name}",
                          child.source_location)
    return parts


def _parse_period(element: XmlElement) -> "Instant | Duration | Forever":
    """Build a Period from a period element.

    Accepts instant, forever, or startDate followed by endDate; date values
    must be ISO 8601. Raises InvalidPeriodShape, InvalidIso8601 (at the
    failing child), or StartAfterEnd.
    """
    loc = element.source_location
    [choice] = _content(element)
    if len(choice) == 1:
        if choice[0].name == c.QN_INSTANT:
            return _new_instant(Instant, _parse_point(choice[0]))
        if choice[0].name == c.QN_FOREVER:
            return _new_forever(Forever)
    elif (len(choice) == 2 and choice[0].name == c.QN_START_DATE
          and choice[1].name == c.QN_END_DATE):
        start, end = _parse_point(choice[0]), _parse_point(choice[1])
        if timeline_position(start) > timeline_position(end, at_end=True):
            raise StartAfterEnd(
                f"period start {start.raw!r} is after end {end.raw!r}", loc
            )
        return _new_duration(Duration, start, end)
    raise InvalidPeriodShape("period must contain instant, forever, or startDate+endDate", loc)


def _parse_point(element: XmlElement) -> TimePoint:
    try:
        return parse_point(_simple_text(element, InvalidIso8601).strip(XML_WHITESPACE))
    except ValueError as exc:
        raise InvalidIso8601(str(exc), element.source_location) from None


def _parse_unit(element: XmlElement) -> Unit:
    """Build a Unit from a unit element (measure children or one divide)."""
    loc = element.source_location
    unit_id = element.attributes.get(c.QN_ATTR_ID) or ""
    measures, divide = _content(element)
    if divide is None:
        if not measures:
            raise EmptyUnit("unit has no measure or divide content", loc)
        return _new_unit(Unit, unit_id, _measure_qnames(measures, EmptyUnit), (), loc)
    if measures:
        raise MalformedDivide("unit mixes divide with other content", loc)
    [legs] = _content(divide)
    if [leg.name for leg in legs] != [c.QN_UNIT_NUMERATOR, c.QN_UNIT_DENOMINATOR]:
        raise MalformedDivide("divide must hold one unitNumerator followed by one "
                              "unitDenominator", divide.source_location)
    numerator, denominator = (_measure_qnames(_content(leg)[0], MalformedDivide) for leg in legs)
    if not numerator or not denominator:
        raise MalformedDivide(
            "divide requires measures in both numerator and denominator",
            divide.source_location,
        )
    return _new_unit(Unit, unit_id, numerator, denominator, loc)


def _measure_qnames(measures: Sequence[XmlElement], error: type[ParseError]) -> tuple[QName, ...]:
    """The QNames of ``measures``; raises ``error`` at a measure holding an element."""
    return tuple(m.resolve_qname_text(_simple_text(m, error)) for m in measures)


def _parse_entity(element: XmlElement) -> Entity:
    identifier, segment = _content(element)
    if identifier is None:
        raise InvalidContextShape("entity has no identifier", element.source_location)
    scheme = identifier.attributes.get(c.QN_ATTR_SCHEME) or ""
    ident_text = _simple_text(identifier, InvalidContextShape).strip(XML_WHITESPACE)
    if not scheme or not ident_text:
        raise InvalidContextShape(
            "entity identifier requires a scheme and a non-empty value",
            identifier.source_location,
        )
    return _new_entity(Entity, scheme, ident_text, segment)


def _parse_context(element: XmlElement) -> Context:
    loc = element.source_location
    context_id = element.attributes.get(c.QN_ATTR_ID)
    if not context_id:
        raise InvalidContextShape("context has no id", loc)
    entity, period, scenario = _content(element)
    if entity is None:
        raise InvalidContextShape(f"context {context_id!r} has no entity", loc)
    if period is None:
        raise InvalidPeriodShape(f"context {context_id!r} has no period", loc)
    return _new_context(Context, context_id, _parse_entity(entity), _parse_period(period),
                        scenario, loc)


def _parse_footnote_link(element: XmlElement) -> FootnoteLink:
    locators: list[tuple[str, str]] = []
    footnotes: list[XmlElement] = []
    arcs: list[FootnoteArc] = []
    parts, _documentation = _content(element)
    for child in parts:
        label = child.attributes.get(c.QN_XLINK_LABEL)
        if child.name == c.QN_LOC:
            href = child.attributes.get(c.QN_XLINK_HREF)
            if not label or not href:
                raise MalformedFootnoteLink(
                    "locator requires xlink:label and xlink:href",
                    child.source_location,
                )
            locators.append((label, href))
        elif child.name == c.QN_FOOTNOTE:
            if not label:
                raise MalformedFootnoteLink(
                    "footnote requires xlink:label", child.source_location
                )
            footnotes.append(child)
        else:  # footnoteArc
            from_label = child.attributes.get(c.QN_XLINK_FROM)
            to_label = child.attributes.get(c.QN_XLINK_TO)
            if not from_label or not to_label:
                raise MalformedFootnoteLink(
                    "footnote arc requires xlink:from and xlink:to",
                    child.source_location,
                )
            arcs.append(FootnoteArc(
                from_label=from_label,
                to_label=to_label,
                arc_role=child.attributes.get(c.QN_XLINK_ARCROLE) or "",
            ))
    return FootnoteLink(
        locators=tuple(locators),
        footnotes=tuple(footnotes),
        arcs=tuple(arcs),
        role=element.attributes.get(c.QN_XLINK_ROLE) or "",
        source_location=element.source_location,
    )


def _taxonomy_ref(element: XmlElement) -> TaxonomyRef:
    attrs = element.attributes
    href = attrs.get(c.QN_XLINK_HREF)
    if not href:
        raise ParseError(
            f"{element.name.local_name} has no xlink:href", element.source_location
        )
    return TaxonomyRef(
        href=href,
        arcrole=attrs.get(c.QN_XLINK_ARCROLE) or "",
        role=attrs.get(c.QN_XLINK_ROLE) or "",
    )


_RESERVED_NAMESPACES = (c.XBRLI_NS, c.LINK_NS)


class _Lexicon(dict):
    """Raw decimals or precision text -> its value if valid, else None.

    Both are XML Schema integer-based types, whose whitespace facet is
    collapse: the value is the text without surrounding whitespace, and it
    is valid if it matches ``pattern``. Each distinct text is matched once.
    """

    def __init__(self, pattern: re.Pattern):
        super().__init__()
        self.pattern = pattern

    def __missing__(self, raw: str) -> str | None:
        value = raw.strip(XML_WHITESPACE)
        value = self[raw] = value if self.pattern.fullmatch(value) else None
        return value


_FACT_KEYS = (c.QN_ATTR_CONTEXT_REF, c.QN_ATTR_UNIT_REF, c.QN_ATTR_DECIMALS,
              c.QN_ATTR_PRECISION, c.QN_ATTR_ID)


class _InstanceBuilder:
    """Builds one Instance from the children of its xbrl element, added in
    document order."""

    def __init__(self, options: ParseOptions, location: SourceLocation):
        self.lenient = options.mode is ParseMode.LENIENT
        self.location = location
        self.findings: list[Finding] = []
        self.decimals = _Lexicon(_DECIMALS_RE)
        self.precision = _Lexicon(_PRECISION_RE)
        self.schema_refs: list[TaxonomyRef] = []
        self.linkbase_refs: list[TaxonomyRef] = []
        self.contexts: dict[str, Context] = {}
        self.units: dict[str, Unit] = {}
        self.facts: list[Fact] = []
        self.links: list[FootnoteLink] = []

    def recover(self, code: str, message: str, location: SourceLocation,
                subject: str | None = None) -> None:
        self.findings.append(Finding.of(code, message, location, subject))

    def reject(self, name: QName, location: SourceLocation, error: type[ParseError],
               message: str, code: str, recovery: str) -> None:
        """Raise ``error(message)`` in strict mode; in lenient mode record ``code``
        with ``recovery`` instead. Both carry the element's location."""
        if not self.lenient:
            raise error(message, location)
        self.recover(code, recovery, location, subject=name.clark())

    def append(self, child: XmlNode) -> None:
        """Add the next child of the xbrl element, text or an element."""
        if child.__class__ is str:
            if child.strip(XML_WHITESPACE):
                raise _breach(c.QN_XBRL, "text, which it may not", self.location)
            return
        name = child.name
        if name.namespace_uri not in _RESERVED_NAMESPACES:
            fact = self.fact(name, child.attributes, child.children, child.source_location, 1)
            if fact is not None:
                self.facts.append(fact)
        elif name == c.QN_CONTEXT:
            self._add_context(child)
        elif name == c.QN_UNIT:
            self._add_unit(child)
        elif name == c.QN_SCHEMA_REF:
            self.schema_refs.append(_taxonomy_ref(child))
        elif name == c.QN_LINKBASE_REF:
            self.linkbase_refs.append(_taxonomy_ref(child))
        elif name == c.QN_FOOTNOTE_LINK:
            self.links.append(_parse_footnote_link(child))
        elif name not in _CONTENT_MODELS[c.QN_XBRL][0]:
            raise _breach(c.QN_XBRL, f"{name.clark()}, which it may not", child.source_location)
        else:  # never a fact: a nested instance is reported, a roleRef or arcroleRef not kept
            self.fact(name, child.attributes, child.children, child.source_location, 1)

    def outcome(self) -> ParseOutcome:
        instance = Instance(
            schema_refs=tuple(self.schema_refs),
            linkbase_refs=tuple(self.linkbase_refs),
            contexts=self.contexts,
            units=self.units,
            facts=tuple(self.facts),
            footnote_links=tuple(self.links),
            source_location=self.location,
        )
        return ParseOutcome(instance=instance, recovered_findings=tuple(self.findings))

    def _add_context(self, element: XmlElement) -> None:
        try:
            context = _parse_context(element)
        except (InvalidIso8601, StartAfterEnd) as exc:
            if not self.lenient:
                raise
            code = "PER-001" if isinstance(exc, InvalidIso8601) else "PER-002"
            self.recover(code, f"context dropped: {exc}", exc.location,
                         subject=element.attributes.get(c.QN_ATTR_ID))
            return
        if context.id in self.contexts:
            raise DuplicateContextId(
                f"duplicate context id {context.id!r}", element.source_location
            )
        self.contexts[context.id] = context

    def _add_unit(self, element: XmlElement) -> None:
        unit = _parse_unit(element)
        if not unit.id:
            raise ParseError("unit has no id", element.source_location)
        if unit.id in self.units:
            raise DuplicateUnitId(
                f"duplicate unit id {unit.id!r}", element.source_location
            )
        self.units[unit.id] = unit

    def fact(self, name: QName, attrs: Mapping[QName, str], children: Sequence[XmlNode],
             location: SourceLocation, depth: int) -> Fact | None:
        """The fact an element stands for, or None when it stands for none.

        ``attrs`` are its attributes and ``children`` its text and child
        elements; ``depth`` is 1 for a child of the xbrl element.
        """
        if name.namespace_uri in _RESERVED_NAMESPACES:
            # Unknown structural elements in the reserved namespaces are
            # not facts; a nested instance is reported, the rest skipped.
            if name == c.QN_XBRL:
                self.recover(
                    "EMB-001",
                    "embedded xbrl element inside another instance was not parsed",
                    location,
                )
            return None
        if not children:
            kids, text = (), ""
        elif len(children) == 1 and children[0].__class__ is str:
            kids, text = (), children[0]
        else:
            kids = [ch for ch in children if ch.__class__ is not str]
            text = "".join([ch for ch in children if ch.__class__ is str])
        context_key, unit_key, decimals_key, precision_key, id_key = _FACT_KEYS
        get = attrs.get
        context_ref, unit_ref, decimals = get(context_key), get(unit_key), get(decimals_key)
        precision, fact_id = get(precision_key), get(id_key)
        # A bare element with nothing item-like about it (no child, no
        # contextRef, no numeric attributes, no value) reads back as an
        # empty tuple, keeping empty tuples round-trippable.
        if (any(ch.name.namespace_uri not in _RESERVED_NAMESPACES for ch in kids) if kids
                else (context_ref is None and unit_ref is None and decimals is None
                      and precision is None and not text.strip(XML_WHITESPACE))):
            if depth > c.DEFAULT_MAX_TUPLE_DEPTH:
                self.reject(name, location, TupleDepthExceeded,
                            f"tuple nesting exceeds {c.DEFAULT_MAX_TUPLE_DEPTH}", "T-DEPTH",
                            f"tuple subtree beyond depth {c.DEFAULT_MAX_TUPLE_DEPTH} truncated")
                return None
            facts: list[Fact] = []
            for ch in kids:
                fact = self.fact(ch.name, ch.attributes, ch.children, ch.source_location,
                                 depth + 1)
                if fact is not None:
                    facts.append(fact)
            return _new_tuple(Tuple, name, tuple(facts), fact_id, context_ref, location)
        if context_ref is None:
            concept = name.clark()
            self.reject(name, location, MissingContextRef, f"item {concept} has no contextRef",
                        "CTX-002", f"item {concept} dropped: no contextRef")
            return None
        if decimals is not None:
            raw, decimals = decimals, self.decimals[decimals]
            if decimals is None:
                self._reject_invalid(name, location, "decimals", raw)
        if precision is not None:
            raw, precision = precision, self.precision[precision]
            if precision is None:
                self._reject_invalid(name, location, "precision", raw)
        if decimals is not None and precision is not None:
            self.reject(name, location, InvalidItemAttributes,
                        "item carries both decimals and precision",
                        "ITM-001", "precision ignored: decimals is also present")
            precision = None
        return _new_item(Item, name, context_ref, text.strip(XML_WHITESPACE), unit_ref, decimals,
                         precision, fact_id, location)

    def _reject_invalid(self, name: QName, location: SourceLocation, attribute: str,
                        raw: str) -> None:
        message = f"invalid {attribute} value {raw!r}"
        self.reject(name, location, InvalidItemAttributes, message, "ITM-001",
                    f"{message} ignored")


@_handed_off
def parse_instance(root: XmlElement,
                   options: ParseOptions = ParseOptions()) -> ParseOutcome:
    """Parse one instance whose root is the xbrl element.

    Any ordering of root children is accepted; schema/linkbase refs, facts,
    and footnote arcs retain document order. Child elements outside the
    instance and linkbase namespaces are classified as facts; other text
    than whitespace, and a reserved element xbrl may not hold, raise ParseError.
    """
    if root.name != c.QN_XBRL:
        raise NotAnXbrlRoot(
            f"root element is {root.name.clark()}, expected {c.QN_XBRL.clark()}",
            root.source_location,
        )
    builder = _InstanceBuilder(options, root.source_location)
    append = builder.append
    for child in root.children:
        append(child)
    return builder.outcome()


@_handed_off
def find_instances(root: XmlElement,
                   options: ParseOptions = ParseOptions()) -> list[ParseOutcome]:
    """Parse every xbrl element that is not nested inside another one.

    Returns outcomes in outer-first document order; an empty list when the
    document embeds no instance at all.
    """
    roots: list[XmlElement] = []
    stack = [root]
    while stack:
        element = stack.pop()
        if element.name == c.QN_XBRL:
            roots.append(element)
        else:
            stack.extend(reversed(element.child_elements()))
    return [parse_instance(root, options) for root in roots]


class _InstanceReader(_TreeBuilder):
    """Builds the instances of a document while expat reads it (``read_instances``).

    Every element goes on the tree builder's stack, with its QName and its
    QName-keyed attributes as expat hands them over; the reader adds only the
    instance rule. An outermost xbrl element is found as it starts, and its
    ``_InstanceBuilder`` takes the place of its children list; outside it
    nothing is built. The text directly inside it goes to that builder as
    the next tag is read, and a child when its end tag closes: a fact
    without child elements straight from its name, attributes and text,
    anything else as the ``XmlElement`` that ``read_document`` would build. The first error building an instance is
    held in ``error`` while the rest of the document is read, unbuilt, so that
    a read error anywhere wins.
    """

    def __init__(self, options: ParseOptions):
        super().__init__()
        self.options = options
        self.outcomes: list[ParseOutcome] = []
        self.instance: _InstanceBuilder | None = None  # the open xbrl element's
        self.level = 0  # len(self.stack) while the open xbrl element is on top
        self.error: XbrlError | None = None

    def _start(self, name: str | QName, attributes: dict) -> None:
        stack = self.stack
        if self.instance is None:  # text outside every instance is not kept
            self.text.clear()
        try:  # text directly inside the open xbrl element goes to its builder
            _TreeBuilder._start(self, name, attributes)
        except XbrlError as exc:
            self._hold(exc)
            return
        entry = stack[-1]
        if self.instance is None and entry[0] == c.QN_XBRL:
            # The entry's children list is the builder: the tree builder's
            # ``_end`` hands it each child element it completes.
            entry[2] = self.instance = _InstanceBuilder(self.options, entry[3])
            self.level = len(stack)

    def _end(self, name: QName) -> None:
        stack = self.stack
        depth = len(stack)
        text = self.text
        try:
            if depth == self.level + 1:  # a child of the open xbrl element
                qname, attributes, children, location, _ = stack[-1]
                if children or qname.namespace_uri in _RESERVED_NAMESPACES:
                    _TreeBuilder._end(self, name)
                else:  # a fact without child elements
                    del stack[-1]
                    children = tuple(text)
                    text.clear()
                    instance = self.instance
                    fact = instance.fact(qname, attributes, children, location, 1)
                    if fact is not None:
                        instance.facts.append(fact)
            elif depth == self.level:  # the open xbrl element
                self.instance.append("".join(text))  # the text after its last child
                text.clear()
                del stack[-1]
                self.outcomes.append(self.instance.outcome())
                self.instance, self.level = None, 0
            elif self.instance is None:  # outside every instance
                del stack[-1]
                text.clear()
            else:
                _TreeBuilder._end(self, name)
        except XbrlError as exc:
            self._hold(exc)

    def _hold(self, error: XbrlError) -> None:
        """Keep ``error`` and read the rest of the document without building."""
        self.error = error
        parser = self.parser
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.StartNamespaceDeclHandler = None


@_handed_off
def read_instances(data: bytes, options: ParseOptions = ParseOptions()) -> list[ParseOutcome]:
    """Read XML bytes and parse every xbrl element not nested in another one.

    The same outcomes, or the same error, as
    ``find_instances(read_document(data), options)``, from one pass of the
    XML reader and without building a tree of the facts: a read error
    anywhere in the document wins over an error building an instance.
    """
    reader = _InstanceReader(options)
    # A held error's traceback holds the reader's frames: neither the reader
    # nor this frame, which the traceback gains, may hold the error, also
    # when a read error wins.
    try:
        _read(reader, data)
    except BaseException:
        reader.error = None
        raise
    error, reader.error = reader.error, None
    if error is not None:
        try:
            raise error
        finally:
            error = None
    return reader.outcomes


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize(instance: Instance) -> bytes:
    """Emit an instance as namespace-well-formed XML.

    Root children are written in canonical section order (schema refs,
    linkbase refs, contexts, units, facts, footnote links); re-parsing the
    output yields a structurally equal instance. The model is written
    straight to text in one pass (see ``XmlWriter``). ValueError is raised for
    a character XML 1.0 cannot carry and for what would not read back: a unit
    with no numerator measure, a footnote that is not ``link:footnote``, a
    footnote link part without a label or href.
    """
    w = XmlWriter(c.PREFERRED_PREFIXES)
    names, attr, text, write = w.names, w.attr, w.text, w.out.append
    root = w.start(c.QN_XBRL)
    if not (instance.schema_refs or instance.linkbase_refs or instance.contexts
            or instance.units or instance.facts or instance.footnote_links):
        write("/>")
        return w.finish()
    write(">")
    for name, refs in ((c.QN_SCHEMA_REF, instance.schema_refs),
                       (c.QN_LINKBASE_REF, instance.linkbase_refs)):
        for ref in refs:
            attrs = [(c.QN_XLINK_TYPE, "simple"), (c.QN_XLINK_HREF, ref.href)]
            if ref.role:
                attrs.append((c.QN_XLINK_ROLE, ref.role))
            if ref.arcrole:
                attrs.append((c.QN_XLINK_ARCROLE, ref.arcrole))
            w.start(name, attrs)
            write("/>")
    for context in instance.contexts.values():
        entity = context.entity
        identifier = names[c.QN_IDENTIFIER]
        write(f'<{names[c.QN_CONTEXT]} id="{attr[context.id]}"><{names[c.QN_ENTITY]}>'
              f'<{identifier} scheme="{attr[entity.scheme]}">{text(entity.identifier)}'
              f"</{identifier}>")
        if entity.segment is not None:
            w.element(entity.segment)
        write(f"</{names[c.QN_ENTITY]}><{names[c.QN_PERIOD]}>")
        period = context.period
        if isinstance(period, Forever):
            write(f"<{names[c.QN_FOREVER]}/>")
        elif isinstance(period, Instant):
            instant = names[c.QN_INSTANT]
            write(f"<{instant}>{text(period.when.raw)}</{instant}>")
        else:
            start, end = names[c.QN_START_DATE], names[c.QN_END_DATE]
            write(f"<{start}>{text(period.start.raw)}</{start}>"
                  f"<{end}>{text(period.end.raw)}</{end}>")
        write(f"</{names[c.QN_PERIOD]}>")
        if context.scenario is not None:
            w.element(context.scenario)
        write(f"</{names[c.QN_CONTEXT]}>")
    for unit in instance.units.values():
        if not unit.numerator:
            raise ValueError(f"unit {unit.id!r} has no numerator measure")
        tag = names[c.QN_UNIT]
        write(f'<{tag} id="{attr[unit.id]}"')
        if unit.denominator:
            divide = names[c.QN_DIVIDE]
            numerator, denominator = names[c.QN_UNIT_NUMERATOR], names[c.QN_UNIT_DENOMINATOR]
            write(f"><{divide}><{numerator}")
            _write_measures(w, numerator, unit.numerator)
            write(f"<{denominator}")
            _write_measures(w, denominator, unit.denominator)
            write(f"</{divide}></{tag}>")
        else:
            _write_measures(w, tag, unit.numerator)
    # An item's written attributes after its id, per distinct set of values.
    tails: dict[tuple, str] = {}
    # Instance.walk's order without its generator: one iterator per open
    # tuple, innermost last, and the end tag of each.
    pending, end_tags = [iter(instance.facts)], [""]
    while pending:
        for fact in pending[-1]:
            tag = names[fact.concept]
            write(f"<{tag}" if fact.id is None else f'<{tag} id="{attr[fact.id]}"')
            if fact.__class__ is Item:
                key = (fact.context_ref, fact.unit_ref, fact.decimals, fact.precision)
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = (
                        f' contextRef="{attr[fact.context_ref]}"'
                        + ("" if fact.unit_ref is None else f' unitRef="{attr[fact.unit_ref]}"')
                        + ("" if fact.decimals is None else f' decimals="{attr[fact.decimals]}"')
                        + ("" if fact.precision is None
                           else f' precision="{attr[fact.precision]}"'))
                write(tail)
                write(f">{text(fact.value)}</{tag}>" if fact.value else "/>")
                continue
            if fact.context_ref is not None:
                write(f' contextRef="{attr[fact.context_ref]}"')
            if fact.children:
                write(">")
                pending.append(iter(fact.children))
                end_tags.append(f"</{tag}>")
                break
            write("/>")
        else:
            pending.pop()
            write(end_tags.pop())
    for link in instance.footnote_links:
        attrs = [(c.QN_XLINK_TYPE, "extended")]
        if link.role:
            attrs.append((c.QN_XLINK_ROLE, link.role))
        tag = w.start(c.QN_FOOTNOTE_LINK, attrs)
        if not (link.locators or link.footnotes or link.arcs):
            write("/>")
            continue
        write(">")
        for label, href in link.locators:
            if not label or not href:
                raise ValueError("locator requires xlink:label and xlink:href")
            w.start(c.QN_LOC, ((c.QN_XLINK_TYPE, "locator"), (c.QN_XLINK_LABEL, label),
                               (c.QN_XLINK_HREF, href)))
            write("/>")
        for note in link.footnotes:
            if note.name != c.QN_FOOTNOTE:
                raise ValueError(f"footnote must be a link:footnote element, not {note.name}")
            if not note.attributes.get(c.QN_XLINK_LABEL):
                raise ValueError("footnote requires xlink:label")
            w.element(note)
        for arc in link.arcs:
            if not arc.from_label or not arc.to_label:
                raise ValueError("footnote arc requires xlink:from and xlink:to")
            w.start(c.QN_FOOTNOTE_ARC, ((c.QN_XLINK_TYPE, "arc"),
                                        (c.QN_XLINK_ARCROLE, arc.arc_role),
                                        (c.QN_XLINK_FROM, arc.from_label),
                                        (c.QN_XLINK_TO, arc.to_label)))
            write("/>")
        write(f"</{tag}>")
    write(f"</{root}>")
    return w.finish()


def _write_measures(w: XmlWriter, parent: str, measures: tuple[QName, ...]) -> None:
    """Close the open start tag of ``parent``, write its measures and its end tag."""
    w.out.append(">")
    # Measure text is QName-valued; bind the needed prefix locally so the
    # value resolves no matter which prefixes the writer picks.
    tag = w.names[c.QN_MEASURE]
    for i, measure in enumerate(measures):
        uri = measure.namespace_uri
        if uri:
            prefix = c.PREFERRED_PREFIXES.get(uri, f"m{i}")
            w.out.append(f'<{tag} xmlns:{prefix}="{w.attr[uri]}">'
                         f"{w.text(prefix + ':' + measure.local_name)}</{tag}>")
        else:
            w.out.append(f"<{tag}>{w.text(measure.local_name)}</{tag}>")
    w.out.append(f"</{parent}>")

"""Converts XML element trees into Instances and back.

Parsing is deterministic and order-preserving. Strict mode either fully
succeeds or fails with the first blocking error and its source position;
Lenient mode recovers from a documented set of defects (missing
contextRef, invalid periods, conflicting numeric-fidelity attributes,
tuple over-nesting, nested xbrl elements), emitting one finding per
recovery so no data is lost silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from . import constants as c
from .errors import XbrlError
from .findings import Finding
from .iso8601 import compare_start_end, parse_point
from .model import (
    Context,
    Divide,
    Entity,
    Fact,
    Footnote,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    Duration,
    Measures,
    RefKind,
    TaxonomyRef,
    Tuple,
    Unit,
)
from .xmltree import QName, SourceLocation, XmlElement, serialize_element

_DECIMALS_RE = re.compile(r"(INF|[+-]?\d+)$")
_PRECISION_RE = re.compile(r"(INF|[1-9]\d*)$")


class ParseError(XbrlError):
    """Blocking problem while building an Instance from a tree."""

    def __init__(self, message: str, location: SourceLocation = SourceLocation()):
        super().__init__(message)
        self.location = location


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


@dataclass(frozen=True)
class ParseOptions:
    mode: ParseMode = ParseMode.STRICT


@dataclass(frozen=True)
class ParseOutcome:
    instance: Instance
    recovered_findings: tuple[Finding, ...] = ()


def parse_period(element: XmlElement) -> "Instant | Duration | Forever":
    """Build a Period from a period element.

    Accepts instant, forever, or startDate+endDate children; date values
    must be ISO 8601. Raises InvalidPeriodShape, InvalidIso8601, or
    StartAfterEnd.
    """
    loc = element.source_location
    children = element.child_elements()
    names = [ch.name for ch in children]
    if names == [c.QN_FOREVER]:
        return Forever()
    if names == [c.QN_INSTANT]:
        try:
            return Instant(when=parse_point(children[0].text_content().strip()))
        except ValueError as exc:
            raise InvalidIso8601(str(exc), children[0].source_location) from None
    if names == [c.QN_START_DATE, c.QN_END_DATE]:
        try:
            start = parse_point(children[0].text_content().strip())
            end = parse_point(children[1].text_content().strip())
        except ValueError as exc:
            raise InvalidIso8601(str(exc), loc) from None
        cmp, _ = compare_start_end(start, end)
        if cmp > 0:
            raise StartAfterEnd(
                f"period start {start.raw!r} is after end {end.raw!r}", loc
            )
        return Duration(start=start, end=end)
    raise InvalidPeriodShape(
        "period must contain instant, forever, or startDate+endDate", loc
    )


def parse_unit(element: XmlElement) -> Unit:
    """Build a Unit from a unit element (measure children or one divide)."""
    loc = element.source_location
    unit_id = element.attributes.get(c.QN_ATTR_ID) or ""
    children = element.child_elements()
    if not children:
        raise EmptyUnit("unit has no measure or divide content", loc)
    measures = [ch for ch in children if ch.name == c.QN_MEASURE]
    divides = [ch for ch in children if ch.name == c.QN_DIVIDE]
    if divides and (measures or len(divides) > 1):
        raise MalformedDivide("unit mixes divide with other content", loc)
    if divides:
        divide = divides[0]
        numerator = divide.first_child(c.QN_UNIT_NUMERATOR)
        denominator = divide.first_child(c.QN_UNIT_DENOMINATOR)
        num = _measure_qnames(numerator)
        den = _measure_qnames(denominator)
        if not num or not den:
            raise MalformedDivide(
                "divide requires measures in both numerator and denominator",
                divide.source_location,
            )
        return Unit(id=unit_id, body=Divide(numerator=num, denominator=den),
                    source_location=loc)
    if len(measures) != len(children):
        raise EmptyUnit("unit contains non-measure content", loc)
    return Unit(
        id=unit_id,
        body=Measures(measures=tuple(m.resolve_qname_text(m.text_content()) for m in measures)),
        source_location=loc,
    )


def _measure_qnames(leg: XmlElement | None) -> tuple[QName, ...]:
    if leg is None:
        return ()
    return tuple(
        ch.resolve_qname_text(ch.text_content())
        for ch in leg.child_elements()
        if ch.name == c.QN_MEASURE
    )


def _parse_entity(element: XmlElement) -> Entity:
    identifier = element.first_child(c.QN_IDENTIFIER)
    if identifier is None:
        raise InvalidContextShape("entity has no identifier", element.source_location)
    scheme = identifier.attributes.get(c.QN_ATTR_SCHEME) or ""
    ident_text = identifier.text_content().strip()
    if not scheme or not ident_text:
        raise InvalidContextShape(
            "entity identifier requires a scheme and a non-empty value",
            identifier.source_location,
        )
    return Entity(
        scheme=scheme,
        identifier=ident_text,
        segment=element.first_child(c.QN_SEGMENT),
    )


def _parse_context(element: XmlElement) -> Context:
    loc = element.source_location
    context_id = element.attributes.get(c.QN_ATTR_ID)
    if not context_id:
        raise InvalidContextShape("context has no id", loc)
    entity_el = element.first_child(c.QN_ENTITY)
    if entity_el is None:
        raise InvalidContextShape(f"context {context_id!r} has no entity", loc)
    period_el = element.first_child(c.QN_PERIOD)
    if period_el is None:
        raise InvalidPeriodShape(f"context {context_id!r} has no period", loc)
    return Context(
        id=context_id,
        entity=_parse_entity(entity_el),
        period=parse_period(period_el),
        scenario=element.first_child(c.QN_SCENARIO),
        source_location=loc,
    )


def _parse_footnote_link(element: XmlElement) -> FootnoteLink:
    locators: list[tuple[str, str]] = []
    footnotes: list[tuple[str, Footnote]] = []
    arcs: list[FootnoteArc] = []
    for child in element.child_elements():
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
            footnotes.append((label, Footnote(
                content=child, language=child.attributes.get(c.QN_XML_LANG) or ""
            )))
        elif child.name == c.QN_FOOTNOTE_ARC:
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


def _taxonomy_ref(element: XmlElement, kind: RefKind) -> TaxonomyRef:
    href = element.attributes.get(c.QN_XLINK_HREF)
    if not href:
        raise ParseError(
            f"{element.name.local_name} has no xlink:href", element.source_location
        )
    return TaxonomyRef(href=href, kind=kind)


_RESERVED_NAMESPACES = (c.XBRLI_NS, c.LINK_NS)


class _InstanceBuilder:
    def __init__(self, options: ParseOptions):
        self.lenient = options.mode is ParseMode.LENIENT
        self.findings: list[Finding] = []

    def recover(self, code: str, message: str, location: SourceLocation,
                subject: str | None = None) -> None:
        self.findings.append(Finding.of(code, message, location, subject))

    def build(self, root: XmlElement) -> Instance:
        if root.name != c.QN_XBRL:
            raise NotAnXbrlRoot(
                f"root element is {root.name.clark()}, expected {c.QN_XBRL.clark()}",
                root.source_location,
            )
        schema_refs: list[TaxonomyRef] = []
        linkbase_refs: list[TaxonomyRef] = []
        contexts: dict[str, Context] = {}
        units: dict[str, Unit] = {}
        facts: list[Fact] = []
        links: list[FootnoteLink] = []

        for child in root.child_elements():
            name = child.name
            if name == c.QN_SCHEMA_REF:
                schema_refs.append(_taxonomy_ref(child, RefKind.SCHEMA))
            elif name == c.QN_LINKBASE_REF:
                linkbase_refs.append(_taxonomy_ref(child, RefKind.LINKBASE))
            elif name == c.QN_CONTEXT:
                self._add_context(child, contexts)
            elif name == c.QN_UNIT:
                self._add_unit(child, units)
            elif name == c.QN_FOOTNOTE_LINK:
                links.append(_parse_footnote_link(child))
            else:
                fact = self._build_fact(child, depth=1)
                if fact is not None:
                    facts.append(fact)

        return Instance(
            schema_refs=tuple(schema_refs),
            linkbase_refs=tuple(linkbase_refs),
            contexts=contexts,
            units=units,
            facts=tuple(facts),
            footnote_links=tuple(links),
            source_location=root.source_location,
        )

    def _add_context(self, element: XmlElement, contexts: dict[str, Context]) -> None:
        try:
            context = _parse_context(element)
        except (InvalidIso8601, StartAfterEnd) as exc:
            if not self.lenient:
                raise
            code = "PER-001" if isinstance(exc, InvalidIso8601) else "PER-002"
            self.recover(code, f"context dropped: {exc}", exc.location,
                         subject=element.attributes.get(c.QN_ATTR_ID))
            return
        if context.id in contexts:
            raise DuplicateContextId(
                f"duplicate context id {context.id!r}", element.source_location
            )
        contexts[context.id] = context

    def _add_unit(self, element: XmlElement, units: dict[str, Unit]) -> None:
        unit = parse_unit(element)
        if not unit.id:
            raise ParseError("unit has no id", element.source_location)
        if unit.id in units:
            raise DuplicateUnitId(
                f"duplicate unit id {unit.id!r}", element.source_location
            )
        units[unit.id] = unit

    def _classify_as_tuple(self, element: XmlElement, kids: list[XmlElement],
                           text: str) -> bool:
        if any(ch.name.namespace_uri not in _RESERVED_NAMESPACES for ch in kids):
            return True
        # A bare element with nothing item-like about it (no contextRef, no
        # numeric attributes, no value) reads back as an empty tuple, keeping
        # empty tuples round-trippable.
        attrs = element.attributes
        return (
            not kids
            and c.QN_ATTR_CONTEXT_REF not in attrs
            and c.QN_ATTR_UNIT_REF not in attrs
            and c.QN_ATTR_DECIMALS not in attrs
            and c.QN_ATTR_PRECISION not in attrs
            and not text.strip()
        )

    def _build_fact(self, element: XmlElement, depth: int) -> Fact | None:
        if element.name.namespace_uri in _RESERVED_NAMESPACES:
            # Unknown structural elements in the reserved namespaces are
            # not facts; a nested instance is reported, the rest skipped.
            if element.name == c.QN_XBRL and self.lenient:
                self.recover(
                    "EMB-001",
                    "embedded xbrl element inside another instance was not parsed",
                    element.source_location,
                )
            return None
        kids = element.child_elements()
        text = element.text_content()
        if self._classify_as_tuple(element, kids, text):
            return self._build_tuple(element, kids, depth)
        return self._build_item(element, text)

    def _build_tuple(self, element: XmlElement, kids: list[XmlElement],
                     depth: int) -> Tuple | None:
        loc = element.source_location
        if depth > c.DEFAULT_MAX_TUPLE_DEPTH:
            if not self.lenient:
                raise TupleDepthExceeded(
                    f"tuple nesting exceeds {c.DEFAULT_MAX_TUPLE_DEPTH}", loc
                )
            self.recover(
                "T-DEPTH",
                f"tuple subtree beyond depth {c.DEFAULT_MAX_TUPLE_DEPTH} truncated",
                loc, subject=element.name.clark(),
            )
            return None
        children: list[Fact] = []
        for ch in kids:
            fact = self._build_fact(ch, depth + 1)
            if fact is not None:
                children.append(fact)
        attrs = element.attributes
        return Tuple(
            concept=element.name,
            children=tuple(children),
            id=attrs.get(c.QN_ATTR_ID),
            context_ref=attrs.get(c.QN_ATTR_CONTEXT_REF),
            source_location=loc,
        )

    def _build_item(self, element: XmlElement, text: str) -> Item | None:
        loc = element.source_location
        attrs = element.attributes
        context_ref = attrs.get(c.QN_ATTR_CONTEXT_REF)
        if context_ref is None:
            if not self.lenient:
                raise MissingContextRef(
                    f"item {element.name.clark()} has no contextRef", loc
                )
            self.recover(
                "CTX-002",
                f"item {element.name.clark()} dropped: no contextRef",
                loc, subject=element.name.clark(),
            )
            return None
        decimals = self._fidelity_attr(element, c.QN_ATTR_DECIMALS, _DECIMALS_RE)
        precision = self._fidelity_attr(element, c.QN_ATTR_PRECISION, _PRECISION_RE)
        if decimals is not None and precision is not None:
            if not self.lenient:
                raise InvalidItemAttributes(
                    "item carries both decimals and precision", loc
                )
            self.recover(
                "ITM-001", "precision ignored: decimals is also present",
                loc, subject=element.name.clark(),
            )
            precision = None
        return Item(
            concept=element.name,
            context_ref=context_ref,
            value=text.strip(),
            unit_ref=attrs.get(c.QN_ATTR_UNIT_REF),
            decimals=decimals,
            precision=precision,
            id=attrs.get(c.QN_ATTR_ID),
            source_location=loc,
        )

    def _fidelity_attr(self, element: XmlElement, name: QName,
                       pattern: re.Pattern) -> str | None:
        raw = element.attributes.get(name)
        if raw is None:
            return None
        if pattern.match(raw):
            return raw
        if not self.lenient:
            raise InvalidItemAttributes(
                f"invalid {name.local_name} value {raw!r}", element.source_location
            )
        self.recover(
            "ITM-001", f"invalid {name.local_name} value {raw!r} ignored",
            element.source_location, subject=element.name.clark(),
        )
        return None


def parse_instance(root: XmlElement,
                   options: ParseOptions = ParseOptions()) -> ParseOutcome:
    """Parse one instance whose root is the xbrl element.

    Any ordering of root children is accepted; schema/linkbase refs, facts,
    and footnote arcs retain document order. Child elements outside the
    instance and linkbase namespaces are classified as facts.
    """
    builder = _InstanceBuilder(options)
    instance = builder.build(root)
    return ParseOutcome(instance=instance, recovered_findings=tuple(builder.findings))


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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize(instance: Instance) -> bytes:
    """Emit an instance as namespace-well-formed XML.

    Root children are written in canonical section order (schema refs,
    linkbase refs, contexts, units, facts, footnote links); re-parsing the
    output yields a structurally equal instance.
    """
    children: list[XmlElement] = []
    for ref in instance.schema_refs:
        children.append(_ref_element(c.QN_SCHEMA_REF, ref))
    for ref in instance.linkbase_refs:
        children.append(_ref_element(c.QN_LINKBASE_REF, ref))
    for context in instance.contexts.values():
        children.append(_context_element(context))
    for unit in instance.units.values():
        children.append(_unit_element(unit))
    for fact in instance.facts:
        children.append(_fact_element(fact))
    for link in instance.footnote_links:
        children.append(_footnote_link_element(link))
    root = XmlElement(name=c.QN_XBRL, attributes={}, children=tuple(children))
    return serialize_element(root, c.PREFERRED_PREFIXES)


def _el(name: QName, attrs: dict[QName, str] | None = None,
        children: tuple = ()) -> XmlElement:
    return XmlElement(name=name, attributes=attrs or {}, children=children)


def _ref_element(name: QName, ref: TaxonomyRef) -> XmlElement:
    return _el(name, {c.QN_XLINK_TYPE: "simple", c.QN_XLINK_HREF: ref.href})


def _context_element(context: Context) -> XmlElement:
    entity_children: list = [
        _el(c.QN_IDENTIFIER, {c.QN_ATTR_SCHEME: context.entity.scheme},
            (context.entity.identifier,))
    ]
    if context.entity.segment is not None:
        entity_children.append(context.entity.segment)
    period = context.period
    if isinstance(period, Forever):
        period_children: tuple = (_el(c.QN_FOREVER),)
    elif isinstance(period, Instant):
        period_children = (_el(c.QN_INSTANT, None, (period.when.raw,)),)
    else:
        period_children = (
            _el(c.QN_START_DATE, None, (period.start.raw,)),
            _el(c.QN_END_DATE, None, (period.end.raw,)),
        )
    children: list = [
        _el(c.QN_ENTITY, None, tuple(entity_children)),
        _el(c.QN_PERIOD, None, period_children),
    ]
    if context.scenario is not None:
        children.append(context.scenario)
    return _el(c.QN_CONTEXT, {c.QN_ATTR_ID: context.id}, tuple(children))


def _measure_elements(measures: tuple[QName, ...]) -> tuple[XmlElement, ...]:
    # Measure text is QName-valued; bind the needed prefix locally so the
    # value resolves no matter which prefixes the serializer picks.
    out = []
    for i, measure in enumerate(measures):
        if measure.namespace_uri:
            prefix = c.PREFERRED_PREFIXES.get(measure.namespace_uri, f"m{i}")
            attrs = {QName("", f"xmlns:{prefix}"): measure.namespace_uri}
            text = f"{prefix}:{measure.local_name}"
        else:
            attrs = {}
            text = measure.local_name
        out.append(_el(c.QN_MEASURE, attrs, (text,)))
    return tuple(out)


def _unit_element(unit: Unit) -> XmlElement:
    if isinstance(unit.body, Measures):
        children: tuple = _measure_elements(unit.body.measures)
    else:
        children = (
            _el(c.QN_DIVIDE, None, (
                _el(c.QN_UNIT_NUMERATOR, None, _measure_elements(unit.body.numerator)),
                _el(c.QN_UNIT_DENOMINATOR, None, _measure_elements(unit.body.denominator)),
            )),
        )
    return _el(c.QN_UNIT, {c.QN_ATTR_ID: unit.id}, children)


def _fact_element(fact: Fact) -> XmlElement:
    if isinstance(fact, Item):
        attrs: dict[QName, str] = {}
        if fact.id is not None:
            attrs[c.QN_ATTR_ID] = fact.id
        attrs[c.QN_ATTR_CONTEXT_REF] = fact.context_ref
        if fact.unit_ref is not None:
            attrs[c.QN_ATTR_UNIT_REF] = fact.unit_ref
        if fact.decimals is not None:
            attrs[c.QN_ATTR_DECIMALS] = fact.decimals
        if fact.precision is not None:
            attrs[c.QN_ATTR_PRECISION] = fact.precision
        children: tuple = (fact.value,) if fact.value else ()
        return _el(fact.concept, attrs, children)
    attrs = {}
    if fact.id is not None:
        attrs[c.QN_ATTR_ID] = fact.id
    if fact.context_ref is not None:
        attrs[c.QN_ATTR_CONTEXT_REF] = fact.context_ref
    return _el(fact.concept, attrs, tuple(_fact_element(ch) for ch in fact.children))


def _footnote_link_element(link: FootnoteLink) -> XmlElement:
    children: list[XmlElement] = []
    for label, href in link.locators:
        children.append(_el(c.QN_LOC, {
            c.QN_XLINK_TYPE: "locator",
            c.QN_XLINK_LABEL: label,
            c.QN_XLINK_HREF: href,
        }))
    for _, note in link.footnotes:
        children.append(note.content)
    for arc in link.arcs:
        children.append(_el(c.QN_FOOTNOTE_ARC, {
            c.QN_XLINK_TYPE: "arc",
            c.QN_XLINK_ARCROLE: arc.arc_role,
            c.QN_XLINK_FROM: arc.from_label,
            c.QN_XLINK_TO: arc.to_label,
        }))
    attrs = {c.QN_XLINK_TYPE: "extended"}
    if link.role:
        attrs[c.QN_XLINK_ROLE] = link.role
    return _el(c.QN_FOOTNOTE_LINK, attrs, tuple(children))

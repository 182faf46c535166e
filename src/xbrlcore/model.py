"""The typed XBRL instance model.

Facts are either Items (single value, context-bound) or Tuples (nested
facts); contexts give facts their entity/period/scenario and units give
numeric facts their measurement semantics. Everything is immutable after
parse and equality is structural: source positions and the prefixes used
in the source document never matter.

Scenario and segment content is preserved as opaque element fragments and
never interpreted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Union

from .errors import XbrlError
from .iso8601 import TimePoint
from .xmltree import QName, SourceLocation, XmlElement


class UnresolvedContextRef(XbrlError):
    """An item's contextRef matches no context id in the instance."""

    def __init__(self, context_ref: str):
        super().__init__(f"no context with id {context_ref!r}")
        self.context_ref = context_ref


class UnresolvedUnitRef(XbrlError):
    """An item's unitRef matches no unit id in the instance."""

    def __init__(self, unit_ref: str):
        super().__init__(f"no unit with id {unit_ref!r}")
        self.unit_ref = unit_ref


class RefKind(Enum):
    SCHEMA = "schema"
    LINKBASE = "linkbase"


@dataclass(frozen=True)
class TaxonomyRef:
    href: str
    kind: RefKind


@dataclass(frozen=True, slots=True)
class Entity:
    """Reporting entity: identifier scheme URI plus the identifier itself."""

    scheme: str
    identifier: str
    segment: XmlElement | None = None


@dataclass(frozen=True, slots=True)
class Instant:
    when: TimePoint


@dataclass(frozen=True, slots=True)
class Duration:
    start: TimePoint
    end: TimePoint


@dataclass(frozen=True)
class Forever:
    pass


Period = Union[Instant, Duration, Forever]


@dataclass(frozen=True, slots=True)
class Context:
    id: str
    entity: Entity
    period: Period
    scenario: XmlElement | None = None
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)


@dataclass(frozen=True, slots=True)
class Measures:
    measures: tuple[QName, ...]


@dataclass(frozen=True)
class Divide:
    numerator: tuple[QName, ...]
    denominator: tuple[QName, ...]


UnitBody = Union[Measures, Divide]


@dataclass(frozen=True, slots=True)
class Unit:
    id: str
    body: UnitBody
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)


@dataclass(frozen=True, slots=True)
class Item:
    """A fact holding a single value, always bound to a context.

    ``decimals`` and ``precision`` are carried as validated lexical text
    (an integer / positive integer, or INF) purely for round-trip
    fidelity; no rounding semantics are applied.
    """

    concept: QName
    context_ref: str
    value: str = ""
    unit_ref: str | None = None
    decimals: str | None = None
    precision: str | None = None
    id: str | None = None
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)


@dataclass(frozen=True, slots=True)
class Tuple:
    """A fact holding nested facts.

    Tuples never resolve contexts; ``context_ref`` records an offending
    attribute from the source purely so validation can flag it.
    """

    concept: QName
    children: tuple["Fact", ...] = ()
    id: str | None = None
    context_ref: str | None = None
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)


Fact = Union[Item, Tuple]


@dataclass(frozen=True)
class Footnote:
    content: XmlElement
    language: str = ""


@dataclass(frozen=True)
class FootnoteArc:
    from_label: str
    to_label: str
    arc_role: str


@dataclass(frozen=True)
class FootnoteLink:
    """An XLink extended link associating facts with footnote content.

    ``locators`` and ``footnotes`` are (label, value) pairs in document
    order; XLink lets several of them share a label, and an arc from or to
    that label then applies to each. ``role`` is the link's ``xlink:role``,
    empty when absent.
    """

    locators: tuple[tuple[str, str], ...] = ()
    footnotes: tuple[tuple[str, Footnote], ...] = ()
    arcs: tuple[FootnoteArc, ...] = ()
    role: str = ""
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)


@dataclass(frozen=True)
class Instance:
    """Root aggregate of one XBRL instance document."""

    schema_refs: tuple[TaxonomyRef, ...] = ()
    linkbase_refs: tuple[TaxonomyRef, ...] = ()
    contexts: Mapping[str, Context] = field(default_factory=dict)
    units: Mapping[str, Unit] = field(default_factory=dict)
    facts: tuple[Fact, ...] = ()
    footnote_links: tuple[FootnoteLink, ...] = ()
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)

    def iter_facts(self) -> Iterator[Fact]:
        """Every fact (items and tuples), depth-first in document order."""

        def walk(facts: tuple[Fact, ...]) -> Iterator[Fact]:
            for fact in facts:
                yield fact
                if isinstance(fact, Tuple):
                    yield from walk(fact.children)

        return walk(self.facts)

    def fact_count(self) -> int:
        """Total number of facts, nested ones included."""
        return sum(1 for _ in self.iter_facts())

    def iter_items(self) -> Iterator[Item]:
        """Every Item exactly once, document order, tuples traversed depth-first."""
        return (f for f in self.iter_facts() if isinstance(f, Item))

    def resolve_context(self, item: Item) -> Context:
        """The context an item is assigned to; raises UnresolvedContextRef."""
        try:
            return self.contexts[item.context_ref]
        except KeyError:
            raise UnresolvedContextRef(item.context_ref) from None

    def resolve_unit(self, item: Item) -> Unit | None:
        """The unit an item references, None when it has none."""
        if item.unit_ref is None:
            return None
        try:
            return self.units[item.unit_ref]
        except KeyError:
            raise UnresolvedUnitRef(item.unit_ref) from None

"""The typed XBRL instance model.

Facts are either Items (single value, context-bound) or Tuples (nested
facts); contexts give facts their entity/period/scenario and units give
numeric facts their measurement semantics. Everything is immutable after
parse and equality is structural: source positions and the prefixes used
in the source document never matter.

Scenario, segment and footnote content is preserved as opaque element
fragments and never interpreted.

Every class here is a final slots record declared through
``xmltree._record``: each field and its default are written once, in the
class body, construction costs one slot store per field, and equality,
hashing, ``repr`` and the ``dataclasses`` functions behave as for a frozen
dataclass.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Union

from .iso8601 import TimePoint
from .xmltree import QName, SourceLocation, XmlElement, _field, _record


@_record
class TaxonomyRef:
    """A schemaRef or linkbaseRef; ``arcrole`` and ``role`` are empty when absent."""

    href: str
    arcrole: str = ""
    role: str = ""


@_record
class Entity:
    """Reporting entity: identifier scheme URI plus the identifier itself."""

    scheme: str
    identifier: str
    segment: XmlElement | None = None


@_record
class Instant:
    """A period that is one point in time."""

    when: TimePoint


@_record
class Duration:
    """A period from ``start`` to ``end``."""

    start: TimePoint
    end: TimePoint


@_record
class Forever:
    """A period without start or end."""


Period = Union[Instant, Duration, Forever]


@_record
class Context:
    """The entity, period and optional scenario that items refer to by ``id``."""

    id: str
    entity: Entity
    period: Period
    scenario: XmlElement | None = None
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)


@_record
class Unit:
    """Measures, optionally divided by other measures (XBRL 2.1 section 4.8).

    A simple unit has an empty ``denominator``.
    """

    id: str
    numerator: tuple[QName, ...]
    denominator: tuple[QName, ...] = ()
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)


@_record
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
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)


@_record
class Tuple:
    """A fact holding nested facts.

    Tuples never resolve contexts; ``context_ref`` records an offending
    attribute from the source purely so validation can flag it.
    """

    concept: QName
    children: tuple["Fact", ...] = ()
    id: str | None = None
    context_ref: str | None = None
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)


Fact = Union[Item, Tuple]


@_record
class FootnoteArc:
    """An arc from the resources labelled ``from_label`` to those labelled ``to_label``."""

    from_label: str
    to_label: str
    arc_role: str


@_record
class FootnoteLink:
    """An XLink extended link associating facts with footnote content.

    ``locators`` are (label, href) pairs and ``footnotes`` the footnote
    resource elements as written, both in document order; a footnote's
    label and language are its ``xlink:label`` and ``xml:lang``. XLink lets
    several locators and footnotes share a label, and an arc from or to
    that label then applies to each. ``role`` is the link's ``xlink:role``,
    empty when absent.
    """

    locators: tuple[tuple[str, str], ...] = ()
    footnotes: tuple[XmlElement, ...] = ()
    arcs: tuple[FootnoteArc, ...] = ()
    role: str = ""
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)


@_record
class Instance:
    """Root aggregate of one XBRL instance document."""

    schema_refs: tuple[TaxonomyRef, ...] = ()
    linkbase_refs: tuple[TaxonomyRef, ...] = ()
    contexts: Mapping[str, Context] = _field(default_factory=dict)
    units: Mapping[str, Unit] = _field(default_factory=dict)
    facts: tuple[Fact, ...] = ()
    footnote_links: tuple[FootnoteLink, ...] = ()
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)

    def walk(self) -> Iterator[tuple[Fact, tuple[Tuple, ...]]]:
        """Every fact with its enclosing tuples (outermost first, ``()`` at top
        level), depth-first in document order. Siblings share one ancestors object."""
        # One iterator per open tuple, so nesting depth is bounded by
        # memory and not by the recursion limit.
        stack = [iter(self.facts)]
        ancestors: tuple[Tuple, ...] = ()
        while stack:
            for fact in stack[-1]:
                yield fact, ancestors
                if isinstance(fact, Tuple):
                    stack.append(iter(fact.children))
                    ancestors += (fact,)
                    break
            else:
                stack.pop()
                ancestors = ancestors[:-1]

    def iter_facts(self) -> Iterator[Fact]:
        """Every fact (items and tuples), depth-first in document order."""
        return (fact for fact, _ in self.walk())

    def fact_count(self) -> int:
        """Total number of facts, nested ones included."""
        return sum(1 for _ in self.walk())

    def iter_items(self) -> Iterator[Item]:
        """Every Item exactly once, document order, tuples traversed depth-first."""
        return (f for f, _ in self.walk() if isinstance(f, Item))

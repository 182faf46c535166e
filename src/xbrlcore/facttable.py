"""Flattened, table-shaped view of an instance's items.

Canonical text forms: concepts and measures use Clark notation
(``{uri}local``); periods render as ``I:<instant>``, ``D:<start>/<end>``,
or ``F``; divide units as ``numerator/denominator`` with measures joined
by ``*``; ``tuple_path`` is the slash-joined chain of ancestor tuple
concepts, empty for top-level items.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Divide, Duration, Fact, Forever, Instance, Instant, Item, Tuple, Unit
from .xmltree import QName

CSV_HEADER = ("concept", "value", "context_id", "entity", "period", "unit", "tuple_path")


@dataclass(frozen=True, slots=True)
class FactRow:
    concept: str
    value: str
    context_id: str
    entity: str
    period: str
    unit: str
    tuple_path: str

    def as_tuple(self) -> tuple[str, ...]:
        return (self.concept, self.value, self.context_id, self.entity,
                self.period, self.unit, self.tuple_path)


def _period_text(period) -> str:
    if isinstance(period, Forever):
        return "F"
    if isinstance(period, Instant):
        return f"I:{period.when.raw}"
    if isinstance(period, Duration):
        return f"D:{period.start.raw}/{period.end.raw}"
    return ""


def _unit_text(unit: Unit) -> str:
    if isinstance(unit.body, Divide):
        num = "*".join(m.clark() for m in unit.body.numerator)
        den = "*".join(m.clark() for m in unit.body.denominator)
        return f"{num}/{den}"
    return "*".join(m.clark() for m in unit.body.measures)


def fact_rows(instance: Instance) -> list[FactRow]:
    """One row per Item, document order; unresolvable references render empty."""
    # Each context, unit and concept is rendered once, not once per row.
    context_text = {
        cid: (context.entity.identifier, _period_text(context.period))
        for cid, context in instance.contexts.items()
    }
    unit_text = {uid: _unit_text(unit) for uid, unit in instance.units.items()}
    concept_text: dict[QName, str] = {}
    no_context = ("", "")
    rows: list[FactRow] = []

    def walk(facts: tuple[Fact, ...], tuple_path: str, path: tuple[str, ...]) -> None:
        for fact in facts:
            concept = concept_text.get(fact.concept)
            if concept is None:
                concept = concept_text[fact.concept] = fact.concept.clark()
            if isinstance(fact, Item):
                entity, period = context_text.get(fact.context_ref, no_context)
                unit = unit_text.get(fact.unit_ref, "") if fact.unit_ref else ""
                rows.append(FactRow(concept, fact.value, fact.context_ref, entity,
                                    period, unit, tuple_path))
            elif isinstance(fact, Tuple):
                inner = path + (concept,)
                walk(fact.children, "/".join(inner), inner)

    walk(instance.facts, "", ())
    return rows

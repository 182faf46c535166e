"""Flattened, table-shaped view of an instance's items.

Canonical text forms: concepts and measures use Clark notation
(``{uri}local``); periods render as ``I:<instant>``, ``D:<start>/<end>``,
or ``F``; divide units as ``numerator/denominator`` with measures joined
by ``*``; ``tuple_path`` is the slash-joined chain of ancestor tuple
concepts, empty for top-level items.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Duration, Forever, Instance, Instant, Item, Tuple, Unit
from .xmltree import QName, _handed_off, _tuple_new


class FactRow(NamedTuple):
    """One item as text; equal to the plain tuple of its fields, in this order."""

    concept: str
    value: str
    context_id: str
    entity: str
    period: str
    unit: str
    tuple_path: str

    def as_tuple(self) -> tuple[str, ...]:
        return tuple(self)


CSV_HEADER = FactRow._fields


def _period_text(period) -> str:
    if isinstance(period, Forever):
        return "F"
    if isinstance(period, Instant):
        return f"I:{period.when.raw}"
    if isinstance(period, Duration):
        return f"D:{period.start.raw}/{period.end.raw}"
    return ""


def _unit_text(unit: Unit) -> str:
    text = "*".join(m.clark() for m in unit.numerator)
    if unit.denominator:
        text += "/" + "*".join(m.clark() for m in unit.denominator)
    return text


@_handed_off
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
    # Instance.walk's order without its generator: one iterator per open
    # tuple, innermost last, and the tuple path of each.
    pending, paths = [iter(instance.facts)], [""]
    while pending:
        tuple_path = paths[-1]
        for fact in pending[-1]:
            if fact.__class__ is Tuple:
                concept = fact.concept.clark()
                pending.append(iter(fact.children))
                paths.append(f"{tuple_path}/{concept}" if len(paths) > 1 else concept)
                break
            if fact.__class__ is not Item:
                continue
            concept = concept_text.get(fact.concept)
            if concept is None:
                concept = concept_text[fact.concept] = fact.concept.clark()
            entity, period = context_text.get(fact.context_ref, no_context)
            unit = unit_text.get(fact.unit_ref, "") if fact.unit_ref else ""
            # tuple.__new__ skips the NamedTuple's own __new__, a Python call.
            rows.append(_tuple_new(FactRow, (concept, fact.value, fact.context_ref, entity,
                                             period, unit, tuple_path)))
        else:
            pending.pop()
            paths.pop()
    return rows

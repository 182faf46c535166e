"""Deterministic structural validation of parsed instances.

Every problem is a finding, never a failure: validate() always returns a
report. Findings carry stable codes from the rule catalog in findings.py,
are ordered (location, code) lexicographically, and two runs over the same
input produce identical reports. Rules marked ``requires_dts`` run only when a
taxonomy set is supplied and are listed as skipped otherwise, so providing
a DTS can only ever add findings.

The item rules (CTX-001, UNT-001, DTS-001, NUM-001, UNT-002) cost a clean
item a few lookups in one method. Whether a unit has an ISO 4217 measure
is worked out once per unit and instance.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .constants import DEFAULT_MAX_TUPLE_DEPTH, ISO4217_NS, QN_XLINK_LABEL
from .dts import Concept, DataKind, Dts
from .findings import Finding, Severity, rule_catalog
from .model import (
    Duration,
    Fact,
    Instance,
    Item,
    Tuple,
    Unit,
)
from .parser import ParseOutcome
from .xmltree import QName, _record


@_record
class ValidationReport:
    """Ordered findings, their counts per severity, and the digest of the input."""

    findings: tuple[Finding, ...]
    counts: Mapping[str, int]
    input_digest: str | None
    skipped_rules: tuple[str, ...] = ()

    def error_count(self) -> int:
        return self.counts.get(Severity.ERROR.value, 0)


# The findings discovery reports about taxonomy documents, not about an
# instance: every instance sharing the taxonomy carries the same ones.
_TAXONOMY_CODES = frozenset({"DTS-002", "DTS-003", "DTS-004"})


def build_report(findings: Iterable[Finding], input_digest: str | None = None,
                 skipped_rules: tuple[str, ...] = ()) -> ValidationReport:
    """A report over findings from one or more instances of the same input.

    Each taxonomy finding (DTS-002..004) is listed once, however many
    instances share it; findings about the instances are all kept, equal
    ones included. Findings are ordered by ``Finding.sort_key`` and counted
    per severity.
    """
    findings = list(findings)
    taxonomy = dict.fromkeys(f for f in findings if f.code in _TAXONOMY_CODES)
    ordered = tuple(sorted([*taxonomy, *(f for f in findings if f.code not in _TAXONOMY_CODES)],
                           key=Finding.sort_key))
    counts = {s.value: sum(f.severity is s for f in ordered) for s in Severity}
    return ValidationReport(
        findings=ordered,
        counts=counts,
        input_digest=input_digest,
        skipped_rules=skipped_rules,
    )


def _has_monetary_measure(unit: Unit) -> bool:
    # A monetary numerator over a denominator (e.g. USD per share) qualifies.
    return any(m.namespace_uri == ISO4217_NS for m in unit.numerator)


# A tuple, not a frozenset: ``in`` finds an enum member by identity, while
# hashing one runs ``Enum.__hash__`` in Python.
_NUMERIC_KINDS = (DataKind.MONETARY, DataKind.SHARES, DataKind.NUMERIC)
_MONETARY = DataKind.MONETARY


class _Checker:
    def __init__(self, instance: Instance, registry: Mapping[QName, Concept] | None):
        self.instance = instance
        self.registry = registry
        self.findings: list[Finding] = []
        # unit id -> whether the unit has an ISO 4217 measure, once per unit
        self.monetary = {uid: _has_monetary_measure(unit) for uid, unit in instance.units.items()}

    def emit(self, code: str, message: str, location, subject: str | None = None) -> None:
        self.findings.append(Finding.of(code, message, location, subject))

    def run(self) -> list[Finding]:
        # Findings with equal sort keys keep this pre-order emission order.
        for fact, ancestors in self.instance.walk():
            if isinstance(fact, Item):
                self._check_item(fact)
            else:
                self._check_tuple(fact, len(ancestors) + 1)
        self._check_contexts()
        self._check_footnotes()
        return self.findings

    # -- facts --------------------------------------------------------------

    def flag(self, fact: Fact, code: str, message: str) -> None:
        """Emit a finding about a fact, at its location and with its id or concept as subject."""
        self.emit(code, message, fact.source_location, fact.id or fact.concept.clark())

    def _check_item(self, item: Item) -> None:
        unit_ref = item.unit_ref
        monetary = self.monetary.get(unit_ref)  # None: no unitRef, or an undefined one
        if item.context_ref not in self.instance.contexts:
            self.flag(
                item, "CTX-001",
                f"item {item.concept.clark()} references undefined context "
                f"{item.context_ref!r}",
            )
        if unit_ref is not None and monetary is None:
            self.flag(
                item, "UNT-001",
                f"item {item.concept.clark()} references undefined unit {unit_ref!r}",
            )
        if self.registry is None:
            return
        concept = self.registry.get(item.concept)
        if concept is None:
            self.flag(
                item, "DTS-001",
                f"concept {item.concept.clark()} is not declared in the taxonomy set",
            )
        elif unit_ref is None:
            if concept.data_kind in _NUMERIC_KINDS:
                self.flag(
                    item, "NUM-001",
                    f"numeric item {item.concept.clark()} has no unitRef",
                )
        elif monetary is False and concept.data_kind is _MONETARY:
            self.flag(
                item, "UNT-002",
                f"monetary item {item.concept.clark()} uses unit "
                f"{unit_ref!r} without an ISO 4217 measure",
            )

    def _check_tuple(self, tup: Tuple, depth: int) -> None:
        if tup.context_ref is not None:
            self.flag(
                tup, "T-001",
                f"tuple {tup.concept.clark()} carries contextRef {tup.context_ref!r}",
            )
        if depth > DEFAULT_MAX_TUPLE_DEPTH:
            self.flag(
                tup, "T-DEPTH",
                f"tuple {tup.concept.clark()} is nested deeper than "
                f"{DEFAULT_MAX_TUPLE_DEPTH}",
            )
        if self.registry is not None and tup.concept not in self.registry:
            self.flag(
                tup, "DTS-001",
                f"concept {tup.concept.clark()} is not declared in the taxonomy set",
            )

    # -- contexts -----------------------------------------------------------

    def _check_contexts(self) -> None:
        for context in self.instance.contexts.values():
            if context.scenario is not None and not context.scenario.child_elements():
                self.emit(
                    "SCN-001",
                    f"context {context.id!r} has an empty scenario element",
                    context.scenario.source_location, context.id,
                )
            period = context.period
            if isinstance(period, Duration) and period.start.zoned != period.end.zoned:
                self.emit(
                    "PER-003",
                    f"context {context.id!r} mixes zoned and zoneless period "
                    "values; the zoneless one was assumed to be UTC",
                    context.source_location, context.id,
                )

    # -- footnotes ----------------------------------------------------------

    def _check_footnotes(self) -> None:
        for link in self.instance.footnote_links:
            labels = {label for label, _ in link.locators}
            labels.update(note.attributes.get(QN_XLINK_LABEL) for note in link.footnotes)
            for arc in link.arcs:
                for endpoint in (arc.from_label, arc.to_label):
                    if endpoint not in labels:
                        self.emit(
                            "FTN-001",
                            f"footnote arc endpoint {endpoint!r} matches no "
                            "locator or footnote label",
                            link.source_location, endpoint,
                        )


def validate(subject: Instance | ParseOutcome, dts: Dts | None = None, *,
             input_digest: str | None = None) -> ValidationReport:
    """Check an instance against the rule catalog.

    Accepts a plain Instance or a ParseOutcome, whose recovered findings
    are merged into the report. ``input_digest`` should be the
    content hash of the source bytes (see ``digest_bytes``); the report
    carries it as given, so it is None when the caller supplies none.
    """
    if isinstance(subject, ParseOutcome):
        instance = subject.instance
        collected = list(subject.recovered_findings)
    else:
        instance = subject
        collected = []

    registry = dts.concepts if dts is not None else None
    if dts is not None:
        collected.extend(dts.findings)
    collected.extend(_Checker(instance, registry).run())

    skipped = () if dts is not None else tuple(
        r.code for r in rule_catalog() if r.requires_dts
    )
    return build_report(collected, input_digest, skipped)


def digest_bytes(data: bytes) -> str:
    import hashlib
    return "sha256:" + hashlib.sha256(data).hexdigest()

"""Deterministic structural validation of parsed instances.

Every problem is a finding, never a failure: validate() always returns a
report. Findings carry stable codes from the rule catalog in findings.py,
are ordered (location, code) lexicographically, and two runs over the same
input produce identical reports. Rules marked ``requires_dts`` run only when a
taxonomy set is supplied and are listed as skipped otherwise, so providing
a DTS can only ever add findings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from .constants import DEFAULT_MAX_TUPLE_DEPTH, ISO4217_NS
from .dts import Concept, DataKind, Dts
from .findings import Finding, Severity, rule_catalog
from .model import (
    Duration,
    Fact,
    Instance,
    Item,
    Measures,
    Tuple,
    Unit,
)
from .iso8601 import compare_start_end
from .parser import ParseOutcome
from .xmltree import QName


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]
    counts: Mapping[str, int]
    input_digest: str | None
    skipped_rules: tuple[str, ...] = ()

    def error_count(self) -> int:
        return self.counts.get(Severity.ERROR.value, 0)


def build_report(findings: Iterable[Finding], input_digest: str | None = None,
                 skipped_rules: tuple[str, ...] = ()) -> ValidationReport:
    """A report over findings from one or more instances of the same input.

    Findings are ordered by ``Finding.sort_key`` and counted per severity.
    """
    ordered = tuple(sorted(findings, key=Finding.sort_key))
    counts = {s.value: sum(f.severity is s for f in ordered) for s in Severity}
    return ValidationReport(
        findings=ordered,
        counts=counts,
        input_digest=input_digest,
        skipped_rules=skipped_rules,
    )


def _has_monetary_measure(unit: Unit) -> bool:
    # A Divide with a monetary numerator (e.g. USD per share) qualifies.
    if isinstance(unit.body, Measures):
        measures = unit.body.measures
    else:
        measures = unit.body.numerator
    return any(m.namespace_uri == ISO4217_NS for m in measures)


class _Checker:
    def __init__(self, instance: Instance, registry: Mapping[QName, Concept] | None):
        self.instance = instance
        self.registry = registry
        self.findings: list[Finding] = []

    def emit(self, code: str, message: str, location, subject: str | None = None) -> None:
        self.findings.append(Finding.of(code, message, location, subject))

    def run(self) -> list[Finding]:
        for fact in self.instance.facts:
            self._check_fact(fact, depth=1)
        self._check_contexts()
        self._check_footnotes()
        return self.findings

    # -- facts --------------------------------------------------------------

    def _check_fact(self, fact: Fact, depth: int) -> None:
        if isinstance(fact, Item):
            self._check_item(fact)
            return
        self._check_tuple(fact, depth)

    def _subject(self, fact: Fact) -> str:
        return fact.id if fact.id else fact.concept.clark()

    def _check_item(self, item: Item) -> None:
        subject = self._subject(item)
        loc = item.source_location
        if item.context_ref not in self.instance.contexts:
            self.emit(
                "CTX-001",
                f"item {item.concept.clark()} references undefined context "
                f"{item.context_ref!r}",
                loc, subject,
            )
        unit = None
        if item.unit_ref is not None:
            unit = self.instance.units.get(item.unit_ref)
            if unit is None:
                self.emit(
                    "UNT-001",
                    f"item {item.concept.clark()} references undefined unit "
                    f"{item.unit_ref!r}",
                    loc, subject,
                )
        if self.registry is None:
            return
        concept = self.registry.get(item.concept)
        if concept is None:
            self.emit(
                "DTS-001",
                f"concept {item.concept.clark()} is not declared in the taxonomy set",
                loc, subject,
            )
            return
        numeric = concept.data_kind in (DataKind.MONETARY, DataKind.SHARES, DataKind.NUMERIC)
        if numeric and item.unit_ref is None:
            self.emit(
                "NUM-001",
                f"numeric item {item.concept.clark()} has no unitRef",
                loc, subject,
            )
        if concept.data_kind is DataKind.MONETARY and unit is not None:
            if not _has_monetary_measure(unit):
                self.emit(
                    "UNT-002",
                    f"monetary item {item.concept.clark()} uses unit "
                    f"{item.unit_ref!r} without an ISO 4217 measure",
                    loc, subject,
                )

    def _check_tuple(self, tup: Tuple, depth: int) -> None:
        subject = self._subject(tup)
        if tup.context_ref is not None:
            self.emit(
                "T-001",
                f"tuple {tup.concept.clark()} carries contextRef {tup.context_ref!r}",
                tup.source_location, subject,
            )
        if depth > DEFAULT_MAX_TUPLE_DEPTH:
            self.emit(
                "T-DEPTH",
                f"tuple {tup.concept.clark()} is nested deeper than "
                f"{DEFAULT_MAX_TUPLE_DEPTH}",
                tup.source_location, subject,
            )
        if self.registry is not None and tup.concept not in self.registry:
            self.emit(
                "DTS-001",
                f"concept {tup.concept.clark()} is not declared in the taxonomy set",
                tup.source_location, subject,
            )
        for child in tup.children:
            self._check_fact(child, depth + 1)

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
            if isinstance(period, Duration):
                _, assumed_utc = compare_start_end(period.start, period.end)
                if assumed_utc:
                    self.emit(
                        "PER-003",
                        f"context {context.id!r} mixes zoned and zoneless period "
                        "values; the zoneless one was assumed to be UTC",
                        context.source_location, context.id,
                    )

    # -- footnotes ----------------------------------------------------------

    def _check_footnotes(self) -> None:
        for link in self.instance.footnote_links:
            labels = {label for label, _ in (*link.locators, *link.footnotes)}
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

    Accepts a plain Instance or a lenient ParseOutcome, whose recovered
    findings are merged into the report. ``input_digest`` should be the
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
    return "sha256:" + hashlib.sha256(data).hexdigest()

"""Findings, severities and the rule catalog shared by parser, DTS, and validation.

The catalog is the one place a rule's severity is written down: every
finding is built from its code through ``Finding.of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .constants import DEFAULT_MAX_TUPLE_DEPTH
from .xmltree import SourceLocation


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One validation result with a stable code and a source position.

    Messages never contain absolute file paths; any document mentioned is
    referred to by the relative form it was addressed with.
    """

    code: str
    severity: Severity
    message: str
    location: SourceLocation = SourceLocation()
    subject: str | None = None

    @classmethod
    def of(cls, code: str, message: str, location: SourceLocation = SourceLocation(),
           subject: str | None = None) -> "Finding":
        """A finding for a catalog rule, with the rule's severity."""
        return cls(code, _RULES_BY_CODE[code].severity, message, location, subject)

    def sort_key(self) -> tuple[int, int, str]:
        return (self.location.line, self.location.column, self.code)


@dataclass(frozen=True)
class Rule:
    code: str
    severity: Severity
    description: str
    requires_dts: bool = False


_RULES = (
    Rule("CTX-001", Severity.ERROR,
         "Item contextRef does not resolve to any context in the instance."),
    Rule("CTX-002", Severity.ERROR,
         "Item carries no contextRef (recovered during lenient parse; the item is dropped)."),
    Rule("PER-001", Severity.ERROR,
         "Period value is not valid ISO 8601 (recovered during lenient parse; the context is dropped)."),
    Rule("PER-002", Severity.ERROR,
         "Period startDate is after endDate (recovered during lenient parse; the context is dropped)."),
    Rule("PER-003", Severity.WARNING,
         "Period mixes zoned and zoneless date-times; the zoneless value was assumed to be UTC."),
    Rule("UNT-001", Severity.ERROR,
         "Item unitRef does not resolve to any unit in the instance."),
    Rule("UNT-002", Severity.ERROR,
         "Monetary item uses a unit without any ISO 4217 measure.", requires_dts=True),
    Rule("NUM-001", Severity.ERROR,
         "Numeric item (per the concept registry) has no unitRef.", requires_dts=True),
    Rule("DTS-001", Severity.ERROR,
         "Fact concept is not declared in the discovered taxonomy set.", requires_dts=True),
    Rule("DTS-002", Severity.WARNING,
         "Item concept is declared without a periodType.", requires_dts=True),
    Rule("DTS-003", Severity.WARNING,
         "Concept QName is declared in more than one schema; the first declaration wins.",
         requires_dts=True),
    Rule("DTS-004", Severity.WARNING,
         "Taxonomy schema has no targetNamespace; its declarations were skipped.",
         requires_dts=True),
    Rule("FTN-001", Severity.ERROR,
         "Footnote arc endpoint label matches no locator or footnote in its link."),
    Rule("SCN-001", Severity.WARNING,
         "Scenario element is present but empty."),
    Rule("T-001", Severity.WARNING,
         "Tuple element carries a contextRef; tuples are not context-bound."),
    Rule("T-DEPTH", Severity.WARNING,
         f"Tuple nesting exceeds the depth guard of {DEFAULT_MAX_TUPLE_DEPTH}."),
    Rule("ITM-001", Severity.WARNING,
         "Conflicting or invalid decimals/precision attributes (recovered during lenient parse)."),
    Rule("EMB-001", Severity.WARNING,
         "Embedded xbrl element inside another instance was not parsed."),
)

_RULES_BY_CODE = {r.code: r for r in _RULES}


def rule_catalog() -> tuple[Rule, ...]:
    """The full rule catalog in stable order."""
    return _RULES

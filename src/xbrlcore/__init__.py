"""xbrlcore: parse XBRL instance documents, discover their taxonomy set,
and validate structural rules into deterministic reports."""

from .errors import XbrlError
from .xmltree import (
    MalformedXml,
    QName,
    SourceLocation,
    UnboundPrefix,
    UnsupportedEncoding,
    XmlElement,
    XmlReadError,
    read_document,
)
from .model import (
    Context,
    Divide,
    Duration,
    Entity,
    Fact,
    Footnote,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    Measures,
    RefKind,
    TaxonomyRef,
    Tuple,
    Unit,
    UnresolvedContextRef,
    UnresolvedUnitRef,
)
from .parser import (
    ParseError,
    ParseMode,
    ParseOptions,
    ParseOutcome,
    find_instances,
    parse_instance,
    parse_period,
    parse_unit,
    serialize,
)
from .dts import (
    Balance,
    Concept,
    DataKind,
    DocumentKind,
    Dts,
    DtsDocument,
    ItemKind,
    NotASchema,
    PeriodType,
    ResolutionError,
    Resolver,
    build_resolver,
    discover,
    load_taxonomy_schema,
)
from .findings import Finding, Rule, Severity, rule_catalog
from .validation import ValidationReport, build_report, validate
from .facttable import CSV_HEADER, FactRow, fact_rows

__version__ = "0.1.0"

__all__ = [
    "XbrlError",
    "QName", "SourceLocation", "XmlElement", "read_document",
    "MalformedXml", "UnboundPrefix", "UnsupportedEncoding", "XmlReadError",
    "Instance", "Item", "Tuple", "Fact", "Context", "Entity", "Unit",
    "Measures", "Divide", "Instant", "Duration", "Forever",
    "TaxonomyRef", "RefKind", "Footnote", "FootnoteArc", "FootnoteLink",
    "UnresolvedContextRef", "UnresolvedUnitRef",
    "ParseOptions", "ParseMode", "ParseOutcome", "ParseError",
    "parse_instance", "parse_period", "parse_unit", "find_instances", "serialize",
    "Dts", "DtsDocument", "Concept",
    "ItemKind", "DataKind", "PeriodType", "Balance", "DocumentKind",
    "Resolver", "build_resolver",
    "ResolutionError", "NotASchema", "discover", "load_taxonomy_schema",
    "Finding", "Severity", "Rule", "ValidationReport",
    "validate", "build_report", "rule_catalog",
    "FactRow", "fact_rows", "CSV_HEADER",
    "__version__",
]

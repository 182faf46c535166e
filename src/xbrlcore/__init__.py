"""xbrlcore: parse XBRL instance documents, discover their taxonomy set,
and validate structural rules into deterministic reports."""

from .errors import SourceLocation, XbrlError
from .xmltree import (
    MalformedXml,
    QName,
    UnboundPrefix,
    UnsupportedEncoding,
    XmlElement,
    XmlReadError,
    read_document,
)
from .model import (
    Context,
    Duration,
    Entity,
    Fact,
    FootnoteArc,
    FootnoteLink,
    Forever,
    Instance,
    Instant,
    Item,
    TaxonomyRef,
    Tuple,
    Unit,
)
from .parser import (
    ParseError,
    ParseMode,
    ParseOptions,
    ParseOutcome,
    find_instances,
    parse_instance,
    read_instances,
    serialize,
)
from .dts import (
    Concept,
    DataKind,
    DocumentKind,
    Dts,
    DtsDocument,
    ItemKind,
    PeriodType,
    ResolutionError,
    Resolver,
    build_resolver,
    discover,
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
    "Instant", "Duration", "Forever",
    "TaxonomyRef", "FootnoteArc", "FootnoteLink",
    "ParseOptions", "ParseMode", "ParseOutcome", "ParseError",
    "parse_instance", "find_instances", "read_instances", "serialize",
    "Dts", "DtsDocument", "Concept",
    "ItemKind", "DataKind", "PeriodType", "DocumentKind",
    "Resolver", "build_resolver",
    "ResolutionError", "discover",
    "Finding", "Severity", "Rule", "ValidationReport",
    "validate", "build_report", "rule_catalog",
    "FactRow", "fact_rows", "CSV_HEADER",
    "__version__",
]

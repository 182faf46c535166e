"""Taxonomy set discovery and the concept registry.

Discovery runs breadth-first from an instance's schema and linkbase
references, following schema imports/includes and embedded linkbaseRefs,
with a visited set on resolved URIs so cycles terminate. Every reachable
href ends up either in ``documents`` or in ``unresolved``; nothing is
dropped silently. Relationship networks inside linkbases are fetched and
recorded but not interpreted.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit, urljoin

from . import constants as c
from .errors import XbrlError
from .findings import Finding
from .model import Instance
from .xmltree import QName, XmlElement, XmlReadError, read_document

DEFAULT_MAX_DOCUMENTS = 256
DEFAULT_MAX_DEPTH = 16
_HTTP_TIMEOUT_S = 30.0


class NotASchema(XbrlError):
    """The document is not an XML Schema."""


class ResolutionError(XbrlError):
    """A reference could not be fetched; the message is the reason."""


class ItemKind(Enum):
    ITEM = "item"
    TUPLE = "tuple"
    UNKNOWN = "unknown"


class DataKind(Enum):
    MONETARY = "monetary"
    SHARES = "shares"
    NUMERIC = "numeric"
    NON_NUMERIC = "non-numeric"
    UNKNOWN = "unknown"


class PeriodType(Enum):
    INSTANT = "instant"
    DURATION = "duration"
    UNKNOWN = "unknown"


class Balance(Enum):
    DEBIT = "debit"
    CREDIT = "credit"
    NONE = "none"


class DocumentKind(Enum):
    TAXONOMY_SCHEMA = "schema"
    LINKBASE = "linkbase"


@dataclass(frozen=True)
class Concept:
    """One reporting concept declared in a taxonomy schema."""

    qname: QName
    item_kind: ItemKind = ItemKind.UNKNOWN
    data_kind: DataKind = DataKind.UNKNOWN
    period_type: PeriodType = PeriodType.UNKNOWN
    balance: Balance = Balance.NONE
    abstract: bool = False


@dataclass(frozen=True)
class DtsDocument:
    uri: str
    kind: DocumentKind
    outgoing_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Dts:
    """The discovered taxonomy set reachable from one instance.

    ``concepts`` maps each declared QName to its first declaration.
    """

    documents: Mapping[str, DtsDocument] = field(default_factory=dict)
    concepts: Mapping[QName, Concept] = field(default_factory=dict)
    unresolved: tuple[tuple[str, str], ...] = ()
    findings: tuple[Finding, ...] = ()
    limit_exceeded: bool = False


# ---------------------------------------------------------------------------
# Resolvers
# ---------------------------------------------------------------------------


def resolve_reference(base_uri: str, href: str) -> str:
    """RFC 3986 relative-reference resolution against a base URI or path."""
    if urlsplit(href).scheme:
        return href
    return urljoin(base_uri, href)


def _fetch_file(root: Path, uri: str) -> bytes:
    """Read a URI as a file under ``root``; anything escaping the root is refused.

    Plain (possibly relative) paths map directly; http/https URIs are folded
    into path segments under the root as ``<scheme>/<authority>/<path>``.
    """
    parts = urlsplit(uri)
    if parts.scheme in ("http", "https"):
        path = root / parts.scheme / parts.netloc / parts.path.lstrip("/")
    elif parts.scheme == "file":
        path = Path(parts.path)
    else:
        path = Path(posixpath.normpath(uri))
    try:
        resolved = path.resolve()
        resolved.relative_to(root.resolve())
    except ValueError:
        raise ResolutionError(f"outside taxonomy root: {uri}") from None
    try:
        return resolved.read_bytes()
    except FileNotFoundError:
        raise ResolutionError(f"not found: {uri}") from None
    except OSError as exc:
        raise ResolutionError(f"unreadable: {uri} ({exc.strerror})") from None


def _fetch_http(uri: str) -> bytes:
    import urllib.request

    try:
        with urllib.request.urlopen(uri, timeout=_HTTP_TIMEOUT_S) as response:
            return response.read()
    except OSError as exc:
        raise ResolutionError(f"fetch failed: {uri} ({exc})") from None


class Resolver:
    """Resolves taxonomy hrefs to URIs and fetches their bytes.

    With a ``root``, URIs are read as files under it (http(s) ones folded in
    by scheme and authority). With ``allow_network``, http(s) URIs are
    fetched over the network instead, and without a root nothing else can
    be fetched. With neither, every fetch fails.
    """

    resolve = staticmethod(resolve_reference)

    def __init__(self, root: str | Path | None = None, allow_network: bool = False):
        self.root = None if root is None else Path(root)
        self.allow_network = allow_network

    def fetch(self, uri: str) -> bytes:
        if self.allow_network and urlsplit(uri).scheme in ("http", "https"):
            return _fetch_http(uri)
        if self.root is not None:
            return _fetch_file(self.root, uri)
        if self.allow_network:
            raise ResolutionError(f"not an http(s) URI: {uri}")
        raise ResolutionError("no taxonomy source configured")


def build_resolver(taxonomy_root: str | Path | None = None,
                   allow_network: bool = False) -> Resolver:
    return Resolver(taxonomy_root, allow_network)


# ---------------------------------------------------------------------------
# Schema loading
# ---------------------------------------------------------------------------


def _data_kind(type_name: QName | None) -> DataKind:
    if type_name is None or type_name.namespace_uri != c.XBRLI_NS:
        return DataKind.UNKNOWN
    local = type_name.local_name
    if local in c.MONETARY_ITEM_TYPES:
        return DataKind.MONETARY
    if local in c.SHARES_ITEM_TYPES:
        return DataKind.SHARES
    if local in c.NUMERIC_ITEM_TYPES:
        return DataKind.NUMERIC
    if local in c.NON_NUMERIC_ITEM_TYPES:
        return DataKind.NON_NUMERIC
    return DataKind.UNKNOWN


def _qname_attr(element: XmlElement, name: QName) -> QName | None:
    raw = element.attributes.get(name)
    if raw is None:
        return None
    try:
        return element.resolve_qname_text(raw)
    except XmlReadError:
        return None


def _concept_from_declaration(element: XmlElement, target_ns: str,
                              uri: str) -> tuple[Concept, Finding | None]:
    attrs = element.attributes
    qname = QName(target_ns, attrs.get(c.QN_ATTR_NAME) or "")
    subst = _qname_attr(element, c.QN_ATTR_SUBSTITUTION_GROUP)
    if subst == c.QN_SUBST_ITEM:
        item_kind = ItemKind.ITEM
    elif subst == c.QN_SUBST_TUPLE:
        item_kind = ItemKind.TUPLE
    else:
        item_kind = ItemKind.UNKNOWN

    period_raw = attrs.get(c.QN_PERIOD_TYPE_ATTR)
    if period_raw == "instant":
        period_type = PeriodType.INSTANT
    elif period_raw == "duration":
        period_type = PeriodType.DURATION
    else:
        period_type = PeriodType.UNKNOWN

    finding = None
    if period_type is PeriodType.UNKNOWN and item_kind is ItemKind.ITEM:
        finding = Finding.of(
            "DTS-002",
            f"{uri}: concept {qname.clark()} declares no periodType",
            element.source_location,
            qname.clark(),
        )

    balance_raw = attrs.get(c.QN_BALANCE_ATTR)
    balance = {"debit": Balance.DEBIT, "credit": Balance.CREDIT}.get(
        balance_raw or "", Balance.NONE
    )
    concept = Concept(
        qname=qname,
        item_kind=item_kind,
        data_kind=_data_kind(_qname_attr(element, c.QN_ATTR_TYPE)),
        period_type=period_type,
        balance=balance,
        abstract=(attrs.get(c.QN_ATTR_ABSTRACT) or "").strip() in ("true", "1"),
    )
    return concept, finding


def _outgoing_refs(root: XmlElement) -> list[str]:
    refs: list[str] = []
    for element in root.iter_elements():
        if element.name in (c.QN_XSD_IMPORT, c.QN_XSD_INCLUDE):
            location = element.attributes.get(c.QN_ATTR_SCHEMA_LOCATION)
            if location:
                refs.append(location)
        elif element.name in (c.QN_LINKBASE_REF, c.QN_SCHEMA_REF):
            href = element.attributes.get(c.QN_XLINK_HREF)
            if href:
                refs.append(href)
    return refs


def load_taxonomy_schema(data: bytes, uri: str) -> tuple[list[Concept], list[str], list[Finding]]:
    """Extract top-level element declarations and outgoing hrefs from a schema.

    Returns (concepts, outgoing hrefs, findings). Raises NotASchema when the
    root is not an XML Schema document; a schema without a targetNamespace
    contributes no concepts and one finding.
    """
    return _load_schema_root(read_document(data), uri)


def _load_schema_root(root: XmlElement, uri: str) -> tuple[list[Concept], list[str], list[Finding]]:
    if root.name != c.QN_XSD_SCHEMA:
        raise NotASchema(f"{uri}: root element is {root.name.clark()}, not a schema")
    findings: list[Finding] = []
    concepts: list[Concept] = []
    target_ns = root.attributes.get(c.QN_ATTR_TARGET_NAMESPACE)
    if target_ns is None:
        findings.append(Finding.of(
            "DTS-004",
            f"{uri}: schema has no targetNamespace; declarations skipped",
            root.source_location,
        ))
    else:
        for child in root.child_elements():
            if child.name == c.QN_XSD_ELEMENT and child.attributes.get(c.QN_ATTR_NAME):
                concept, finding = _concept_from_declaration(child, target_ns, uri)
                concepts.append(concept)
                if finding is not None:
                    findings.append(finding)
    return concepts, _outgoing_refs(root), findings


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


def discover(instance: Instance, resolver: Resolver, *, base_uri: str = "",
             max_documents: int = DEFAULT_MAX_DOCUMENTS,
             max_depth: int = DEFAULT_MAX_DEPTH) -> Dts:
    """Breadth-first closure over taxonomy references.

    Deterministic for deterministic resolvers: each URI is fetched at most
    once per run, documents appear in discovery order, and unresolved
    entries keep the order of the referencing edge. When a limit is hit the
    partial result is returned with ``limit_exceeded`` set.
    """
    queue: list[tuple[str, int]] = []
    seen: set[str] = set()
    for ref in (*instance.schema_refs, *instance.linkbase_refs):
        queue.append((resolver.resolve(base_uri, ref.href), 1))

    documents: dict[str, DtsDocument] = {}
    registry: dict[QName, Concept] = {}
    concept_sources: dict[QName, str] = {}
    findings: list[Finding] = []
    unresolved: list[tuple[str, str]] = []
    limit_exceeded = False

    index = 0
    while index < len(queue):
        uri, depth = queue[index]
        index += 1
        if uri in seen:
            continue
        seen.add(uri)
        if depth > max_depth:
            unresolved.append((uri, f"depth limit {max_depth} exceeded"))
            limit_exceeded = True
            continue
        if len(documents) >= max_documents:
            unresolved.append((uri, f"document limit {max_documents} reached"))
            limit_exceeded = True
            continue
        try:
            data = resolver.fetch(uri)
        except ResolutionError as exc:
            unresolved.append((uri, str(exc)))
            continue
        try:
            root = read_document(data)
        except XmlReadError as exc:
            unresolved.append((uri, f"not XML: {exc}"))
            continue
        if root.name == c.QN_XSD_SCHEMA:
            kind = DocumentKind.TAXONOMY_SCHEMA
            concepts, refs, schema_findings = _load_schema_root(root, uri)
            findings.extend(schema_findings)
            for concept in concepts:
                if concept.qname in registry:
                    findings.append(Finding.of(
                        "DTS-003",
                        f"concept {concept.qname.clark()} in {uri} duplicates the "
                        f"declaration in {concept_sources[concept.qname]}; first wins",
                        subject=concept.qname.clark(),
                    ))
                    continue
                registry[concept.qname] = concept
                concept_sources[concept.qname] = uri
        elif root.name == c.QN_LINKBASE:
            kind = DocumentKind.LINKBASE
            refs = _outgoing_refs(root)
        else:
            unresolved.append((uri, "root element is neither a schema nor a linkbase"))
            continue
        documents[uri] = DtsDocument(uri=uri, kind=kind, outgoing_refs=tuple(refs))
        for href in refs:
            queue.append((resolver.resolve(uri, href), depth + 1))

    return Dts(
        documents=documents,
        concepts=registry,
        unresolved=tuple(unresolved),
        findings=tuple(findings),
        limit_exceeded=limit_exceeded,
    )

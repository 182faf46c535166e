"""Taxonomy set discovery and the concept registry.

Discovery runs breadth-first from an instance's schema and linkbase
references, following schema imports/includes and embedded linkbaseRefs,
with a visited set on resolved URIs so cycles terminate. The closure is
followed to any depth (XBRL 2.1 §3): its one bound is the document limit,
since a walk loads at most that many documents and queues only their
references. Every reachable href ends up either in ``documents`` or in
``unresolved``; nothing is dropped silently. Relationship networks inside
linkbases are fetched and recorded but not interpreted.

A schema is loaded in one pre-order walk, and declarations sharing their
raw classifying attributes under the same prefix bindings are classified
once per load; each still gets its own ``Concept`` and DTS-002 finding.

Per resolver and for its lifetime, each resolved URI is loaded once: its
document, outgoing hrefs resolved against it, concepts and schema
findings, or the reason it stays unresolved. That is all a resolver keeps,
so a long-lived one holds one load per distinct URI, each filing's own
extension schema included, and nothing per entry set. Every discovery
walks the loads breadth-first and merges each document's concepts with one
``dict.update``; only when some QName is declared twice (DTS-003) is the
merge redone in document order, first declaration winning. This is sound
only while ``resolve`` is a pure function of its arguments and the
documents do not change; concurrent discoveries may load one URI twice,
with equal results.
"""

from __future__ import annotations

import os
import posixpath
import weakref
from enum import Enum
from typing import Mapping, NamedTuple
from urllib.parse import unquote, urlsplit, urljoin

from . import constants as c
from .errors import XbrlError
from .findings import Finding
from .model import Instance
from .xmltree import (
    XML_WHITESPACE, QName, XmlElement, XmlReadError, _field, _record, _without_cyclic_gc,
    read_document,
)

DEFAULT_MAX_DOCUMENTS = 256


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


class DocumentKind(Enum):
    TAXONOMY_SCHEMA = "schema"
    LINKBASE = "linkbase"


@_record
class Concept:
    """One reporting concept declared in a taxonomy schema."""

    qname: QName
    item_kind: ItemKind = ItemKind.UNKNOWN
    data_kind: DataKind = DataKind.UNKNOWN
    period_type: PeriodType = PeriodType.UNKNOWN
    abstract: bool = False


@_record
class DtsDocument:
    """One discovered document and the hrefs it refers to, as written."""

    uri: str
    kind: DocumentKind
    outgoing_refs: tuple[str, ...] = ()


@_record
class Dts:
    """The discovered taxonomy set reachable from one instance.

    ``concepts`` maps each declared QName to its first declaration.
    """

    documents: Mapping[str, DtsDocument] = _field(default_factory=dict)
    concepts: Mapping[QName, Concept] = _field(default_factory=dict)
    unresolved: tuple[tuple[str, str], ...] = ()
    findings: tuple[Finding, ...] = ()
    limit_exceeded: bool = False


# ---------------------------------------------------------------------------
# Resolvers
# ---------------------------------------------------------------------------


def resolve_reference(base_uri: str, href: str) -> str:
    """RFC 3986 relative-reference resolution against a base URI or path.

    The fragment is dropped: it never names another document (RFC 3986
    §4.3), so ``a.xsd`` and ``a.xsd#x`` are one URI and one load. An href
    that will not parse, such as ``http://[bad``, is returned as it is, for
    the fetch to refuse.
    """
    try:
        uri = href if urlsplit(href).scheme else urljoin(base_uri, href)
    except ValueError:
        return href
    return uri.partition("#")[0]


class Resolver:
    """Resolves taxonomy hrefs to URIs and fetches their bytes.

    With a ``root``, URIs are read as files under it: plain (possibly
    relative) paths and ``file:`` URIs map directly, http(s) ones are folded
    in as ``<root>/<scheme>/<authority>/<path>``, and any path whose real
    location escapes the root is refused. A path is percent-decoded and its
    fragment ignored before it is mapped, so ``a%20b.xsd#x`` reads the file
    ``a b.xsd``. Without a root, every fetch fails.
    The root is resolved once, here, so build a new resolver after moving it.
    """

    resolve = staticmethod(resolve_reference)

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = None if root is None else os.path.realpath(root)

    def fetch(self, uri: str) -> bytes:
        root = self.root
        if root is None:
            raise ResolutionError("no taxonomy source configured")
        try:
            parts = urlsplit(uri)
            if parts.scheme in ("http", "https"):
                path = os.path.join(root, parts.scheme, parts.netloc,
                                    unquote(parts.path).lstrip("/"))
            elif parts.scheme == "file":
                path = unquote(parts.path)
            else:
                path = posixpath.normpath(unquote(uri.partition("#")[0]))
            path = os.path.realpath(path)
        except ValueError:  # urllib cannot parse it, or it decodes to a NUL
            raise ResolutionError(f"invalid URI: {uri}") from None
        if path != root and not path.startswith(os.path.join(root, "")):
            raise ResolutionError(f"outside taxonomy root: {uri}")
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise ResolutionError(f"not found: {uri}") from None
        except OSError as exc:
            raise ResolutionError(f"unreadable: {uri} ({exc.strerror})") from None


def build_resolver(taxonomy_root: str | os.PathLike | None = None) -> Resolver:
    return Resolver(taxonomy_root)


# ---------------------------------------------------------------------------
# Schema loading
# ---------------------------------------------------------------------------


_ITEM_KINDS = {c.QN_SUBST_ITEM: ItemKind.ITEM, c.QN_SUBST_TUPLE: ItemKind.TUPLE}
_DATA_KINDS = {QName(c.XBRLI_NS, local): kind for kind, locals_ in (
    (DataKind.MONETARY, c.MONETARY_ITEM_TYPES), (DataKind.SHARES, c.SHARES_ITEM_TYPES),
    (DataKind.NUMERIC, c.NUMERIC_ITEM_TYPES), (DataKind.NON_NUMERIC, c.NON_NUMERIC_ITEM_TYPES),
) for local in locals_}  # the four sets are disjoint
_PERIOD_TYPES = {"instant": PeriodType.INSTANT, "duration": PeriodType.DURATION}


class _Classes(dict):
    """Raw (substitutionGroup, type, periodType, abstract) text -> (item kind,
    data kind, period type, abstract), under the prefix bindings of ``element``
    and of every element sharing them; a QName that will not resolve is unknown."""

    def __init__(self, element: XmlElement):
        super().__init__()
        self.element = element

    def _resolve(self, raw: str | None) -> QName | None:
        try:
            return None if raw is None else self.element.resolve_qname_text(raw)
        except XmlReadError:
            return None

    def __missing__(self, raw: tuple) -> tuple:
        subst, type_name, period_type, abstract = raw
        kinds = self[raw] = (
            _ITEM_KINDS.get(self._resolve(subst), ItemKind.UNKNOWN),
            _DATA_KINDS.get(self._resolve(type_name), DataKind.UNKNOWN),
            _PERIOD_TYPES.get(period_type, PeriodType.UNKNOWN),
            (abstract or "").strip(XML_WHITESPACE) in ("true", "1"),
        )
        return kinds


# The elements whose attribute names an outgoing reference, at any depth.
_REF_ATTRS = {c.QN_XSD_IMPORT: c.QN_ATTR_SCHEMA_LOCATION,
              c.QN_XSD_INCLUDE: c.QN_ATTR_SCHEMA_LOCATION,
              c.QN_LINKBASE_REF: c.QN_XLINK_HREF, c.QN_SCHEMA_REF: c.QN_XLINK_HREF}


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


class _Loaded(NamedTuple):
    """What one resolved URI yielded when it is a schema or a linkbase."""

    document: DtsDocument
    targets: tuple[str, ...]  # document.outgoing_refs, resolved against its URI
    concepts: tuple[Concept, ...]  # as declared, repeats included
    own: dict[QName, Concept]  # the first declaration of each QName
    findings: tuple[Finding, ...]


# Per resolver, the outcome of loading each resolved URI. Keyed weakly, so
# the loads live exactly as long as their resolver.
_LOADED: weakref.WeakKeyDictionary[Resolver, dict[str, str | _Loaded]] = \
    weakref.WeakKeyDictionary()


def _load(resolver: Resolver, uri: str) -> str | _Loaded:
    """Fetch, read and classify one resolved URI; resolve its outgoing hrefs."""
    try:
        data = resolver.fetch(uri)
    except ResolutionError as exc:
        return str(exc)
    try:
        root = read_document(data)
    except XmlReadError as exc:
        return f"not XML: {exc}"
    findings: list[Finding] = []
    target_ns = None
    if root.name == c.QN_XSD_SCHEMA:
        kind = DocumentKind.TAXONOMY_SCHEMA
        target_ns = root.attributes.get(c.QN_ATTR_TARGET_NAMESPACE)
        if target_ns is None:
            findings.append(Finding.of(
                "DTS-004", f"{uri}: schema has no targetNamespace; declarations skipped",
                root.source_location))
    elif root.name == c.QN_LINKBASE:
        kind = DocumentKind.LINKBASE
    else:
        return "root element is neither a schema nor a linkbase"

    # One pre-order walk: the top-level declarations, and references at any depth.
    concepts: list[Concept] = []
    own: dict[QName, Concept] = {}
    refs: list[str] = []
    classes: dict[int, _Classes] = {}  # per bindings object; the tree keeps each alive
    for top in root.child_elements():
        attrs = top.attributes
        local = (target_ns is not None and top.name == c.QN_XSD_ELEMENT
                 and attrs.get(c.QN_ATTR_NAME))
        if local:
            memo = classes.get(id(top.prefix_bindings))
            if memo is None:
                memo = classes[id(top.prefix_bindings)] = _Classes(top)
            kinds = memo[attrs.get(c.QN_ATTR_SUBSTITUTION_GROUP), attrs.get(c.QN_ATTR_TYPE),
                         attrs.get(c.QN_PERIOD_TYPE_ATTR), attrs.get(c.QN_ATTR_ABSTRACT)]
            qname = QName(target_ns, local)
            concept = Concept(qname, *kinds)
            concepts.append(concept)
            own.setdefault(qname, concept)
            if kinds[0] is ItemKind.ITEM and kinds[2] is PeriodType.UNKNOWN:
                findings.append(Finding.of(
                    "DTS-002", f"{uri}: concept {qname.clark()} declares no periodType",
                    top.source_location, qname.clark()))
            if not top.children:  # most declarations; no reference to find
                continue
        for element in top.iter_elements():
            ref = element.attributes.get(_REF_ATTRS.get(element.name))  # None: not a ref
            if ref:
                refs.append(ref)
    return _Loaded(DtsDocument(uri, kind, tuple(refs)),
                   tuple(resolver.resolve(uri, href) for href in refs),
                   tuple(concepts), own, tuple(findings))


@_without_cyclic_gc
def discover(instance: Instance, resolver: Resolver, *, base_uri: str = "",
             max_documents: int = DEFAULT_MAX_DOCUMENTS) -> Dts:
    """Breadth-first closure over taxonomy references, to any depth.

    Deterministic for deterministic resolvers: each URI is fetched at most
    once per resolver, documents appear in discovery order, and unresolved
    entries keep the order of the referencing edge. At most
    ``max_documents`` documents are loaded; when more are reachable the
    partial result is returned with ``limit_exceeded`` set; a negative
    limit raises ValueError. ``concepts`` keeps the first declaration of
    each QName in discovery order.

    The resolver keeps one load per URI for its lifetime (see the module
    docstring), so a warm call fetches nothing and resolves only the entry
    references; ``resolve`` must be a pure function of its arguments and
    the taxonomy must not change meanwhile. The resolver must be hashable
    and weakly referenceable, as instances of any plain class are. Each
    call returns its own ``documents`` and ``concepts``.
    """
    if max_documents < 0:
        raise ValueError(f"max_documents must be 0 or more, not {max_documents}")
    loaded = _LOADED.setdefault(resolver, {})
    queue = [resolver.resolve(base_uri, ref.href)
             for ref in (*instance.schema_refs, *instance.linkbase_refs)]
    seen: set[str] = set()
    documents: dict[str, DtsDocument] = {}
    concepts: dict[QName, Concept] = {}
    declared = 0  # declarations merged, repeats included
    findings: list[Finding] = []
    unresolved: list[tuple[str, str]] = []
    limit_exceeded = False

    for uri in queue:  # the queue grows while it is walked
        if uri in seen:
            continue
        seen.add(uri)
        if len(documents) >= max_documents:
            unresolved.append((uri, f"document limit {max_documents} reached"))
            limit_exceeded = True
            continue
        outcome = loaded.get(uri)
        if outcome is None:
            outcome = loaded[uri] = _load(resolver, uri)
        if isinstance(outcome, str):
            unresolved.append((uri, outcome))
            continue
        documents[uri] = outcome.document
        concepts.update(outcome.own)
        declared += len(outcome.concepts)
        findings.extend(outcome.findings)
        queue.extend(outcome.targets)

    if declared > len(concepts):  # some QName is declared twice (DTS-003)
        concepts, findings = _first_declarations([loaded[uri] for uri in documents])
    return Dts(documents, concepts, tuple(unresolved), tuple(findings), limit_exceeded)


def _first_declarations(loads: list[_Loaded]) -> tuple[dict[QName, Concept], list[Finding]]:
    """Merge ``loads`` in order keeping each QName's first declaration; each
    repeat gets a DTS-003 right after its own document's findings."""
    concepts: dict[QName, Concept] = {}
    sources: dict[QName, str] = {}  # each QName -> the URI of its first declaration
    findings: list[Finding] = []
    for load in loads:
        findings.extend(load.findings)
        uri = load.document.uri
        for concept in load.concepts:
            qname = concept.qname
            if qname in sources:
                findings.append(Finding.of(
                    "DTS-003",
                    f"concept {qname.clark()} in {uri} duplicates the "
                    f"declaration in {sources[qname]}; first wins",
                    subject=qname.clark(),
                ))
            else:
                concepts[qname] = concept
                sources[qname] = uri
    return concepts, findings

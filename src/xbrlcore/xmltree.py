"""Namespace-aware XML tree with source positions.

Low-level tokenization is delegated to the stdlib expat parser; everything
above it (prefix resolution, QName identity, DTD rejection, tree building,
serialization) lives here so that no other module touches XML mechanics.

Trees are immutable after construction and safe to share between threads.
Equality of elements is structural: source positions and the prefix
bindings seen in the source never participate, so two documents that
differ only in prefix choice compare equal.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Union

from .errors import XbrlError

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"

_INITIAL_SCOPE: dict[str, str] = {"xml": XML_NAMESPACE}


class XmlReadError(XbrlError):
    """A document could not be turned into an element tree."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class MalformedXml(XmlReadError):
    """Input is not well-formed XML.

    ``subcode`` distinguishes rejection classes beyond plain
    well-formedness, e.g. ``"doctype"`` for documents carrying a DTD and
    ``"duplicate-attribute"`` for namespace-level attribute collisions.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0, subcode: str = ""):
        super().__init__(message, line, column)
        self.subcode = subcode


class UnboundPrefix(XmlReadError):
    """A namespace prefix was used without an in-scope declaration."""


class UnsupportedEncoding(XmlReadError):
    """The document declares an encoding the reader cannot decode."""


class SourceLocation(NamedTuple):
    """Line/column position in the source bytes (1-based line, 0-based column).

    A tuple: it orders by (line, column) and equals the plain tuple.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class QName(NamedTuple):
    """Expanded name: namespace URI (possibly empty) plus local name.

    Identity is the (namespace_uri, local_name) pair; the prefix used in
    any particular document is never part of it. A QName is that tuple, so
    it hashes and compares like ``(namespace_uri, local_name)``.
    """

    namespace_uri: str
    local_name: str

    def clark(self) -> str:
        """Canonical text form: ``{uri}local``, or bare local when unqualified."""
        if self.namespace_uri:
            return "{%s}%s" % (self.namespace_uri, self.local_name)
        return self.local_name

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            return cls(uri, local)
        return cls("", text)

    def __str__(self) -> str:
        return self.clark()


XmlNode = Union["XmlElement", str]


@dataclass(frozen=True, slots=True)
class XmlElement:
    """One element: name, attributes, ordered children (elements and text).

    ``prefix_bindings`` is the in-scope prefix-to-URI map at this element,
    kept so that QName-valued content (unit measures, schema attributes)
    can be resolved later. It is excluded from equality, as is the source
    position.
    """

    name: QName
    attributes: Mapping[QName, str] = field(default_factory=dict)
    children: tuple[XmlNode, ...] = ()
    source_location: SourceLocation = field(default=SourceLocation(), compare=False)
    prefix_bindings: Mapping[str, str] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __eq__(self, other: object) -> bool:
        # Explicit stack, so depth is bounded by memory and not by the
        # recursion limit. The dataclass still generates __hash__.
        if not isinstance(other, XmlElement):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.name != b.name or a.attributes != b.attributes
                    or len(a.children) != len(b.children)):
                return False
            for x, y in zip(a.children, b.children):
                if isinstance(x, str) or isinstance(y, str):
                    if x != y:
                        return False
                else:
                    stack.append((x, y))
        return True

    def child_elements(self) -> list["XmlElement"]:
        return [c for c in self.children if isinstance(c, XmlElement)]

    def first_child(self, name: QName) -> "XmlElement | None":
        for c in self.children:
            if isinstance(c, XmlElement) and c.name == name:
                return c
        return None

    def text_content(self) -> str:
        """Concatenated text of direct text children (element children skipped)."""
        return "".join([c for c in self.children if isinstance(c, str)])

    def iter_elements(self) -> Iterator["XmlElement"]:
        """Pre-order walk over this element and all element descendants."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.child_elements()))

    def resolve_qname_text(self, text: str) -> QName:
        """Resolve QName-valued content such as ``iso4217:USD``.

        Unprefixed names take the in-scope default namespace when one is
        declared, per the XML Schema QName rules.
        """
        text = text.strip()
        if ":" in text:
            prefix, _, local = text.partition(":")
            if not prefix or not local or ":" in local:
                raise MalformedXml(
                    f"invalid QName value {text!r}",
                    self.source_location.line,
                    self.source_location.column,
                )
            uri = self.prefix_bindings.get(prefix)
            if uri is None:
                raise UnboundPrefix(
                    f"prefix {prefix!r} in value {text!r} is not declared",
                    self.source_location.line,
                    self.source_location.column,
                )
            return QName(uri, local)
        if not text:
            raise MalformedXml(
                "empty QName value",
                self.source_location.line,
                self.source_location.column,
            )
        return QName(self.prefix_bindings.get("", ""), text)


# (prefix bindings, element raw name -> QName, attribute raw name -> QName)
_Scope = tuple[dict[str, str], dict[str, QName], dict[str, QName]]


class _TreeBuilder:
    """Assembles XmlElements from expat events, resolving prefixes itself.

    Each namespace scope is a tuple (bindings, element names, attribute
    names): the prefix-to-URI map plus two raw-name -> QName caches, so a
    name is resolved once per scope and every element carrying it shares
    one QName object. An element opens a new scope only when it declares
    ``xmlns``/``xmlns:*``; otherwise it shares its parent's. Names whose
    prefix is unbound are never cached, so they raise again wherever used.
    """

    def __init__(self) -> None:
        self.parser = xml.parsers.expat.ParserCreate(namespace_separator=None)
        self.parser.ordered_attributes = True
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self._chardata
        self.parser.StartDoctypeDeclHandler = self._doctype
        # stack entries: [qname, attrs, children, location, bindings]
        self.stack: list[list] = []
        self.scopes: list[_Scope] = [(_INITIAL_SCOPE, {}, {})]
        self.text: list[str] = []
        self.root: XmlElement | None = None

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber)

    def _doctype(self, *args) -> None:
        loc = self._loc()
        raise MalformedXml(
            "document type declarations are not accepted", loc.line, loc.column,
            subcode="doctype",
        )

    @staticmethod
    def _resolve(raw: str, bindings: Mapping[str, str], loc: SourceLocation,
                 is_attribute: bool) -> QName:
        if ":" in raw:
            prefix, _, local = raw.partition(":")
            if not prefix or not local or ":" in local:
                raise MalformedXml(f"invalid name {raw!r}", loc.line, loc.column)
            uri = bindings.get(prefix)
            if uri is None:
                raise UnboundPrefix(
                    f"prefix {prefix!r} is not declared", loc.line, loc.column
                )
            return QName(uri, local)
        if is_attribute:
            return QName("", raw)
        return QName(bindings.get("", ""), raw)

    @staticmethod
    def _declare(attr_list: list[str], scope: _Scope) -> _Scope:
        """The scope of an element: its parent's, or a new one if it declares."""
        bindings: dict[str, str] | None = None
        it = iter(attr_list)
        for k, v in zip(it, it):
            if k == "xmlns" or k.startswith("xmlns:"):
                if bindings is None:
                    bindings = dict(scope[0])
                if v:
                    bindings[k[6:]] = v
                else:
                    bindings.pop(k[6:], None)
        return scope if bindings is None else (bindings, {}, {})

    def _attributes(self, attr_list: list[str], scope: _Scope,
                    loc: SourceLocation) -> dict[QName, str]:
        bindings, _, names = scope
        attrs: dict[QName, str] = {}
        it = iter(attr_list)
        for k, v in zip(it, it):
            if k == "xmlns" or k.startswith("xmlns:"):
                continue
            aq = names.get(k)
            if aq is None:
                aq = names[k] = self._resolve(k, bindings, loc, is_attribute=True)
            if aq in attrs:
                raise MalformedXml(
                    f"duplicate attribute {aq.clark()}", loc.line, loc.column,
                    subcode="duplicate-attribute",
                )
            attrs[aq] = v
        return attrs

    def _start(self, raw_name: str, attr_list: list[str]) -> None:
        if self.text:
            self._flush_text()
        parser = self.parser
        loc = SourceLocation(parser.CurrentLineNumber, parser.CurrentColumnNumber)
        scope = self.scopes[-1]
        attrs: dict[QName, str] | None = {}
        if attr_list:
            # One pass through the scope's attribute cache. A miss (a name
            # first seen in this scope, or a namespace declaration, which is
            # never cached) or a collision falls back to the full resolution.
            names = scope[2]
            it = iter(attr_list)
            for k, v in zip(it, it):
                aq = names.get(k)
                if aq is None:
                    attrs = None
                    break
                attrs[aq] = v
            if attrs is None or 2 * len(attrs) != len(attr_list):
                attrs = None
                scope = self._declare(attr_list, scope)
        self.scopes.append(scope)
        bindings, element_names, _ = scope
        qname = element_names.get(raw_name)
        if qname is None:
            qname = element_names[raw_name] = self._resolve(
                raw_name, bindings, loc, is_attribute=False
            )
        if attrs is None:
            attrs = self._attributes(attr_list, scope, loc)
        self.stack.append([qname, attrs, [], loc, bindings])

    def _end(self, raw_name: str) -> None:
        if self.text:
            self._flush_text()
        qname, attrs, children, loc, bindings = self.stack.pop()
        self.scopes.pop()
        element = XmlElement(qname, attrs, tuple(children), loc, bindings)
        if self.stack:
            self.stack[-1][2].append(element)
        else:
            self.root = element

    def _chardata(self, data: str) -> None:
        if self.stack:
            self.text.append(data)

    def _flush_text(self) -> None:
        self.stack[-1][2].append("".join(self.text))
        self.text.clear()


_ENCODING_ERROR_CODES = {
    xml.parsers.expat.errors.codes[xml.parsers.expat.errors.XML_ERROR_UNKNOWN_ENCODING],
    xml.parsers.expat.errors.codes[xml.parsers.expat.errors.XML_ERROR_INCORRECT_ENCODING],
}


def read_document(data: bytes) -> XmlElement:
    """Read XML bytes into the root element, with all prefixes resolved to URIs.

    Pure function of its input: identical bytes yield structurally equal
    trees. Raises MalformedXml (with subcode "doctype" for DTDs),
    UnboundPrefix, or UnsupportedEncoding.
    """
    builder = _TreeBuilder()
    try:
        builder.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        message = xml.parsers.expat.ErrorString(exc.code)
        if exc.code in _ENCODING_ERROR_CODES:
            raise UnsupportedEncoding(message, exc.lineno, exc.offset) from None
        raise MalformedXml(message, exc.lineno, exc.offset) from None
    except LookupError as exc:
        # pyexpat consults Python codecs for declared encodings it does not
        # handle natively and surfaces misses as LookupError.
        raise UnsupportedEncoding(str(exc), 1, 0) from None
    if builder.root is None:
        raise MalformedXml("no element found", 1, 0)
    return builder.root


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#9;",
}


def _escape(value: str, table: dict[str, str]) -> str:
    for raw, repl in table.items():
        if raw in value:
            value = value.replace(raw, repl)
    return value


def _collect_namespaces(root: XmlElement) -> list[str]:
    seen: list[str] = []
    for element in root.iter_elements():
        for qn in (element.name, *element.attributes):
            uri = qn.namespace_uri
            if uri and uri != XML_NAMESPACE and uri not in seen:
                seen.append(uri)
    return seen


def serialize_element(root: XmlElement, prefix_hints: Mapping[str, str] | None = None) -> bytes:
    """Serialize an element tree to UTF-8 bytes.

    All namespace declarations are emitted on the root and every qualified
    name is prefixed (no default namespace), so unqualified names stay
    unambiguous. Re-reading the output yields a structurally equal tree.
    """
    hints = dict(prefix_hints or {})
    prefixes: dict[str, str] = {XML_NAMESPACE: "xml"}
    used: set[str] = {"xml", ""}
    counter = 0
    for uri in _collect_namespaces(root):
        hint = hints.get(uri)
        if hint and hint not in used:
            prefixes[uri] = hint
        else:
            counter += 1
            while f"ns{counter}" in used:
                counter += 1
            prefixes[uri] = f"ns{counter}"
        used.add(prefixes[uri])

    def tag(qn: QName) -> str:
        if qn.namespace_uri:
            return f"{prefixes[qn.namespace_uri]}:{qn.local_name}"
        return qn.local_name

    declarations = "".join(
        f' xmlns:{prefix}="{_escape(uri, _ATTR_ESCAPES)}"'
        for uri, prefix in prefixes.items() if uri != XML_NAMESPACE
    )
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    # Explicit stack, so depth is bounded by memory and not by the
    # recursion limit. Strings on it are ready-to-write output (escaped
    # text and end tags); elements still have to be opened.
    stack: list[XmlNode] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        name = tag(node.name)
        out.append(f"<{name}")
        if node is root:
            out.append(declarations)
        for aq, value in node.attributes.items():
            out.append(f' {tag(aq)}="{_escape(value, _ATTR_ESCAPES)}"')
        if not node.children:
            out.append("/>")
            continue
        out.append(">")
        stack.append(f"</{name}>")
        for child in reversed(node.children):
            stack.append(_escape(child, _TEXT_ESCAPES) if isinstance(child, str) else child)
    return "".join(out).encode("utf-8")

"""Namespace-aware XML tree with source positions.

The stdlib expat parser, in namespace mode, tokenizes, resolves every
prefix and enforces the Namespaces in XML 1.0 constraints. This module
turns its events into QName-keyed trees, rejects DTDs, maps expat's errors
to the exceptions below and serializes trees back, so that no other module
touches XML mechanics.

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

# The characters XML 1.0 counts as whitespace (production S); str.strip()
# with no argument would also remove others, such as U+00A0 and U+3000.
XML_WHITESPACE = " \t\r\n"

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
    well-formedness: ``"doctype"`` for documents carrying a DTD and
    ``"duplicate-attribute"`` for an attribute given twice, by the same
    name or by two prefixes bound to one namespace.
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
        text = text.strip(XML_WHITESPACE)
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


# Separator between namespace name and local name in expat's expanded
# names. U+0001 cannot occur in an XML 1.0 document, so unlike a space it
# can never be part of a namespace name (expat rejects a declaration whose
# namespace name contains the separator).
_NS_SEPARATOR = "\x01"


class _Names(dict):
    """Expat's expanded name -> QName, one object per distinct name."""

    def __missing__(self, expanded: str) -> QName:
        uri, _, local = expanded.rpartition(_NS_SEPARATOR)
        qname = self[expanded] = QName(uri, local)
        return qname


class _TreeBuilder:
    """Assembles XmlElements from the events of a namespace-aware expat parser.

    Expat resolves every element and attribute name and enforces the
    Namespaces in XML constraints; ``names`` turns its expanded names into
    QNames, so every element carrying a name shares one object. Prefix
    bindings are tracked only for ``XmlElement.prefix_bindings``: an element
    that declares a namespace gets a copy of its parent's bindings with the
    declarations applied, any other element shares its parent's mapping.
    """

    def __init__(self) -> None:
        parser = self.parser = xml.parsers.expat.ParserCreate(namespace_separator=_NS_SEPARATOR)
        parser.ordered_attributes = True
        parser.buffer_text = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.StartDoctypeDeclHandler = self._doctype
        parser.StartNamespaceDeclHandler = self._declare
        # Expat reports no character data outside the root element.
        self.text: list[str] = []
        parser.CharacterDataHandler = self.text.append
        self.names = _Names()
        # [qname, attrs, children, location, bindings] per open element; the
        # bottom entry holds the initial bindings and collects the root.
        self.stack: list[list] = [[None, None, [], None, _INITIAL_SCOPE]]
        # bindings of the element about to start, if it declares any
        self.declared: dict[str, str] | None = None

    def _doctype(self, *args) -> None:
        parser = self.parser
        raise MalformedXml(
            "document type declarations are not accepted",
            parser.CurrentLineNumber, parser.CurrentColumnNumber, subcode="doctype",
        )

    def _declare(self, prefix: str | None, uri: str | None) -> None:
        if self.declared is None:
            self.declared = dict(self.stack[-1][4])
        if uri:
            self.declared[prefix or ""] = uri
        else:  # xmlns="": expat rejects undeclaring a prefix
            self.declared.pop("", None)

    def _start(self, name: str, attr_list: list[str]) -> None:
        if self.text:
            self._flush_text()
        parser = self.parser
        loc = SourceLocation(parser.CurrentLineNumber, parser.CurrentColumnNumber)
        bindings = self.declared
        if bindings is None:
            bindings = self.stack[-1][4]
        else:
            self.declared = None
        names = self.names
        it = iter(attr_list)
        attrs = {names[k]: v for k, v in zip(it, it)}
        self.stack.append([names[name], attrs, [], loc, bindings])

    def _end(self, name: str) -> None:
        if self.text:
            self._flush_text()
        qname, attrs, children, loc, bindings = self.stack.pop()
        self.stack[-1][2].append(XmlElement(qname, attrs, tuple(children), loc, bindings))

    def _flush_text(self) -> None:
        self.stack[-1][2].append("".join(self.text))
        self.text.clear()


_codes = xml.parsers.expat.errors.codes
_ENCODING_ERROR_CODES = {
    _codes[xml.parsers.expat.errors.XML_ERROR_UNKNOWN_ENCODING],
    _codes[xml.parsers.expat.errors.XML_ERROR_INCORRECT_ENCODING],
}
_UNBOUND_PREFIX = _codes[xml.parsers.expat.errors.XML_ERROR_UNBOUND_PREFIX]
_DUPLICATE_ATTRIBUTE = _codes[xml.parsers.expat.errors.XML_ERROR_DUPLICATE_ATTRIBUTE]


def read_document(data: bytes) -> XmlElement:
    """Read XML bytes into the root element, with all prefixes resolved to URIs.

    Pure function of its input: identical bytes yield structurally equal
    trees. Raises MalformedXml (see its subcodes), UnboundPrefix, or
    UnsupportedEncoding.
    """
    builder = _TreeBuilder()
    try:
        builder.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        message = xml.parsers.expat.ErrorString(exc.code)
        if exc.code in _ENCODING_ERROR_CODES:
            raise UnsupportedEncoding(message, exc.lineno, exc.offset) from None
        if exc.code == _UNBOUND_PREFIX:
            raise UnboundPrefix(message, exc.lineno, exc.offset) from None
        subcode = "duplicate-attribute" if exc.code == _DUPLICATE_ATTRIBUTE else ""
        raise MalformedXml(message, exc.lineno, exc.offset, subcode=subcode) from None
    except LookupError as exc:
        # pyexpat consults Python codecs for declared encodings it does not
        # handle natively and surfaces misses as LookupError.
        raise UnsupportedEncoding(str(exc), 1, 0) from None
    finally:
        # The parser's handlers are bound methods of the builder: dropping
        # the builder's hold on the parser breaks that cycle on every path,
        # so reference counting frees both, and the tree, without waiting
        # for the cyclic collector.
        del builder.parser
    return builder.stack[0][2][0]


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


def serialize_element(root: XmlElement, prefix_hints: Mapping[str, str] | None = None) -> bytes:
    """Serialize an element tree to UTF-8 bytes.

    All namespace declarations are emitted on the root and every qualified
    name is prefixed (no default namespace), so unqualified names stay
    unambiguous. Re-reading the output yields a structurally equal tree.
    """
    hints = prefix_hints or {}
    prefixes: dict[str, str] = {XML_NAMESPACE: "xml"}
    used: set[str] = {"xml", ""}
    counter = 0

    def tag(qn: QName) -> str:
        # A namespace gets its prefix the first time the walk meets it.
        nonlocal counter
        uri = qn.namespace_uri
        if not uri:
            return qn.local_name
        prefix = prefixes.get(uri)
        if prefix is None:
            prefix = hints.get(uri)
            if not prefix or prefix in used:
                counter += 1
                while f"ns{counter}" in used:
                    counter += 1
                prefix = f"ns{counter}"
            prefixes[uri] = prefix
            used.add(prefix)
        return f"{prefix}:{qn.local_name}"

    # out[2] holds the root's namespace declarations, known after the walk.
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
            out.append("")
        for aq, value in node.attributes.items():
            out.append(f' {tag(aq)}="{_escape(value, _ATTR_ESCAPES)}"')
        if not node.children:
            out.append("/>")
            continue
        out.append(">")
        stack.append(f"</{name}>")
        for child in reversed(node.children):
            stack.append(_escape(child, _TEXT_ESCAPES) if isinstance(child, str) else child)
    out[2] = "".join(
        f' xmlns:{prefix}="{_escape(uri, _ATTR_ESCAPES)}"'
        for uri, prefix in prefixes.items() if uri != XML_NAMESPACE
    )
    return "".join(out).encode("utf-8")

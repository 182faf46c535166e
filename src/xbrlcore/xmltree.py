"""Namespace-aware XML tree with source positions.

The stdlib expat parser, in namespace mode, tokenizes, resolves every
prefix and enforces the Namespaces in XML 1.0 constraints. This module
turns its events into QName-keyed trees, rejects DTDs, maps expat's errors
to the exceptions below and, through ``XmlWriter``, writes XML back, so
that prefix choice, escaping and character checks live nowhere else.

Trees are immutable after construction and safe to share between threads.
Equality of elements is structural: source positions and the prefix
bindings seen in the source never participate, so two documents that
differ only in prefix choice compare equal.

``XmlElement``, like every frozen value class of the package, is a final
slots record declared through ``_record``: its fields are written once, in
the class body, and its constructor sets them with plain slot stores.
``_record`` never runs ``dataclasses.dataclass()``, so importing the
package loads neither ``dataclasses`` nor the modules it imports; the
``dataclasses`` functions still work on every record. The tree builder
gives an element without children the empty tuple. The tree builder, the
instance builders in ``parser`` and ``iso8601.parse_point`` build each
per-element, per-fact and per-context record by calling its compiled
constructor, never its class: ``XmlElement.__new__``, bound once, is called
as ``_new_element(XmlElement, ...)`` (``_record`` says why).

The calls that allocate in proportion to the document run with Python's
cyclic garbage collector paused (``_without_cyclic_gc``): ``read_document``,
``parser.parse_instance``, ``parser.find_instances``,
``parser.read_instances``, ``dts.discover`` with every taxonomy load,
``facttable.fact_rows`` and the whole command in ``cli.main``. Trees,
instances, taxonomy loads and rows hold no reference cycles, so
reference counting frees every one of them, and a collection while they
are built can only rescan live objects. The suite checks that a pipeline
pass over every fixture and over generated documents, in both modes and
on the failure paths, leaves nothing for the collector.

The five of these calls that run no code of the caller's,
``read_document``, ``parse_instance``, ``find_instances``,
``read_instances`` and ``fact_rows`` (``_handed_off``), also hand all they
built to the oldest generation when they return (``gc.freeze()`` then
``gc.unfreeze()``), so no young collection rescans a tree, an instance or
a row list that reference counting will free anyway. Three guards keep
that safe for a library: the collector is enabled; no other thread
started through ``threading`` or ``_thread`` is running, since a freeze
takes every thread's young objects; and nothing is frozen, since the
unfreeze would thaw what the caller froze. CPython 3.12 keeps immortal
objects in the permanent generation, so there these calls mostly only
pause. Before pausing, such a call collects generation 1, so the caller's
young cyclic garbage is collected, not handed off, and what of the
caller's is still alive is promoted to the oldest generation, as that
collection promotes it. A call that raises hands nothing off. ``discover``
runs the caller's resolver and ``cli.main`` ends the process, so they only
pause. One side effect: what a call hands off does not count toward
CPython's trigger for a full collection, so the caller's own garbage in
the oldest generation may wait longer for one. That includes a caller's
object that was alive when a call started and is later dropped in a cycle.

The collector is process-wide, so threads share the pause: a thread that
calls ``gc.disable()`` while another is inside a paused call has the
collector enabled again when that call returns, and of two paused calls
that overlap, the one still running loses its pause when the other
returns. Only the pause is ever lost, never a result.
"""

from __future__ import annotations

import _thread
import functools
import gc
import re
import reprlib
import xml.parsers.expat
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import SourceLocation, XbrlError

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"

# The characters XML 1.0 counts as whitespace (production S); str.strip()
# with no argument would also remove others, such as U+00A0 and U+3000.
XML_WHITESPACE = " \t\r\n"

_INITIAL_SCOPE: dict[str, str] = {"xml": XML_NAMESPACE}


class XmlReadError(XbrlError):
    """A document could not be turned into an element tree."""


class MalformedXml(XmlReadError):
    """Input is not well-formed XML.

    ``subcode`` distinguishes rejection classes beyond plain
    well-formedness: ``"doctype"`` for documents carrying a DTD and
    ``"duplicate-attribute"`` for an attribute given twice, by the same
    name or by two prefixes bound to one namespace.
    """

    def __init__(self, message: str, location: SourceLocation = SourceLocation(),
                 subcode: str = ""):
        super().__init__(message, location)
        self.subcode = subcode


class UnboundPrefix(XmlReadError):
    """A namespace prefix was used without an in-scope declaration."""


class UnsupportedEncoding(XmlReadError):
    """The document declares an encoding the reader cannot decode."""


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

    def __str__(self) -> str:
        return self.clark()


XmlNode = Union["XmlElement", str]


def _without_cyclic_gc(function, *, hand_off: bool = False):
    """Run ``function`` with the cyclic collector paused, if it was enabled.

    The collector is enabled again however the call ends, and only if this
    wrapper disabled it, so paused calls nest and a caller's own
    ``gc.disable()`` stands. Only for calls whose results hold no
    reference cycles (see the module docstring).

    With ``hand_off``, only for calls that run no code of the caller's: if
    no other thread is running and nothing is frozen, the call first
    collects generation 1, then pauses, and on a normal return hands all
    that is tracked to the oldest generation, which leaves the young
    generation empty. A call that raises hands nothing off.
    """
    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        handing_off = hand_off and not _thread._count() and _nothing_frozen()
        if handing_off:
            gc.collect(1)
        gc.disable()
        try:
            result = function(*args, **kwargs)
            if handing_off:
                gc.freeze()
                gc.unfreeze()
            return result
        finally:
            gc.enable()
    return paused


# Calls left in which _nothing_frozen answers no without reading the count;
# only a thread that runs alone reads or writes it.
_frozen_recheck = 0


def _nothing_frozen() -> bool:
    """Whether ``gc.get_freeze_count()`` is 0, or no without reading it.

    Reading the count walks every frozen object, about 10 ns each, so after
    reading n it answers no for the next n // 1024 calls: a program that
    keeps a heap frozen pays about 10 µs a call for the check, not 10 ms for
    each million objects frozen, and one that thaws it may see that many
    calls only pause.
    """
    global _frozen_recheck
    if _frozen_recheck:
        _frozen_recheck -= 1
        return False
    frozen = gc.get_freeze_count()
    _frozen_recheck = frozen >> 10
    return not frozen


def _handed_off(function):
    """``_without_cyclic_gc`` with ``hand_off``: pause, then hand off."""
    return _without_cyclic_gc(function, hand_off=True)


class _field(dict):
    """A record field's ``dataclasses.field`` options, as written in the class
    body: ``default``, ``default_factory``, ``compare`` and ``repr``."""


def _reduce(record):
    return record.__class__, tuple([getattr(record, name) for name in record.__match_args__])


def _replace(record, /, **changes):
    return record.__class__(**{**{n: getattr(record, n) for n in record.__match_args__},
                               **changes})


def _setattr(record, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(record, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _final(cls, **kwargs):
    raise TypeError(f"{cls.__base__.__name__} is a final record and cannot be subclassed")


def _compared_methods(qualname: str, compared: tuple[str, ...], shown: tuple[str, ...]) -> dict:
    """``__eq__``, ``__hash__`` and ``__repr__`` as ``dataclass(frozen=True)``
    writes them, over the ``compared`` and the ``shown`` fields."""
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, n) for n in compared] == [getattr(other, n) for n in compared]

    def __hash__(self):
        return hash(tuple([getattr(self, n) for n in compared]))

    def __repr__(self):
        shown_fields = ", ".join([f"{n}={getattr(self, n)!r}" for n in shown])
        return f"{self.__class__.__qualname__}({shown_fields})"

    for method in (__eq__, __hash__, __repr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
    return {"__eq__": __eq__, "__hash__": __hash__,
            "__repr__": reprlib.recursive_repr()(__repr__)}


class _DataclassFields:
    """A record's ``__dataclass_fields__``, built on first access, so that the
    ``dataclasses`` functions work on records and only their callers import
    ``dataclasses``: the fields of a dataclass declared with the record's
    annotations and field options. The built mapping then replaces this."""

    def __init__(self, options: dict[str, _field]):
        self.options = options

    def __get__(self, record, cls):
        import dataclasses
        namespace = {name: dataclasses.field(**options) for name, options in self.options.items()}
        namespace.update(__annotations__=cls.__annotations__, __module__=cls.__module__,
                         __doc__=cls.__doc__)
        shadow = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
        fields = {f.name: f for f in dataclasses.fields(shadow)}
        setattr(cls, "__dataclass_fields__", fields)
        return fields


def _record(cls: type) -> type:
    """Declare a final frozen slots record: a class that behaves as
    ``dataclass(frozen=True, slots=True)`` would make it, built without ``dataclass()``.

    The class body declares each field with an annotation and an optional
    default; ``_field`` takes ``dataclasses.field``'s options. The slots live
    on a private base without a ``__setattr__``, and the public class adds
    ``__slots__ = ()``. Only ``__new__`` is compiled: it takes the dataclass
    ``__init__``'s parameters (a ``default_factory`` field defaults to None,
    then gets a fresh value), allocates an object of the base by calling it,
    ``_base()``, stores each field into that object and hands it to the public
    class through ``__class__``, so a record costs a plain slot store per
    field. ``_base()`` runs ``type.__call__`` and ``object_new`` in C, where
    ``object.__new__(_base)`` would first go through the argument checks of
    the wrapper that exposes ``object``'s allocator as ``__new__``.

    A class call, ``Item(...)``, goes through ``type.__call__`` and then
    ``slot_tp_new``, which looks ``__new__`` up, builds a new argument tuple
    with the class in front and runs the function in a new C-level
    interpreter loop; that round trip costs about as much as the
    constructor itself. The readers, which build tens of thousands of
    records a document, therefore bind ``Cls.__new__`` once at module level
    and call it as ``_new_item(Item, ...)``: a plain Python call, which the
    running interpreter loop executes inline. A caller who writes
    ``Item(...)`` gets the same record, and of this only the ``_base()``
    allocation.

    The rest is shared or made per class without compiling: ``__eq__``,
    ``__hash__`` and ``__repr__`` over the compared and the shown fields (a
    class's own ``__eq__`` stays), ``__match_args__``, ``__reduce__`` for
    pickle and copy, ``__replace__`` for ``copy.replace``,
    ``FrozenInstanceError`` on assigning or deleting a field and TypeError
    on subclassing. ``__dataclass_fields__`` builds itself on first use, so
    ``dataclasses.fields``, ``replace``, ``asdict``, ``astuple`` and
    ``is_dataclass`` work on records and only their callers import
    ``dataclasses``.
    """
    body_namespace = vars(cls)
    declared = body_namespace.get("__annotations__", {})
    names = tuple(declared)
    base = type(f"_{cls.__name__}Slots", (), {"__slots__": names, "__module__": cls.__module__})
    namespace: dict = {"__name__": cls.__module__, "_base": base}
    params, body, annotations = [], [], {"return": None}
    options: dict[str, _field] = {}
    for i, (name, annotation) in enumerate(declared.items()):
        field = body_namespace.get(name, _field())
        if not isinstance(field, _field):
            field = _field(default=field)
        options[name] = field
        param, stored = name, name
        if "default_factory" in field:
            namespace[f"_new{i}"] = field["default_factory"]
            param, stored = f"{name}=None", f"_new{i}() if {name} is None else {name}"
            annotation = f"{annotation} | None"
        elif "default" in field:
            namespace[f"_default{i}"] = field["default"]
            param = f"{name}=_default{i}"
        params.append(param)
        body.append(f"\n    self.{name} = {stored}")
        annotations[name] = annotation
    members = {k: v for k, v in body_namespace.items()
               if k not in {*names, "__dict__", "__weakref__"}}
    exec(f"def __new__(cls, {', '.join(params)}):\n    self = _base(){''.join(body)}\n"
         "    self.__class__ = cls\n    return self", namespace, members)
    members["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
    members["__new__"].__annotations__ = annotations
    methods = _compared_methods(
        cls.__qualname__, tuple(n for n in names if options[n].get("compare", True)),
        tuple(n for n in names if options[n].get("repr", True)))
    members = {**methods, **members}  # a class's own __eq__ or __repr__ stays
    if members["__hash__"] is None:  # as Python sets it for a class that defines __eq__
        members["__hash__"] = methods["__hash__"]
    members.update(__slots__=(), __qualname__=cls.__qualname__, __match_args__=names,
                   __reduce__=_reduce, __replace__=_replace, __setattr__=_setattr,
                   __delattr__=_delattr, __init_subclass__=_final,
                   __dataclass_fields__=_DataclassFields(options))
    return type(cls.__name__, (base,), members)


@_record
class XmlElement:
    """One element: name, attributes, ordered children (elements and text).

    ``prefix_bindings`` is the in-scope prefix-to-URI map at this element,
    kept so that QName-valued content (unit measures, schema attributes)
    can be resolved later. It is excluded from equality, as is the source
    position. An omitted ``attributes`` or ``prefix_bindings`` is a fresh
    empty dict.
    """

    name: QName
    attributes: Mapping[QName, str] = _field(default_factory=dict)
    children: tuple[XmlNode, ...] = ()
    source_location: SourceLocation = _field(default=SourceLocation(), compare=False)
    prefix_bindings: Mapping[str, str] = _field(default_factory=dict, compare=False, repr=False)

    def __eq__(self, other: object) -> bool:
        # Explicit stack, so depth is bounded by memory and not by the
        # recursion limit. The generated __hash__ hashes the attributes
        # dict, so hash() of an element raises TypeError.
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
                raise MalformedXml(f"invalid QName value {text!r}", self.source_location)
            uri = self.prefix_bindings.get(prefix)
            if uri is None:
                raise UnboundPrefix(f"prefix {prefix!r} in value {text!r} is not declared",
                                    self.source_location)
            return QName(uri, local)
        if not text:
            raise MalformedXml("empty QName value", self.source_location)
        return QName(self.prefix_bindings.get("", ""), text)


_tuple_new = tuple.__new__
_new_element = XmlElement.__new__


# Separator between namespace name and local name in expat's expanded
# names. U+0001 cannot occur in an XML 1.0 document, so unlike a space it
# can never be part of a namespace name (expat rejects a declaration whose
# namespace name contains the separator).
_NS_SEPARATOR = "\x01"


@functools.cache
def _known_names() -> dict[str, QName]:
    """Expat's expanded name -> QName, for every QName ``constants`` declares."""
    from . import constants
    return {_NS_SEPARATOR.join(qn).lstrip(_NS_SEPARATOR): qn
            for qn in vars(constants).values() if qn.__class__ is QName}


class _TreeBuilder:
    """Assembles XmlElements from the events of a namespace-aware expat parser.

    Expat resolves every element and attribute name, enforces the Namespaces in
    XML constraints and hands over what ``names``, its intern table, stores
    for each name: its QName, one object per name, so an attribute dict comes
    keyed by QName and is kept as it is. A name new to the read comes as a
    string and grows the table, and ``_start`` stores its QName; ``_declare``
    drops the prefixes and URIs expat interns in the same table.
    Prefix bindings are tracked only for ``XmlElement.prefix_bindings``: an
    element that declares a namespace gets a copy of its parent's bindings with
    the declarations applied, any other element shares its parent's mapping.
    Text collected since the last tag goes to the open element's children as
    one string; with ``buffer_text`` expat mostly delivers it in one piece.
    """

    def __init__(self) -> None:
        names = self.names = _known_names().copy()
        self.known = len(names)
        parser = self.parser = xml.parsers.expat.ParserCreate(
            namespace_separator=_NS_SEPARATOR, intern=names)
        parser.buffer_text = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.StartDoctypeDeclHandler = self._doctype
        parser.StartNamespaceDeclHandler = self._declare
        # Expat reports no character data outside the root element.
        self.text: list[str] = []
        parser.CharacterDataHandler = self.text.append
        # [qname, attributes, children, location, bindings] per open element;
        # the bottom entry holds the initial bindings and collects the root.
        self.stack: list[list] = [[None, None, [], None, _INITIAL_SCOPE]]
        # bindings of the element about to start, if it declares any
        self.declared: dict[str, str] | None = None

    def _doctype(self, *args) -> None:
        parser = self.parser
        raise MalformedXml(
            "document type declarations are not accepted",
            SourceLocation(parser.CurrentLineNumber, parser.CurrentColumnNumber),
            subcode="doctype",
        )

    def _declare(self, prefix: str | QName | None, uri: str | QName | None) -> None:
        names = self.names
        if len(names) != self.known:  # a prefix or URI new to the table: not a name
            names.pop(prefix, None)
            names.pop(uri, None)
        # One equal to an unqualified name in the table comes as its QName.
        prefix, uri = getattr(prefix, "local_name", prefix), getattr(uri, "local_name", uri)
        if self.declared is None:
            self.declared = dict(self.stack[-1][4])
        if uri:
            self.declared[prefix or ""] = uri
        else:  # xmlns="": expat rejects undeclaring a prefix
            self.declared.pop("", None)

    def _admit(self, name: str | QName, attributes: dict) -> tuple[QName, dict]:
        """Give each name that came as a string its QName, in the table and in the event."""
        names = self.names
        self.known = len(names)
        if name.__class__ is str:
            uri, _, local = name.rpartition(_NS_SEPARATOR)
            names[name] = name = _tuple_new(QName, (uri, local))  # stored, then bound
        for key in attributes:
            if key.__class__ is str:  # an attribute name new to the read
                for key in attributes:
                    if names.get(key).__class__ is str:
                        uri, _, local = key.rpartition(_NS_SEPARATOR)
                        names[key] = _tuple_new(QName, (uri, local))
                return name, {names.get(k, k): v for k, v in attributes.items()}
        return name, attributes

    def _start(self, name: str | QName, attributes: dict) -> None:
        if len(self.names) != self.known:
            name, attributes = self._admit(name, attributes)
        stack = self.stack
        parent = stack[-1]
        text = self.text
        if text:
            parent[2].append(text[0] if len(text) == 1 else "".join(text))
            text.clear()
        parser = self.parser
        loc = _tuple_new(SourceLocation, (parser.CurrentLineNumber, parser.CurrentColumnNumber))
        bindings = self.declared
        if bindings is None:
            bindings = parent[4]
        else:
            self.declared = None
        stack.append([name, attributes, [], loc, bindings])

    def _end(self, name: QName) -> None:
        stack = self.stack
        qname, attrs, children, loc, bindings = stack.pop()
        text = self.text
        if text:
            children.append(text[0] if len(text) == 1 else "".join(text))
            text.clear()
        stack[-1][2].append(_new_element(
            XmlElement, qname, attrs, tuple(children) if children else (), loc, bindings))


_codes = xml.parsers.expat.errors.codes
_ENCODING_ERROR_CODES = {
    _codes[xml.parsers.expat.errors.XML_ERROR_UNKNOWN_ENCODING],
    _codes[xml.parsers.expat.errors.XML_ERROR_INCORRECT_ENCODING],
}
_UNBOUND_PREFIX = _codes[xml.parsers.expat.errors.XML_ERROR_UNBOUND_PREFIX]
_DUPLICATE_ATTRIBUTE = _codes[xml.parsers.expat.errors.XML_ERROR_DUPLICATE_ATTRIBUTE]


def _read(builder: _TreeBuilder, data: bytes) -> None:
    """Feed all of ``data`` to ``builder``'s parser, mapping expat's errors to
    MalformedXml (see its subcodes), UnboundPrefix or UnsupportedEncoding."""
    try:
        builder.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        message = xml.parsers.expat.ErrorString(exc.code)
        location = SourceLocation(exc.lineno, exc.offset)
        if exc.code in _ENCODING_ERROR_CODES:
            raise UnsupportedEncoding(message, location) from None
        if exc.code == _UNBOUND_PREFIX:
            raise UnboundPrefix(message, location) from None
        subcode = "duplicate-attribute" if exc.code == _DUPLICATE_ATTRIBUTE else ""
        raise MalformedXml(message, location, subcode=subcode) from None
    except LookupError as exc:
        # pyexpat consults Python codecs for declared encodings it does not
        # handle natively and surfaces misses as LookupError.
        raise UnsupportedEncoding(str(exc), SourceLocation(1, 0)) from None
    finally:
        # The parser's handlers are bound methods of the builder: dropping
        # the builder's hold on the parser breaks that cycle on every path,
        # so reference counting frees both, and what they built, without
        # waiting for the cyclic collector.
        del builder.parser


@_handed_off
def read_document(data: bytes) -> XmlElement:
    """Read XML bytes into the root element, with all prefixes resolved to URIs.

    Pure function of its input: identical bytes yield structurally equal
    trees. Raises MalformedXml (see its subcodes), UnboundPrefix, or
    UnsupportedEncoding.
    """
    builder = _TreeBuilder()
    _read(builder, data)
    return builder.stack[0][2][0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#9;",
}

# The C0 controls XML 1.0 cannot carry: production Char allows only tab,
# LF and CR below U+0020. It also excludes the surrogates, which UTF-8
# cannot encode, and U+FFFE and U+FFFF.
_C0_NOT_CHAR = bytes(b for b in range(0x20) if b not in b"\t\n\r")
# Compiled only when a document fails the checks above: compiling it
# takes milliseconds, a cost every import would otherwise pay.
_NOT_CHAR = "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"


def _escape(value: str, table: dict[str, str]) -> str:
    for raw, repl in table.items():
        if raw in value:
            value = value.replace(raw, repl)
    return value


class _EscapedAttributes(dict):
    """Attribute value -> its escaped text, escaped once per writer."""

    def __missing__(self, value: str) -> str:
        # A value str.isalnum() accepts, such as most ids, holds nothing to escape.
        escaped = self[value] = value if value.isalnum() else _escape(value, _ATTR_ESCAPES)
        return escaped


class _PrefixedNames(dict):
    """QName -> its written name, ``prefix:local`` or a bare local name.

    A namespace gets its prefix the first time a name in it is written:
    its hinted prefix if that is still free, else the next free ``ns<N>``.
    ``prefixes`` keeps the namespaces in that order.
    """

    def __init__(self, hints: Mapping[str, str]):
        super().__init__()
        self.hints = hints
        self.prefixes: dict[str, str] = {XML_NAMESPACE: "xml"}
        self.counter = 0

    def __missing__(self, qn: QName) -> str:
        uri, local = qn
        if uri and uri not in self.prefixes:
            taken = self.prefixes.values()
            prefix = self.hints.get(uri)
            if not prefix or prefix in taken:
                self.counter += 1
                while f"ns{self.counter}" in taken:
                    self.counter += 1
                prefix = f"ns{self.counter}"
            self.prefixes[uri] = prefix
        name = self[qn] = f"{self.prefixes[uri]}:{local}" if uri else local
        return name


class XmlWriter:
    """Writes one XML document in a single pass, straight into a list of strings.

    All namespace declarations go on the root and every qualified name is
    prefixed (no default namespace), so unqualified names stay
    unambiguous. ``names`` gives each QName its written form, ``attr`` each
    attribute value its escaped form; callers may write ``out`` directly
    with them. The first element started is the root: its declarations are
    only known at the end, so ``finish`` fills the slot kept for them.
    """

    def __init__(self, prefix_hints: Mapping[str, str] | None = None):
        self.names = _PrefixedNames(prefix_hints or {})
        self.attr = _EscapedAttributes()
        self.out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
        self._declarations = 0  # index of the root's slot in out, once started

    @staticmethod
    def text(value: str) -> str:
        # Most text holds none of these: four tests cost less than the loop.
        if "&" in value or "<" in value or ">" in value or "\r" in value:
            return _escape(value, _TEXT_ESCAPES)
        return value

    def start(self, name: QName, attributes: Iterable[tuple[QName, str]] = ()) -> str:
        """Write ``<name`` and the (QName, value) attribute pairs; return the written name.

        The start tag is left open: the caller writes ``>`` or ``/>``.
        """
        tag = self.names[name]
        out = self.out
        out.append("<" + tag)
        if not self._declarations:
            self._declarations = len(out)
            out.append("")
        for aq, value in attributes:
            out.append(f' {self.names[aq]}="{self.attr[value]}"')
        return tag

    def element(self, root: XmlElement) -> None:
        """Write an element with its subtree."""
        out = self.out
        # Explicit stack, so depth is bounded by memory and not by the
        # recursion limit. Strings on it are ready-to-write output (escaped
        # text and end tags); elements still have to be opened.
        stack: list[XmlNode] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            tag = self.start(node.name, node.attributes.items())
            if not node.children:
                out.append("/>")
                continue
            out.append(">")
            stack.append(f"</{tag}>")
            for child in reversed(node.children):
                stack.append(self.text(child) if isinstance(child, str) else child)

    def finish(self) -> bytes:
        """Fill in the root's namespace declarations and return the UTF-8 bytes.

        Raises ValueError, naming the code point and its byte offset in the
        output, when the text holds a character outside the XML 1.0 Char
        production (a C0 control other than tab, LF and CR, a surrogate,
        U+FFFE or U+FFFF): no XML reader would accept the document.
        """
        out = self.out
        attr = self.attr
        out[self._declarations] = "".join(
            f' xmlns:{prefix}="{attr[uri]}"'
            for uri, prefix in self.names.prefixes.items() if uri != XML_NAMESPACE
        )
        text = "".join(out)
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError:  # a surrogate
            pass
        else:
            if (len(data.translate(None, _C0_NOT_CHAR)) == len(data)
                    and (text.isascii() or ("\ufffe" not in text and "\uffff" not in text))):
                return data
        bad = re.search(_NOT_CHAR, text)
        offset = len(text[:bad.start()].encode("utf-8"))
        raise ValueError(
            f"U+{ord(bad.group()):04X} at byte {offset} of the output is not"
            " a character XML 1.0 can carry"
        )


def serialize_element(root: XmlElement, prefix_hints: Mapping[str, str] | None = None) -> bytes:
    """Serialize an element tree to UTF-8 bytes (see ``XmlWriter``).

    Re-reading the output yields a structurally equal tree. Raises
    ValueError for text that holds a character XML 1.0 cannot carry.
    """
    writer = XmlWriter(prefix_hints)
    writer.element(root)
    return writer.finish()

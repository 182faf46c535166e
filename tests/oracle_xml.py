"""Independent minimal XML reader used as an oracle by the test suite.

Deliberately shares nothing with the library under test: a hand-rolled
recursive-descent scan over the decoded text, with its own namespace
resolution. Supports exactly what the fixtures and generated documents
need (UTF-8, comments, processing instructions, CDATA, the five
predefined entities, decimal/hex character references). Anything else
raises OracleError.
"""

from __future__ import annotations

import re

_NAME = re.compile(r"[^\s=/><]+")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
XML_NS = "http://www.w3.org/XML/1998/namespace"


class OracleError(Exception):
    pass


class Node:
    __slots__ = ("ns", "local", "attrs", "children")

    def __init__(self, ns, local, attrs, children):
        self.ns = ns
        self.local = local
        self.attrs = attrs          # {(ns, local): value}
        self.children = children    # [Node | str]

    @property
    def name(self):
        return (self.ns, self.local)

    def elements(self):
        """Pre-order walk including self."""
        yield self
        for child in self.children:
            if isinstance(child, Node):
                yield from child.elements()

    def text(self):
        return "".join(ch for ch in self.children if isinstance(ch, str))

    def attr(self, local, ns=""):
        return self.attrs.get((ns, local))


def _expand(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i)
        if end < 0:
            raise OracleError("unterminated entity reference")
        name = text[i + 1:end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise OracleError(f"unknown entity &{name};")
        i = end + 1
    return "".join(out)


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_misc(self):
        while True:
            rest = self.text[self.pos:]
            stripped = rest.lstrip()
            self.pos += len(rest) - len(stripped)
            if stripped.startswith("<?"):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise OracleError("unterminated processing instruction")
                self.pos = end + 2
            elif stripped.startswith("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise OracleError("unterminated comment")
                self.pos = end + 3
            elif stripped.startswith("<!"):
                raise OracleError("declarations are outside the oracle's scope")
            else:
                return

    def parse_document(self):
        self._skip_misc()
        root = self.parse_element([{"xml": XML_NS}])
        self._skip_misc()
        if self.pos != len(self.text):
            raise OracleError("content after the root element")
        return root

    def _parse_attrs(self):
        attrs = []
        while True:
            while self.pos < len(self.text) and self.text[self.pos].isspace():
                self.pos += 1
            ch = self.text[self.pos]
            if ch in (">", "/"):
                return attrs
            m = _NAME.match(self.text, self.pos)
            if not m:
                raise OracleError(f"bad attribute at {self.pos}")
            name = m.group(0)
            self.pos = m.end()
            while self.text[self.pos].isspace():
                self.pos += 1
            if self.text[self.pos] != "=":
                raise OracleError("attribute without value")
            self.pos += 1
            while self.text[self.pos].isspace():
                self.pos += 1
            quote = self.text[self.pos]
            if quote not in ("'", '"'):
                raise OracleError("unquoted attribute value")
            end = self.text.find(quote, self.pos + 1)
            if end < 0:
                raise OracleError("unterminated attribute value")
            attrs.append((name, _expand(self.text[self.pos + 1:end])))
            self.pos = end + 1

    def _resolve(self, raw, scope, is_attr):
        if ":" in raw:
            prefix, local = raw.split(":", 1)
            for frame in reversed(scope):
                if prefix in frame:
                    return frame[prefix], local
            raise OracleError(f"unbound prefix {prefix!r}")
        if is_attr:
            return "", raw
        for frame in reversed(scope):
            if "" in frame:
                return frame[""], raw
        return "", raw

    def parse_element(self, scope):
        if self.text[self.pos] != "<":
            raise OracleError(f"expected element at {self.pos}")
        self.pos += 1
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise OracleError("element without a name")
        raw_name = m.group(0)
        self.pos = m.end()
        raw_attrs = self._parse_attrs()

        frame = {}
        for name, value in raw_attrs:
            if name == "xmlns":
                frame[""] = value
            elif name.startswith("xmlns:"):
                frame[name[6:]] = value
        scope = scope + [frame]

        ns, local = self._resolve(raw_name, scope, is_attr=False)
        attrs = {}
        for name, value in raw_attrs:
            if name == "xmlns" or name.startswith("xmlns:"):
                continue
            attrs[self._resolve(name, scope, is_attr=True)] = value

        if self.text[self.pos] == "/":
            if self.text[self.pos + 1] != ">":
                raise OracleError("malformed empty-element tag")
            self.pos += 2
            return Node(ns, local, attrs, [])
        if self.text[self.pos] != ">":
            raise OracleError("malformed start tag")
        self.pos += 1

        children = []
        buffer = []

        def flush():
            if buffer:
                children.append(_expand("".join(buffer)))
                buffer.clear()

        while True:
            next_lt = self.text.find("<", self.pos)
            if next_lt < 0:
                raise OracleError(f"unclosed element {raw_name}")
            buffer.append(self.text[self.pos:next_lt])
            self.pos = next_lt
            if self.text.startswith("</", self.pos):
                flush()
                end = self.text.find(">", self.pos)
                closing = self.text[self.pos + 2:end].strip()
                if closing != raw_name:
                    raise OracleError(f"mismatched end tag {closing!r}")
                self.pos = end + 1
                return Node(ns, local, attrs, children)
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise OracleError("unterminated comment")
                self.pos = end + 3
                continue
            if self.text.startswith("<![CDATA[", self.pos):
                flush()
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise OracleError("unterminated CDATA section")
                children.append(self.text[self.pos + 9:end])
                self.pos = end + 3
                continue
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise OracleError("unterminated processing instruction")
                self.pos = end + 2
                continue
            flush()
            children.append(self.parse_element(scope))


def parse(data: bytes) -> Node:
    text = data.decode("utf-8")
    if text.startswith("﻿"):
        text = text[1:]
    return _Scanner(text).parse_document()


def shape(node: Node):
    """``(name, attributes, children)`` of ``node``, each child element as its
    shape. The scan splits text at CDATA sections and yields "" between
    adjacent elements; here each run of text is one string, never empty."""
    children: list = []
    for child in node.children:
        if not isinstance(child, str):
            children.append(shape(child))
        elif children and isinstance(children[-1], str):
            children[-1] += child
        elif child:
            children.append(child)
    return node.name, node.attrs, children


# ---------------------------------------------------------------------------
# Fixture-oriented oracle queries
# ---------------------------------------------------------------------------

XBRLI = "http://www.xbrl.org/2003/instance"
LINK = "http://www.xbrl.org/2003/linkbase"


def count_named(root: Node, ns: str, local: str) -> int:
    return sum(1 for el in root.elements() if el.name == (ns, local))


def outer_xbrl_roots(root: Node) -> list[Node]:
    """The xbrl elements that are not nested inside another xbrl element."""
    found = []

    def walk(node):
        if node.name == (XBRLI, "xbrl"):
            found.append(node)
            return
        for child in node.children:
            if isinstance(child, Node):
                walk(child)

    walk(root)
    return found


def is_fact(node: Node) -> bool:
    return node.ns not in (XBRLI, LINK)


def count_facts(xbrl: Node) -> int:
    """Items (contextRef-bearing leaves) plus tuples (element-bearing facts)."""
    total = 0

    def walk(node):
        nonlocal total
        for child in node.children:
            if not isinstance(child, Node) or not is_fact(child):
                continue
            total += 1
            if any(isinstance(g, Node) and is_fact(g) for g in child.children):
                walk(child)

    walk(xbrl)
    return total


def item_concepts(xbrl: Node) -> list[tuple[str, str]]:
    """QNames (ns, local) of every item, document order, tuples flattened."""
    names = []

    def walk(node):
        for child in node.children:
            if not isinstance(child, Node) or not is_fact(child):
                continue
            if any(isinstance(g, Node) and is_fact(g) for g in child.children):
                walk(child)
            else:
                names.append(child.name)

    walk(xbrl)
    return names


def context_ids(xbrl: Node) -> list[str]:
    return [el.attr("id") for el in xbrl.children
            if isinstance(el, Node) and el.name == (XBRLI, "context")]


def context_refs(xbrl: Node) -> list[str]:
    return [el.attr("contextRef") for el in xbrl.elements()
            if el.attr("contextRef") is not None]

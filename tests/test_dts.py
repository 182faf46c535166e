from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_bytes
from xbrlcore import (
    DataKind,
    DocumentKind,
    Instance,
    ItemKind,
    PeriodType,
    QName,
    Resolver,
    TaxonomyRef,
    build_resolver,
    discover,
    parse_instance,
    read_document,
)
from xbrlcore import dts as dts_module
from xbrlcore.dts import ResolutionError, resolve_reference

MINI_NS = "http://example.com/taxonomy/mini"


class DictResolver:
    """In-memory resolver for hermetic discovery tests."""

    def __init__(self, docs: dict[str, bytes]):
        self.docs = docs
        self.fetches: list[str] = []

    def resolve(self, base_uri: str, href: str) -> str:
        return resolve_reference(base_uri, href)

    def fetch(self, uri: str) -> bytes:
        self.fetches.append(uri)
        if uri not in self.docs:
            raise ResolutionError(f"not found: {uri}")
        return self.docs[uri]


def schema(tns: str | None, body: str = "", extra_root: str = "") -> bytes:
    tns_attr = f'targetNamespace="{tns}"' if tns else ""
    return (
        '<?xml version="1.0"?>'
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
        ' xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:link="http://www.xbrl.org/2003/linkbase"'
        ' xmlns:xlink="http://www.w3.org/1999/xlink"'
        f" {tns_attr} {extra_root}>{body}</xsd:schema>"
    ).encode()


def instance_with_refs(*hrefs: str) -> Instance:
    return Instance(schema_refs=tuple(TaxonomyRef(h) for h in hrefs))


ITEM_DECL = ('<xsd:element name="{}" type="xbrli:monetaryItemType"'
             ' substitutionGroup="xbrli:item" xbrli:periodType="instant"/>')


def imports(*locations: str) -> str:
    return "".join(f'<xsd:import namespace="x" schemaLocation="{loc}"/>' for loc in locations)


def discover_one(data: bytes, uri: str = "u.xsd"):
    """Discover from the one document ``data``; whatever it references is not found."""
    return discover(instance_with_refs(uri), DictResolver({uri: data}))


# ---------------------------------------------------------------------------
# schema loading
# ---------------------------------------------------------------------------


def test_load_fixture_schema_concepts():
    dts = discover_one(fixture_bytes("mini-taxonomy.xsd"))
    assert dts.documents["u.xsd"].kind is DocumentKind.TAXONOMY_SCHEMA
    # oracle: the fixture declares exactly these four top-level elements
    by_name = {qname.local_name: concept for qname, concept in dts.concepts.items()}
    assert set(by_name) == {"Assets", "Revenue", "SharesOutstanding", "FinancialHighlights"}
    assets = by_name["Assets"]
    assert assets.qname == QName(MINI_NS, "Assets")
    assert assets.item_kind is ItemKind.ITEM
    assert assets.data_kind is DataKind.MONETARY
    assert assets.period_type is PeriodType.INSTANT
    assert by_name["Revenue"].period_type is PeriodType.DURATION
    assert by_name["SharesOutstanding"].data_kind is DataKind.SHARES
    highlights = by_name["FinancialHighlights"]
    assert highlights.item_kind is ItemKind.TUPLE
    assert highlights.data_kind is DataKind.UNKNOWN
    assert dts.documents["u.xsd"].outgoing_refs == ()
    assert dts.findings == ()


def test_load_schema_without_declarations():
    dts = discover_one(schema("urn:t"))
    assert dts.documents["u.xsd"].kind is DocumentKind.TAXONOMY_SCHEMA
    assert dts.concepts == {} and dts.documents["u.xsd"].outgoing_refs == ()
    assert dts.findings == () and dts.unresolved == ()


def test_missing_period_type_yields_dts002_for_items_only():
    body = (
        '<xsd:element name="NoPeriod" type="xbrli:monetaryItemType"'
        ' substitutionGroup="xbrli:item"/>'
        '<xsd:element name="SomeTuple" substitutionGroup="xbrli:tuple"/>'
    )
    dts = discover_one(schema("urn:t", body))
    assert [f.code for f in dts.findings] == ["DTS-002"]
    assert dts.findings[0].subject == "{urn:t}NoPeriod"
    kinds = {qname.local_name: concept.period_type for qname, concept in dts.concepts.items()}
    assert kinds == {"NoPeriod": PeriodType.UNKNOWN, "SomeTuple": PeriodType.UNKNOWN}


def test_declarations_sharing_raw_text_classify_under_their_own_bindings():
    # B's four attribute texts equal A's, but B rebinds xbrli, so its
    # substitutionGroup and type name another namespace.
    body = (
        ITEM_DECL.format("A")
        + '<xsd:element xmlns:xbrli="urn:not-xbrli" xmlns:x="http://www.xbrl.org/2003/instance"'
          ' name="B" type="xbrli:monetaryItemType" substitutionGroup="xbrli:item"'
          ' x:periodType="instant"/>'
        + ITEM_DECL.format("C")
    )
    dts = discover_one(schema("urn:t", body))
    kinds = {qname.local_name: (concept.item_kind, concept.data_kind, concept.period_type)
             for qname, concept in dts.concepts.items()}
    assert kinds == {
        "A": (ItemKind.ITEM, DataKind.MONETARY, PeriodType.INSTANT),
        "B": (ItemKind.UNKNOWN, DataKind.UNKNOWN, PeriodType.INSTANT),
        "C": (ItemKind.ITEM, DataKind.MONETARY, PeriodType.INSTANT),
    }
    assert dts.findings == ()


def test_declarations_sharing_a_combination_each_get_their_own_dts002():
    decl = ('<xsd:element name="{}" type="xbrli:monetaryItemType"'
            ' substitutionGroup="xbrli:item"/>')
    body = "\n".join(decl.format(name) for name in ("P", "Q", "R"))
    dts = discover_one(schema("urn:t", body))
    assert [(f.code, f.subject, f.location.line) for f in dts.findings] == [
        ("DTS-002", "{urn:t}P", 1), ("DTS-002", "{urn:t}Q", 2), ("DTS-002", "{urn:t}R", 3)]
    assert dts.findings[0].message == "u.xsd: concept {urn:t}P declares no periodType"


def test_declarations_sharing_an_unbound_type_prefix_are_unknown():
    decl = ('<xsd:element name="{}" type="nope:monetaryItemType"'
            ' substitutionGroup="xbrli:item" xbrli:periodType="instant"/>')
    dts = discover_one(schema("urn:t", decl.format("U") + decl.format("V")))
    assert [concept.data_kind for concept in dts.concepts.values()] == [DataKind.UNKNOWN] * 2
    assert all(concept.item_kind is ItemKind.ITEM for concept in dts.concepts.values())


def test_each_load_classifies_each_combination_once(monkeypatch, tmp_path):
    # The seed-1 benchmark taxonomy: 40 schemas, six distinct combinations
    # of classifying attributes among their declarations.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import corpus

    manifest = corpus.generate("dts-closure", 1, tmp_path)
    loads = []  # (uri, the combinations classified while loading it)
    load = dts_module._load
    monkeypatch.setattr(dts_module, "_load",
                        lambda resolver, uri: loads.append((uri, [])) or load(resolver, uri))
    missing = dts_module._Classes.__missing__
    monkeypatch.setattr(dts_module._Classes, "__missing__",
                        lambda memo, raw: loads[-1][1].append(raw) or missing(memo, raw))
    resolver = Resolver(tmp_path)
    for doc in manifest["documents"]:
        path = tmp_path / doc["path"]
        dts = discover(parse_instance(read_document(path.read_bytes())).instance, resolver,
                       base_uri=str(path))
        assert len(dts.documents) == doc["dts"]["documents"]
    assert len(loads) == len({uri for uri, _ in loads}) > 40
    assert all(len(raws) == len(set(raws)) for _, raws in loads)
    assert len({raw for _, raws in loads for raw in raws}) == 6


def test_missing_target_namespace_skips_declarations():
    body = '<xsd:element name="Orphan" substitutionGroup="xbrli:item"/>'
    dts = discover_one(schema(None, body))
    assert dts.concepts == {}
    assert [f.code for f in dts.findings] == ["DTS-004"]


def test_not_a_schema():
    dts = discover_one(b"<xbrl xmlns='http://www.xbrl.org/2003/instance'/>")
    assert dts.documents == {} and dts.concepts == {}
    assert dts.unresolved == (("u.xsd", "root element is neither a schema nor a linkbase"),)


def test_schema_outgoing_refs_include_imports_includes_linkbaserefs():
    # References are kept in document pre-order, at any depth: the second
    # linkbaseRef sits inside a declaration, between the import and the include.
    body = (
        '<xsd:annotation><xsd:appinfo>'
        '<link:linkbaseRef xlink:href="labels.xml"/>'
        "</xsd:appinfo></xsd:annotation>"
        '<xsd:import namespace="urn:other" schemaLocation="other.xsd"/>'
        '<xsd:element name="Annotated"><xsd:annotation><xsd:appinfo>'
        '<link:linkbaseRef xlink:href="refs.xml"/>'
        "</xsd:appinfo></xsd:annotation></xsd:element>"
        '<xsd:include schemaLocation="more.xsd"/>'
    )
    dts = discover_one(schema("urn:t", body))
    refs = ("labels.xml", "other.xsd", "refs.xml", "more.xsd")
    assert dts.documents["u.xsd"].outgoing_refs == refs
    assert [uri for uri, _ in dts.unresolved] == list(refs)
    assert list(dts.concepts) == [QName("urn:t", "Annotated")]


def test_unknown_type_kinds():
    body = (
        '<xsd:element name="Custom" type="xbrli:weirdItemType" substitutionGroup="xbrli:item"'
        ' xbrli:periodType="duration"/>'
        '<xsd:element name="Plain"/>'
        '<xsd:element name="Numeric" type="xbrli:decimalItemType" substitutionGroup="xbrli:item"'
        ' xbrli:periodType="duration"/>'
        '<xsd:element name="Text" type="xbrli:stringItemType" substitutionGroup="xbrli:item"'
        ' xbrli:periodType="duration"/>'
        '<xsd:element name="Hidden" abstract="true" substitutionGroup="xbrli:item"'
        ' xbrli:periodType="duration"/>'
    )
    by_name = {qname.local_name: concept
               for qname, concept in discover_one(schema("urn:t", body)).concepts.items()}
    assert by_name["Custom"].data_kind is DataKind.UNKNOWN
    assert by_name["Plain"].item_kind is ItemKind.UNKNOWN
    assert by_name["Numeric"].data_kind is DataKind.NUMERIC
    assert by_name["Text"].data_kind is DataKind.NON_NUMERIC
    assert by_name["Hidden"].abstract is True


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------


def test_lookup_hit_miss_and_prefix_independence():
    instance = parse_instance(read_document(fixture_bytes("mini-instance.xml"))).instance
    dts = discover(instance, Resolver(FIXTURES), base_uri=str(FIXTURES / "mini-instance.xml"))
    hit = dts.concepts.get(QName(MINI_NS, "Assets"))
    assert hit is not None and hit.data_kind is DataKind.MONETARY
    assert dts.concepts.get(QName(MINI_NS, "Nope")) is None
    # QName identity is URI + local, so the bare pair finds the same concept
    assert dts.concepts.get((MINI_NS, "Assets")) is hit


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


def test_discover_nothing_to_do():
    dts = discover(Instance(), DictResolver({}))
    assert dts.documents == {} and len(dts.concepts) == 0
    assert dts.unresolved == () and not dts.limit_exceeded


def test_discover_fixture_taxonomy():
    instance = parse_instance(
        read_document(fixture_bytes("mini-instance.xml"))
    ).instance
    dts = discover(instance, Resolver(FIXTURES),
                   base_uri=str(FIXTURES / "mini-instance.xml"))
    assert list(dts.documents) == [str(FIXTURES / "mini-taxonomy.xsd")]
    doc = next(iter(dts.documents.values()))
    assert doc.kind is DocumentKind.TAXONOMY_SCHEMA
    assert len(dts.concepts) == 4
    assert dts.unresolved == ()


def test_discover_cycle_loads_each_document_once():
    resolver = DictResolver({
        "a.xsd": schema("urn:a", '<xsd:import namespace="urn:b" schemaLocation="b.xsd"/>'),
        "b.xsd": schema("urn:b", '<xsd:import namespace="urn:a" schemaLocation="a.xsd"/>'),
    })
    dts = discover(instance_with_refs("a.xsd"), resolver)
    assert list(dts.documents) == ["a.xsd", "b.xsd"]
    assert resolver.fetches == ["a.xsd", "b.xsd"]
    assert dts.unresolved == ()


def test_discover_closure_covers_every_href():
    dts = discover(instance_with_refs("cycle-a.xsd"), Resolver(FIXTURES),
                   base_uri=str(FIXTURES / "cycle-instance.xml"))
    assert len(dts.documents) == 2
    # independent href-grep oracle over the loaded files
    for uri, doc in dts.documents.items():
        text = Path(uri).read_text(encoding="utf-8")
        greps = re.findall(r'(?:schemaLocation|xlink:href)="([^"]+)"', text)
        assert sorted(greps) == sorted(doc.outgoing_refs)
        for href in greps:
            resolved = resolve_reference(uri, href)
            assert resolved in dts.documents or any(
                u == resolved for u, _ in dts.unresolved
            )


def test_discover_missing_document_goes_to_unresolved():
    dts = discover(instance_with_refs("ghost.xsd"), DictResolver({}))
    assert dts.documents == {}
    assert dts.unresolved == (("ghost.xsd", "not found: ghost.xsd"),)


def test_discover_non_schema_document_goes_to_unresolved():
    resolver = DictResolver({"odd.xsd": b"<not-a-schema/>"})
    dts = discover(instance_with_refs("odd.xsd"), resolver)
    assert dts.documents == {}
    assert dts.unresolved[0][0] == "odd.xsd"


def test_discover_linkbase_documents_recorded_not_interpreted():
    linkbase = (
        b'<link:linkbase xmlns:link="http://www.xbrl.org/2003/linkbase"'
        b' xmlns:xlink="http://www.w3.org/1999/xlink">'
        b'<link:presentationLink xlink:role="r"/></link:linkbase>'
    )
    instance = Instance(linkbase_refs=(TaxonomyRef("labels.xml"),))
    dts = discover(instance, DictResolver({"labels.xml": linkbase}))
    assert dts.documents["labels.xml"].kind is DocumentKind.LINKBASE
    assert len(dts.concepts) == 0


def test_discover_duplicate_concept_first_wins_with_finding():
    decl = ('<xsd:element name="Assets" type="xbrli:monetaryItemType"'
            ' substitutionGroup="xbrli:item" xbrli:periodType="instant"/>')
    resolver = DictResolver({
        "one.xsd": schema("urn:dup", decl + '<xsd:import namespace="x" schemaLocation="two.xsd"/>'),
        "two.xsd": schema("urn:dup", decl.replace("instant", "duration")),
    })
    dts = discover(instance_with_refs("one.xsd"), resolver)
    assert [f.code for f in dts.findings] == ["DTS-003"]
    concept = dts.concepts.get(QName("urn:dup", "Assets"))
    assert concept is not None and concept.period_type is PeriodType.INSTANT
    assert "one.xsd" in dts.findings[0].message and "two.xsd" in dts.findings[0].message


def test_discover_document_limit():
    resolver = DictResolver({
        "a.xsd": schema("urn:a", '<xsd:import namespace="urn:b" schemaLocation="b.xsd"/>'),
        "b.xsd": schema("urn:b"),
    })
    dts = discover(instance_with_refs("a.xsd"), resolver, max_documents=1)
    assert list(dts.documents) == ["a.xsd"]
    assert dts.limit_exceeded
    assert dts.unresolved == (("b.xsd", "document limit 1 reached"),)


def test_discover_rejects_a_negative_document_limit():
    resolver = DictResolver({"a.xsd": schema("urn:a")})
    with pytest.raises(ValueError, match="^max_documents must be 0 or more, not -1$"):
        discover(instance_with_refs("a.xsd"), resolver, max_documents=-1)
    dts = discover(instance_with_refs("a.xsd"), resolver, max_documents=0)
    assert dts.documents == {} and dts.limit_exceeded
    assert dts.unresolved == (("a.xsd", "document limit 0 reached"),)


def test_discover_follows_a_deep_import_chain_whole():
    # 20 schemas, each importing the next: the closure has no depth bound
    chain = {
        f"s{i}.xsd": schema(f"urn:s{i}", ITEM_DECL.format(f"C{i}") + imports(f"s{i + 1}.xsd"))
        for i in range(19)
    }
    chain["s19.xsd"] = schema("urn:s19", ITEM_DECL.format("C19"))
    dts = discover(instance_with_refs("s0.xsd"), DictResolver(chain))
    assert list(dts.documents) == [f"s{i}.xsd" for i in range(20)]
    assert not dts.limit_exceeded and dts.unresolved == ()
    assert QName("urn:s19", "C19") in dts.concepts


def test_discover_monotonic_in_limits():
    docs = {
        "a.xsd": schema("urn:a", '<xsd:import namespace="urn:b" schemaLocation="b.xsd"/>'
                                 '<xsd:import namespace="urn:c" schemaLocation="c.xsd"/>'),
        "b.xsd": schema("urn:b"),
        "c.xsd": schema("urn:c", '<xsd:import namespace="urn:d" schemaLocation="d.xsd"/>'),
        "d.xsd": schema("urn:d"),
    }
    small = discover(instance_with_refs("a.xsd"), DictResolver(docs), max_documents=2)
    large = discover(instance_with_refs("a.xsd"), DictResolver(docs), max_documents=16)
    assert set(small.documents) <= set(large.documents)
    assert not large.limit_exceeded


def test_discover_deterministic():
    def run():
        return discover(
            instance_with_refs("cycle-a.xsd"), Resolver(FIXTURES),
            base_uri=str(FIXTURES / "cycle-instance.xml"),
        )

    a, b = run(), run()
    assert list(a.documents) == list(b.documents)
    assert a.unresolved == b.unresolved
    assert a.concepts == b.concepts


# ---------------------------------------------------------------------------
# resolvers
# ---------------------------------------------------------------------------


def test_resolve_reference_relative_and_absolute():
    assert resolve_reference("fixtures/mini-instance.xml", "mini-taxonomy.xsd") == \
        "fixtures/mini-taxonomy.xsd"
    assert resolve_reference("fixtures/a.xml", "sub/t.xsd") == "fixtures/sub/t.xsd"
    assert resolve_reference("fixtures/a.xml", "http://x/y.xsd") == "http://x/y.xsd"


def test_filesystem_resolver_refuses_escapes(tmp_path):
    root = tmp_path / "tax"
    root.mkdir()
    (root / "ok.xsd").write_bytes(b"<a/>")
    (tmp_path / "secret.xsd").write_bytes(b"<a/>")
    resolver = Resolver(root)
    assert resolver.fetch(str(root / "ok.xsd")) == b"<a/>"
    with pytest.raises(ResolutionError):
        resolver.fetch(str(root / ".." / "secret.xsd"))


def symlink_or_skip(link: Path, target: Path) -> None:
    try:
        link.symlink_to(target, target_is_directory=target.is_dir())
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"symlinks unavailable: {exc}")


def test_filesystem_resolver_refuses_a_symlink_out_of_the_root(tmp_path):
    root = tmp_path / "tax"
    root.mkdir()
    (tmp_path / "secret.xsd").write_bytes(b"<secret/>")
    symlink_or_skip(root / "link.xsd", tmp_path / "secret.xsd")
    uri = str(root / "link.xsd")
    with pytest.raises(ResolutionError, match=f"^outside taxonomy root: {re.escape(uri)}$"):
        Resolver(root).fetch(uri)


def test_filesystem_resolver_accepts_a_root_given_as_a_symlink(tmp_path):
    real = tmp_path / "real"
    (real / "http" / "example.com").mkdir(parents=True)
    (real / "a.xsd").write_bytes(b"<a/>")
    (real / "http" / "example.com" / "t.xsd").write_bytes(b"<folded/>")
    symlink_or_skip(tmp_path / "link", real)
    resolver = Resolver(tmp_path / "link")
    assert resolver.fetch(str(tmp_path / "link" / "a.xsd")) == b"<a/>"
    assert resolver.fetch(str(real / "a.xsd")) == b"<a/>"
    assert resolver.fetch("http://example.com/t.xsd") == b"<folded/>"


def test_filesystem_resolver_folds_http_uris(tmp_path):
    target = tmp_path / "http" / "example.com" / "tax" / "core.xsd"
    target.parent.mkdir(parents=True)
    target.write_bytes(b"<a/>")
    resolver = Resolver(tmp_path)
    assert resolver.fetch("http://example.com/tax/core.xsd") == b"<a/>"


def test_build_resolver_behaviour_table(tmp_path):
    root = tmp_path / "tax"
    (root / "http" / "example.com").mkdir(parents=True)
    (root / "a.xsd").write_bytes(b"<a/>")
    (root / "http" / "example.com" / "t.xsd").write_bytes(b"<folded/>")
    (tmp_path / "secret.xsd").write_bytes(b"<secret/>")
    # a sibling whose name starts with the root's
    (tmp_path / "tax-evil").mkdir()
    (tmp_path / "tax-evil" / "a.xsd").write_bytes(b"<evil/>")
    local, outside = str(root / "a.xsd"), str(tmp_path / "secret.xsd")
    sibling = str(tmp_path / "tax-evil" / "a.xsd")
    missing, directory = str(root / "nope.xsd"), str(root / "http")
    web = "http://example.com/t.xsd"
    file_uri, file_outside = (root / "a.xsd").as_uri(), (tmp_path / "secret.xsd").as_uri()
    table = {
        None: {
            local: "no taxonomy source configured",
            web: "no taxonomy source configured",
        },
        root: {
            local: b"<a/>",
            web: b"<folded/>",
            outside: f"outside taxonomy root: {outside}",
            sibling: f"outside taxonomy root: {sibling}",
            file_uri: b"<a/>",
            file_outside: f"outside taxonomy root: {file_outside}",
            missing: f"not found: {missing}",
            directory: f"unreadable: {directory} (Is a directory)",
        },
    }
    for taxonomy_root, cases in table.items():
        resolver = build_resolver(taxonomy_root)
        for uri, want in cases.items():
            try:
                got = resolver.fetch(uri)
            except ResolutionError as exc:
                got = str(exc)
            assert got == want, (taxonomy_root, uri)


@pytest.mark.parametrize("position", ["schemaRef", "import"])
def test_a_reference_urllib_cannot_parse_goes_to_unresolved(position, tmp_path):
    bad = "http://[bad/x.xsd"
    (tmp_path / "a.xsd").write_bytes(schema("urn:a", imports(bad)))
    entry = bad if position == "schemaRef" else "a.xsd"
    dts = discover(instance_with_refs(entry), Resolver(tmp_path),
                   base_uri=str(tmp_path / "instance.xml"))
    assert dts.unresolved == ((bad, f"invalid URI: {bad}"),)
    assert list(dts.documents) == ([] if position == "schemaRef" else [str(tmp_path / "a.xsd")])


def test_resolve_reference_drops_the_fragment():
    assert resolve_reference("fixtures/a.xml", "t.xsd#x") == "fixtures/t.xsd"
    assert resolve_reference("fixtures/a.xml", "http://x/y.xsd#frag") == "http://x/y.xsd"
    assert resolve_reference("fixtures/a.xml", "#x") == "fixtures/a.xml"


@pytest.mark.parametrize("form", ["relative", "relative with fragment", "file URI"])
def test_a_percent_escaped_href_resolves(form, tmp_path):
    (tmp_path / "mini taxonomy.xsd").write_bytes(fixture_bytes("mini-taxonomy.xsd"))
    href = {
        "relative": "mini%20taxonomy.xsd",
        "relative with fragment": "mini%20taxonomy.xsd#x",
        "file URI": (tmp_path / "mini taxonomy.xsd").as_uri(),
    }[form]
    assert "%20" in href
    dts = discover(instance_with_refs(href), Resolver(tmp_path),
                   base_uri=str(tmp_path / "instance.xml"))
    assert (len(dts.documents), dts.unresolved) == (1, ())
    assert QName(MINI_NS, "Assets") in dts.concepts


def test_an_href_and_its_fragment_are_one_load(tmp_path):
    (tmp_path / "a.xsd").write_bytes(schema("urn:a", '<xsd:element name="A"/>'))
    resolver = Resolver(tmp_path)
    dts = discover(instance_with_refs("a.xsd", "a.xsd#x", "a.xsd#y"), resolver,
                   base_uri=str(tmp_path / "instance.xml"))
    assert list(dts.documents) == [str(tmp_path / "a.xsd")]
    assert (dts.unresolved, dts.findings) == ((), ())
    assert list(dts_module._LOADED[resolver]) == [str(tmp_path / "a.xsd")]


def test_an_escape_that_decodes_to_nul_is_an_invalid_uri(tmp_path):
    with pytest.raises(ResolutionError, match=r"^invalid URI: a%00\.xsd$"):
        Resolver(tmp_path).fetch("a%00.xsd")


def test_an_escaped_dot_dot_cannot_leave_the_root(tmp_path):
    root = tmp_path / "tax"
    root.mkdir()
    (tmp_path / "secret.xsd").write_bytes(b"<a/>")
    uri = str(root / "%2e%2e" / "secret.xsd")
    with pytest.raises(ResolutionError, match="^outside taxonomy root: "):
        Resolver(root).fetch(uri)


def test_null_resolver_unresolves_everything():
    dts = discover(instance_with_refs("anything.xsd"), Resolver())
    assert dts.unresolved == (("anything.xsd", "no taxonomy source configured"),)


# ---------------------------------------------------------------------------
# loading each document once per resolver
# ---------------------------------------------------------------------------

# One taxonomy with every outcome a document can have: concepts, a DTS-002
# and a DTS-004 finding, duplicates for DTS-003 (whose order follows the
# walk), a fourth level, a linkbase, a missing document, one that is not
# XML and one whose root is neither a schema nor a linkbase.
EVERY_OUTCOME = {
    "root.xsd": schema("urn:r", ITEM_DECL.format("A") + imports(
        "dup1.xsd", "noperiod.xsd", "notns.xsd", "ghost.xsd", "bad.xsd", "odd.xsd", "lb.xml")),
    "dup1.xsd": schema("urn:r", ITEM_DECL.format("A") + ITEM_DECL.format("B") + imports("dup2.xsd")),
    "dup2.xsd": schema("urn:r", ITEM_DECL.format("B") + ITEM_DECL.format("A") + imports("deep.xsd")),
    "deep.xsd": schema("urn:d", ITEM_DECL.format("D")),
    "noperiod.xsd": schema("urn:n", '<xsd:element name="N" substitutionGroup="xbrli:item"/>'),
    "notns.xsd": schema(None, ITEM_DECL.format("Orphan")),
    "bad.xsd": b"<xsd:schema",
    "odd.xsd": b"<not-a-schema/>",
    "lb.xml": b'<link:linkbase xmlns:link="http://www.xbrl.org/2003/linkbase"'
              b' xmlns:xlink="http://www.w3.org/1999/xlink">'
              b'<link:linkbaseRef xlink:href="dup2.xsd"/></link:linkbase>',
}


def as_compared(dts) -> tuple:
    """Everything a Dts holds, in order, so equal values mean equal output."""
    return (list(dts.documents.items()), list(dts.concepts.items()),
            dts.unresolved, dts.findings, dts.limit_exceeded)


def test_every_outcome_taxonomy_covers_every_outcome():
    dts = discover(instance_with_refs("root.xsd"), DictResolver(EVERY_OUTCOME))
    assert [f.code for f in dts.findings] == ["DTS-003", "DTS-002", "DTS-004", "DTS-003", "DTS-003"]
    assert [reason.split(":")[0] for _, reason in dts.unresolved] == [
        "not found", "not XML", "root element is neither a schema nor a linkbase"]
    assert dts.documents["lb.xml"].kind is DocumentKind.LINKBASE


def test_one_resolver_fetches_each_uri_once_across_instances():
    resolver = DictResolver(EVERY_OUTCOME)
    discover(instance_with_refs("root.xsd"), resolver)
    discover(instance_with_refs("dup2.xsd", "root.xsd"), resolver)
    assert sorted(resolver.fetches) == sorted([*EVERY_OUTCOME, "ghost.xsd"])


@pytest.mark.parametrize("first", [("root.xsd",), ("dup2.xsd", "lb.xml", "notns.xsd")])
def test_warm_resolver_discovers_what_a_fresh_one_does(first):
    warm = DictResolver(EVERY_OUTCOME)
    discover(instance_with_refs(*first), warm)
    got = discover(instance_with_refs("root.xsd"), warm)
    want = discover(instance_with_refs("root.xsd"), DictResolver(EVERY_OUTCOME))
    assert as_compared(got) == as_compared(want)
    assert len(warm.fetches) == len(set(warm.fetches))


@pytest.mark.parametrize("limits", [{"max_documents": 2}])
def test_limited_run_on_a_warm_resolver_equals_a_cold_one(limits):
    warm = DictResolver(EVERY_OUTCOME)
    discover(instance_with_refs("root.xsd"), warm)
    got = discover(instance_with_refs("root.xsd"), warm, **limits)
    want = discover(instance_with_refs("root.xsd"), DictResolver(EVERY_OUTCOME), **limits)
    assert want.limit_exceeded
    assert as_compared(got) == as_compared(want)


def test_a_resolver_keeps_one_load_per_uri_and_nothing_per_entry_set():
    uris = ("a.xsd", "b.xsd", "c.xsd")
    resolver = DictResolver({uri: schema(f"urn:{uri}", ITEM_DECL.format("A")) for uri in uris})
    # 50 distinct orders and repeats, such as a b, b a and a a c
    sequences = [refs for n in range(1, 5) for refs in itertools.product(uris, repeat=n)][:50]
    for refs in sequences:
        assert list(discover(instance_with_refs(*refs), resolver).documents) == \
            list(dict.fromkeys(refs))
    loaded = dts_module._LOADED[resolver]
    assert isinstance(loaded, dict) and sorted(loaded) == list(uris)
    assert sorted(resolver.fetches) == list(uris)


# ---------------------------------------------------------------------------
# a warm discovery equals a fresh one
# ---------------------------------------------------------------------------


class CountingResolver:
    """Delegates to another resolver and records every call."""

    def __init__(self, inner):
        self.inner = inner
        self.fetches: list[str] = []
        self.resolves: list[tuple[str, str]] = []

    def resolve(self, base_uri: str, href: str) -> str:
        self.resolves.append((base_uri, href))
        return self.inner.resolve(base_uri, href)

    def fetch(self, uri: str) -> bytes:
        self.fetches.append(uri)
        return self.inner.fetch(uri)


# A concept repeated within one schema, and one repeated across two; each
# repeat differs from the first declaration, which is the one kept.
REPEATS = {
    "in.xsd": schema("urn:r", ITEM_DECL.format("A") + ITEM_DECL.format("B")
                     + ITEM_DECL.format("A").replace("instant", "duration") + imports("x.xsd")),
    "x.xsd": schema("urn:r", ITEM_DECL.format("C")
                    + ITEM_DECL.format("B").replace("instant", "duration")),
}
CYCLE_BASE = str(FIXTURES / "cycle-instance.xml")
MINI_BASE = str(FIXTURES / "mini-instance.xml")

# name: (a fresh resolver, instance, base URI of the first and of the
# second discovery, limits)
REPLAY_CASES = {
    "cycle": (lambda: Resolver(FIXTURES), instance_with_refs("cycle-a.xsd"),
              CYCLE_BASE, CYCLE_BASE, {}),
    "mini-taxonomy": (lambda: Resolver(FIXTURES), instance_with_refs("mini-taxonomy.xsd"),
                      MINI_BASE, MINI_BASE, {}),
    "two-bases-one-entry": (lambda: Resolver(FIXTURES), instance_with_refs("mini-taxonomy.xsd"),
                            MINI_BASE, CYCLE_BASE, {}),
    "repeats": (lambda: DictResolver(REPEATS), instance_with_refs("in.xsd"), "", "", {}),
    "every-outcome": (lambda: DictResolver(EVERY_OUTCOME), instance_with_refs("root.xsd"),
                      "", "", {}),
    "linkbase-ref": (lambda: DictResolver(EVERY_OUTCOME),
                     Instance(schema_refs=(TaxonomyRef("dup1.xsd"),),
                              linkbase_refs=(TaxonomyRef("lb.xml"), TaxonomyRef("ghost.xml"))),
                     "", "", {}),
    "document-limit": (lambda: DictResolver(EVERY_OUTCOME), instance_with_refs("root.xsd"),
                       "", "", {"max_documents": 2}),
}


def test_replay_cases_cover_each_shape():
    def cold(name):
        fresh, instance, base, _, limits = REPLAY_CASES[name]
        return discover(instance, fresh(), base_uri=base, **limits)

    assert [f.code for f in cold("repeats").findings] == ["DTS-003", "DTS-003"]
    assert "in.xsd duplicates the declaration in in.xsd" in cold("repeats").findings[0].message
    assert "x.xsd duplicates the declaration in in.xsd" in cold("repeats").findings[1].message
    # each repeat is a duration item; the first declarations kept are instant
    concepts = cold("repeats").concepts
    assert [qname.local_name for qname in concepts] == ["A", "B", "C"]
    assert {concept.period_type for concept in concepts.values()} == {PeriodType.INSTANT}
    assert cold("linkbase-ref").documents["lb.xml"].kind is DocumentKind.LINKBASE
    assert cold("linkbase-ref").unresolved == (("ghost.xml", "not found: ghost.xml"),)
    assert cold("document-limit").limit_exceeded
    assert "document limit 2 reached" in [r for _, r in cold("document-limit").unresolved]


@pytest.mark.parametrize("name", REPLAY_CASES)
def test_a_replayed_discovery_equals_a_fresh_one(name):
    fresh, instance, first_base, second_base, limits = REPLAY_CASES[name]
    shared = CountingResolver(fresh())
    first = discover(instance, shared, base_uri=first_base, **limits)
    shared.fetches.clear()
    shared.resolves.clear()
    second = discover(instance, shared, base_uri=second_base, **limits)
    want = discover(instance, fresh(), base_uri=second_base, **limits)

    for got in (first, second):
        assert got == want
        assert as_compared(got) == as_compared(want)
    # the warm call fetches nothing and resolves only the entry references
    assert shared.fetches == []
    assert shared.resolves == [
        (second_base, ref.href) for ref in (*instance.schema_refs, *instance.linkbase_refs)]

    # each call owns its dicts
    first.documents.clear()
    first.concepts.clear()
    assert as_compared(second) == as_compared(want)
    third = discover(instance, shared, base_uri=second_base, **limits)
    assert as_compared(third) == as_compared(want)
    assert third.documents is not second.documents and third.concepts is not second.concepts

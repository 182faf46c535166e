from __future__ import annotations

import io
import re
import urllib.request
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_bytes
from xbrlcore import (
    Balance,
    DataKind,
    DocumentKind,
    Instance,
    ItemKind,
    NotASchema,
    PeriodType,
    QName,
    RefKind,
    Resolver,
    TaxonomyRef,
    build_resolver,
    discover,
    load_taxonomy_schema,
    parse_instance,
    read_document,
)
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
    return Instance(schema_refs=tuple(TaxonomyRef(h, RefKind.SCHEMA) for h in hrefs))


# ---------------------------------------------------------------------------
# load_taxonomy_schema
# ---------------------------------------------------------------------------


def test_load_fixture_schema_concepts():
    concepts, refs, findings = load_taxonomy_schema(
        fixture_bytes("mini-taxonomy.xsd"), "mini-taxonomy.xsd"
    )
    # oracle: the fixture declares exactly these four top-level elements
    by_name = {c.qname.local_name: c for c in concepts}
    assert set(by_name) == {"Assets", "Revenue", "SharesOutstanding", "FinancialHighlights"}
    assets = by_name["Assets"]
    assert assets.qname == QName(MINI_NS, "Assets")
    assert assets.item_kind is ItemKind.ITEM
    assert assets.data_kind is DataKind.MONETARY
    assert assets.period_type is PeriodType.INSTANT
    assert assets.balance is Balance.DEBIT
    revenue = by_name["Revenue"]
    assert (revenue.period_type, revenue.balance) == (PeriodType.DURATION, Balance.CREDIT)
    assert by_name["SharesOutstanding"].data_kind is DataKind.SHARES
    highlights = by_name["FinancialHighlights"]
    assert highlights.item_kind is ItemKind.TUPLE
    assert highlights.data_kind is DataKind.UNKNOWN
    assert refs == []
    assert findings == []


def test_load_schema_without_declarations():
    concepts, refs, findings = load_taxonomy_schema(schema("urn:t"), "u")
    assert concepts == [] and refs == [] and findings == []


def test_missing_period_type_yields_dts002_for_items_only():
    body = (
        '<xsd:element name="NoPeriod" type="xbrli:monetaryItemType"'
        ' substitutionGroup="xbrli:item"/>'
        '<xsd:element name="SomeTuple" substitutionGroup="xbrli:tuple"/>'
    )
    concepts, _, findings = load_taxonomy_schema(schema("urn:t", body), "u")
    assert [f.code for f in findings] == ["DTS-002"]
    assert findings[0].subject == "{urn:t}NoPeriod"
    kinds = {c.qname.local_name: c.period_type for c in concepts}
    assert kinds == {"NoPeriod": PeriodType.UNKNOWN, "SomeTuple": PeriodType.UNKNOWN}


def test_missing_target_namespace_skips_declarations():
    body = '<xsd:element name="Orphan" substitutionGroup="xbrli:item"/>'
    concepts, _, findings = load_taxonomy_schema(schema(None, body), "u")
    assert concepts == []
    assert [f.code for f in findings] == ["DTS-004"]


def test_not_a_schema():
    with pytest.raises(NotASchema):
        load_taxonomy_schema(b"<xbrl xmlns='http://www.xbrl.org/2003/instance'/>", "u")


def test_schema_outgoing_refs_include_imports_includes_linkbaserefs():
    body = (
        '<xsd:annotation><xsd:appinfo>'
        '<link:linkbaseRef xlink:href="labels.xml"/>'
        "</xsd:appinfo></xsd:annotation>"
        '<xsd:import namespace="urn:other" schemaLocation="other.xsd"/>'
        '<xsd:include schemaLocation="more.xsd"/>'
    )
    _, refs, _ = load_taxonomy_schema(schema("urn:t", body), "u")
    assert refs == ["labels.xml", "other.xsd", "more.xsd"]


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
    concepts, _, _ = load_taxonomy_schema(schema("urn:t", body), "u")
    by_name = {c.qname.local_name: c for c in concepts}
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
    # QName identity is URI + local, so any prefix spelling resolves the same
    assert dts.concepts.get(QName.from_clark("{%s}Assets" % MINI_NS)) is hit


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
    instance = Instance(linkbase_refs=(TaxonomyRef("labels.xml", RefKind.LINKBASE),))
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


def test_discover_depth_limit():
    chain = {
        f"s{i}.xsd": schema(
            f"urn:s{i}", f'<xsd:import namespace="urn:s{i+1}" schemaLocation="s{i+1}.xsd"/>'
        )
        for i in range(5)
    }
    chain["s5.xsd"] = schema("urn:s5")
    dts = discover(instance_with_refs("s0.xsd"), DictResolver(chain), max_depth=3)
    assert list(dts.documents) == ["s0.xsd", "s1.xsd", "s2.xsd"]
    assert dts.limit_exceeded
    assert dts.unresolved[0][0] == "s3.xsd"


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


def test_filesystem_resolver_folds_http_uris(tmp_path):
    target = tmp_path / "http" / "example.com" / "tax" / "core.xsd"
    target.parent.mkdir(parents=True)
    target.write_bytes(b"<a/>")
    resolver = Resolver(tmp_path)
    assert resolver.fetch("http://example.com/tax/core.xsd") == b"<a/>"


@pytest.fixture
def fake_urlopen(monkeypatch):
    """Serve every http(s) fetch from memory; returns the URIs fetched."""
    seen = []

    def urlopen(uri, timeout):
        seen.append(uri)
        return io.BytesIO(b"<net/>")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return seen


def test_http_resolver_rejects_non_http():
    with pytest.raises(ResolutionError) as exc:
        build_resolver(None, True).fetch("file:///etc/passwd")
    assert str(exc.value) == "not an http(s) URI: file:///etc/passwd"


def test_http_resolver_fetches_via_urllib(fake_urlopen):
    assert build_resolver(None, True).fetch("http://example.com/t.xsd") == b"<net/>"
    assert fake_urlopen == ["http://example.com/t.xsd"]


def test_build_resolver_behaviour_table(tmp_path, fake_urlopen):
    root = tmp_path / "tax"
    (root / "http" / "example.com").mkdir(parents=True)
    (root / "a.xsd").write_bytes(b"<a/>")
    (root / "http" / "example.com" / "t.xsd").write_bytes(b"<folded/>")
    (tmp_path / "secret.xsd").write_bytes(b"<secret/>")
    local, outside = str(root / "a.xsd"), str(tmp_path / "secret.xsd")
    missing, directory = str(root / "nope.xsd"), str(root / "http")
    web = "http://example.com/t.xsd"
    table = {
        (None, False): {
            local: "no taxonomy source configured",
            web: "no taxonomy source configured",
        },
        (root, False): {
            local: b"<a/>",
            web: b"<folded/>",
            outside: f"outside taxonomy root: {outside}",
            missing: f"not found: {missing}",
            directory: f"unreadable: {directory} (Is a directory)",
        },
        (None, True): {
            local: f"not an http(s) URI: {local}",
            web: b"<net/>",
        },
        (root, True): {
            local: b"<a/>",
            web: b"<net/>",
            outside: f"outside taxonomy root: {outside}",
        },
    }
    for (taxonomy_root, allow_network), cases in table.items():
        resolver = build_resolver(taxonomy_root, allow_network)
        for uri, want in cases.items():
            try:
                got = resolver.fetch(uri)
            except ResolutionError as exc:
                got = str(exc)
            assert got == want, (taxonomy_root, allow_network, uri)
    # only the network-enabled resolvers reached urlopen, once each
    assert fake_urlopen == [web, web]


def test_null_resolver_unresolves_everything():
    dts = discover(instance_with_refs("anything.xsd"), Resolver())
    assert dts.unresolved == (("anything.xsd", "no taxonomy source configured"),)

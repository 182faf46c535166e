from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import gen
from conftest import FIXTURES, fixture_bytes
from xbrlcore import (
    Concept,
    DataKind,
    Dts,
    Duration,
    Finding,
    Instance,
    Item,
    ParseMode,
    ParseOptions,
    Resolver,
    QName,
    Severity,
    Tuple,
    Unit,
    build_report,
    discover,
    find_instances,
    parse_instance,
    read_document,
    rule_catalog,
    serialize,
    validate,
)
from xbrlcore.constants import DEFAULT_MAX_TUPLE_DEPTH, ISO4217_NS, XBRLI_NS, XLINK_NS

MINI_NS = "http://example.com/taxonomy/mini"
LENIENT = ParseOptions(mode=ParseMode.LENIENT)


def load(name: str, options: ParseOptions = ParseOptions()):
    return parse_instance(read_document(fixture_bytes(name)), options)


def fixture_dts(name: str):
    outcome = load(name)
    return discover(outcome.instance, Resolver(FIXTURES),
                    base_uri=str(FIXTURES / name))


def mini_concepts() -> dict:
    return dict(fixture_dts("mini-instance.xml").concepts)


def codes(report):
    return [f.code for f in report.findings]


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------


def test_bad_ctxref_yields_exactly_one_ctx001_error():
    report = validate(load("bad-ctxref.xml"))
    assert codes(report) == ["CTX-001"]
    assert report.findings[0].severity is Severity.ERROR
    assert report.findings[0].subject == "{%s}Assets" % MINI_NS


def test_valid_fixture_with_taxonomy_has_zero_errors():
    report = validate(load("mini-instance.xml"), fixture_dts("mini-instance.xml"))
    assert codes(report) == []
    assert report.counts == {"error": 0, "warning": 0, "info": 0}
    assert report.skipped_rules == ()


def test_bad_monetary_unit_yields_exactly_one_unt002():
    report = validate(load("bad-monetary-unit.xml"), fixture_dts("bad-monetary-unit.xml"))
    assert codes(report) == ["UNT-002"]
    assert report.findings[0].severity is Severity.ERROR


def test_unt002_skipped_without_taxonomy():
    report = validate(load("bad-monetary-unit.xml"))
    assert codes(report) == []
    assert "UNT-002" in report.skipped_rules
    assert set(report.skipped_rules) == {
        r.code for r in rule_catalog() if r.requires_dts
    }


def test_unt001_unresolved_unit_ref():
    data = fixture_bytes("bad-ctxref.xml").replace(
        b'contextRef="c-2008i"', b'contextRef="c-2008i" unitRef="u-ghost"'
    )
    report = validate(parse_instance(read_document(data)))
    assert "UNT-001" in codes(report)


def test_divide_with_monetary_numerator_passes_unt002():
    data = (
        '<?xml version="1.0"?>'
        '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:iso4217="http://www.xbrl.org/2003/iso4217"'
        ' xmlns:ex="http://example.com/taxonomy/mini">'
        '<xbrli:context id="c1"><xbrli:entity>'
        '<xbrli:identifier scheme="urn:reg">CO</xbrli:identifier></xbrli:entity>'
        '<xbrli:period><xbrli:instant>2008-12-31</xbrli:instant></xbrli:period>'
        '</xbrli:context>'
        '<xbrli:unit id="u-eps"><xbrli:divide>'
        '<xbrli:unitNumerator><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unitNumerator>'
        '<xbrli:unitDenominator><xbrli:measure>xbrli:shares</xbrli:measure></xbrli:unitDenominator>'
        '</xbrli:divide></xbrli:unit>'
        '<ex:Assets contextRef="c1" unitRef="u-eps">12</ex:Assets>'
        "</xbrli:xbrl>"
    ).encode()
    outcome = parse_instance(read_document(data))
    from xbrlcore import Dts

    report = validate(outcome, Dts(concepts=mini_concepts()))
    assert codes(report) == []


def test_num001_numeric_item_without_unit():
    data = fixture_bytes("bad-monetary-unit.xml").replace(b' unitRef="u-pure"', b"")
    outcome = parse_instance(read_document(data))
    from xbrlcore import Dts

    report = validate(outcome, Dts(concepts=mini_concepts()))
    assert codes(report) == ["NUM-001"]


def test_a_report_over_instances_sharing_a_taxonomy_lists_its_finding_once(tmp_path):
    (tmp_path / "one.xsd").write_text(
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
        ' xmlns:xbrli="http://www.xbrl.org/2003/instance" targetNamespace="urn:one">'
        '<xsd:element name="A" type="xbrli:stringItemType" substitutionGroup="xbrli:item"/>'
        "</xsd:schema>")
    instance = (
        '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:link="http://www.xbrl.org/2003/linkbase"'
        ' xmlns:xlink="http://www.w3.org/1999/xlink">'
        '<link:schemaRef xlink:type="simple" xlink:href="one.xsd"/></xbrli:xbrl>')
    path = tmp_path / "two.xml"
    outcomes = find_instances(read_document(f"<wrap>{instance}{instance}</wrap>".encode()))
    resolver = Resolver(tmp_path)
    report = build_report(
        f for o in outcomes
        for f in validate(o, discover(o.instance, resolver, base_uri=str(path))).findings)
    assert codes(report) == ["DTS-002"]
    assert report.counts["warning"] == 1


def test_dts001_unknown_concept():
    from xbrlcore import Dts

    report = validate(load("bad-ctxref.xml"), Dts(concepts=mini_concepts()))
    # manual walk: ChairmanStatement is undeclared (DTS-001); the Assets item
    # dangles its context (CTX-001) and, being monetary, lacks a unit (NUM-001)
    assert codes(report) == ["DTS-001", "CTX-001", "NUM-001"]
    assert report.findings[0].subject == "{%s}ChairmanStatement" % MINI_NS


def test_ftn001_dangling_arc_endpoint():
    report = validate(load("bad-footnote.xml"))
    assert codes(report) == ["FTN-001"]
    assert report.findings[0].subject == "note-ghost"
    assert report.findings[0].severity is Severity.ERROR


def test_warning_rules_t001_scn001_per003():
    report = validate(load("bad-warnings.xml"))
    assert sorted(codes(report)) == ["PER-003", "SCN-001", "T-001"]
    assert all(f.severity is Severity.WARNING for f in report.findings)
    assert report.error_count() == 0


def test_a_zoned_date_against_a_zoneless_one_is_per003():
    data = (
        '<x:xbrl xmlns:x="http://www.xbrl.org/2003/instance"><x:context id="c1">'
        '<x:entity><x:identifier scheme="urn:s">CO</x:identifier></x:entity>'
        "<x:period><x:startDate>2008-01-01</x:startDate><x:endDate>2008-12-31Z</x:endDate>"
        "</x:period></x:context></x:xbrl>"
    ).encode()
    report = validate(parse_instance(read_document(data)))
    assert codes(report) == ["PER-003"]


def test_lenient_recoveries_appear_in_report():
    report = validate(load("bad-period.xml", LENIENT))
    assert sorted(codes(report)) == ["PER-001", "PER-002"]
    assert report.counts["error"] == 2


def test_tdepth_flagged_when_validating_deep_parse():
    # The parser stops at the same guard, so the 66-deep chain is built by hand.
    fact = Item(concept=QName("urn:deep", "V"), context_ref="c-2008i", value="1")
    for i in reversed(range(66)):
        fact = Tuple(concept=QName("urn:deep", f"L{i}"), children=(fact,))
    instance = replace(load("mini-instance.xml").instance, facts=(fact,))
    report = validate(instance)
    assert codes(report) == ["T-DEPTH", "T-DEPTH"]  # depths 65 and 66


def test_validate_reports_a_chain_deeper_than_the_recursion_limit():
    fact = Tuple(concept=QName("urn:deep", "T"))
    for _ in range(1999):
        fact = Tuple(concept=QName("urn:deep", "T"), children=(fact,))
    report = validate(Instance(facts=(fact,)))
    assert codes(report) == ["T-DEPTH"] * (2000 - 64)


def test_findings_at_one_location_keep_document_order():
    # Every finding below shares one location and code, so the report keeps
    # the emission order, which must be the pre-order of the facts.
    def tup(name, *children):
        return Tuple(concept=QName("", name), children=children, context_ref="c")

    instance = Instance(facts=(tup("A", tup("B", tup("C"))), tup("D")))
    assert [f.subject for f in validate(instance).findings] == ["A", "B", "C", "D"]


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------


def test_report_ordering_is_location_then_code():
    report = validate(load("bad-warnings.xml"))
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)


def test_counts_match_findings():
    report = validate(load("bad-warnings.xml"))
    assert report.counts["warning"] == len(report.findings)
    assert sum(report.counts.values()) == len(report.findings)


def test_determinism_repeated_validate():
    a = validate(load("bad-warnings.xml"))
    b = validate(load("bad-warnings.xml"))
    assert a == b


def test_dts_never_removes_findings():
    without = validate(load("bad-ctxref.xml"))
    from xbrlcore import Dts

    with_dts = validate(load("bad-ctxref.xml"), Dts(concepts=mini_concepts()))
    assert set(codes(without)) <= set(codes(with_dts))


def test_zero_finding_fixture_stays_zero_after_round_trip():
    dts = fixture_dts("mini-instance.xml")
    first = load("mini-instance.xml").instance
    assert codes(validate(first, dts)) == []
    again = parse_instance(read_document(serialize(first))).instance
    assert codes(validate(again, dts)) == []


def test_ctx001_soundness_against_brute_force():
    for name in ("mini-instance.xml", "bad-ctxref.xml", "bad-warnings.xml"):
        instance = load(name).instance
        report = validate(instance)
        flagged = {f.subject for f in report.findings if f.code == "CTX-001"}
        brute = {
            item.id if item.id else item.concept.clark()
            for item in instance.iter_items()
            if all(cid != item.context_ref for cid in instance.contexts)
        }
        assert flagged == brute


def test_input_digest_is_none_unless_supplied():
    instance = load("mini-instance.xml").instance
    assert validate(instance).input_digest is None
    explicit = validate(instance, input_digest="sha256:feed")
    assert explicit.input_digest == "sha256:feed"


# ---------------------------------------------------------------------------
# rule catalog
# ---------------------------------------------------------------------------


def test_catalog_contains_ctx001_error():
    rule = {r.code: r for r in rule_catalog()}["CTX-001"]
    assert rule.severity is Severity.ERROR
    assert not rule.requires_dts


def test_catalog_codes_unique_and_stable():
    catalog = rule_catalog()
    assert len({r.code for r in catalog}) == len(catalog)
    assert catalog == rule_catalog()


def test_every_emitted_code_is_in_catalog():
    from xbrlcore import find_instances

    known = {r.code for r in rule_catalog()}
    plans = [
        ("mini-instance.xml", ParseOptions(), True),
        ("bad-ctxref.xml", ParseOptions(), False),
        ("bad-monetary-unit.xml", ParseOptions(), True),
        ("bad-footnote.xml", ParseOptions(), False),
        ("bad-warnings.xml", ParseOptions(), False),
        ("bad-period.xml", LENIENT, False),
        ("mini-embedded.xml", LENIENT, False),
    ]
    for name, options, with_dts in plans:
        outcomes = find_instances(read_document(fixture_bytes(name)), options)
        dts = fixture_dts(name) if with_dts else None
        for outcome in outcomes:
            assert set(codes(validate(outcome, dts))) <= known


def test_catalog_matches_rules_doc():
    doc = (FIXTURES.parent / "rules.md").read_text(encoding="utf-8")
    documented = [line.split("|")[1].strip() for line in doc.splitlines()
                  if line.startswith("| ") and not line.startswith("| Code")
                  and not line.startswith("| ---")]
    assert documented == [r.code for r in rule_catalog()]



# ---------------------------------------------------------------------------
# the item rules against a per-fact reference
# ---------------------------------------------------------------------------


def reference_findings(instance: Instance, concepts) -> list[Finding]:
    """Every finding ``validate`` must report, checked fact by fact, rule by rule."""
    found = []

    def facts(children, depth):
        for fact in children:
            yield fact, depth
            if isinstance(fact, Tuple):
                yield from facts(fact.children, depth + 1)

    for fact, depth in facts(instance.facts, 1):
        name = fact.concept.clark()

        def flag(code, message):
            found.append(Finding.of(code, message, fact.source_location, fact.id or name))

        if isinstance(fact, Tuple):
            if fact.context_ref is not None:
                flag("T-001", f"tuple {name} carries contextRef {fact.context_ref!r}")
            if depth > DEFAULT_MAX_TUPLE_DEPTH:
                flag("T-DEPTH", f"tuple {name} is nested deeper than {DEFAULT_MAX_TUPLE_DEPTH}")
            if concepts is not None and fact.concept not in concepts:
                flag("DTS-001", f"concept {name} is not declared in the taxonomy set")
            continue
        if all(cid != fact.context_ref for cid in instance.contexts):
            flag("CTX-001", f"item {name} references undefined context {fact.context_ref!r}")
        unit = None
        if fact.unit_ref is not None:
            units = [u for uid, u in instance.units.items() if uid == fact.unit_ref]
            if units:
                unit = units[0]
            else:
                flag("UNT-001", f"item {name} references undefined unit {fact.unit_ref!r}")
        if concepts is None:
            continue
        if fact.concept not in concepts:
            flag("DTS-001", f"concept {name} is not declared in the taxonomy set")
            continue
        kind = concepts[fact.concept].data_kind.value
        if kind in ("monetary", "shares", "numeric") and fact.unit_ref is None:
            flag("NUM-001", f"numeric item {name} has no unitRef")
        if (kind == "monetary" and unit is not None
                and all(m.namespace_uri != ISO4217_NS for m in unit.numerator)):
            flag("UNT-002", f"monetary item {name} uses unit {fact.unit_ref!r} "
                            "without an ISO 4217 measure")
    for context in instance.contexts.values():
        scenario = context.scenario
        if scenario is not None and all(isinstance(ch, str) for ch in scenario.children):
            found.append(Finding.of("SCN-001", f"context {context.id!r} has an empty scenario "
                                    "element", scenario.source_location, context.id))
        period = context.period
        if isinstance(period, Duration) and period.start.zoned != period.end.zoned:
            found.append(Finding.of(
                "PER-003", f"context {context.id!r} mixes zoned and zoneless period values; "
                "the zoneless one was assumed to be UTC", context.source_location, context.id))
    for link in instance.footnote_links:
        labels = [label for label, _ in link.locators]
        labels += [note.attributes.get(QName(XLINK_NS, "label")) for note in link.footnotes]
        for arc in link.arcs:
            for endpoint in (arc.from_label, arc.to_label):
                if endpoint not in labels:
                    found.append(Finding.of(
                        "FTN-001", f"footnote arc endpoint {endpoint!r} matches no locator "
                        "or footnote label", link.source_location, endpoint))
    return sorted(found, key=lambda f: (f.location.line, f.location.column, f.code))


EXTRA_UNITS = {
    # A monetary numerator over shares is monetary; pure over a currency is not.
    "u-eps": Unit("u-eps", (QName(ISO4217_NS, "USD"),), (QName(XBRLI_NS, "shares"),)),
    "u-rate": Unit("u-rate", (QName(XBRLI_NS, "pure"),), (QName(ISO4217_NS, "EUR"),)),
}


def spoil(rng: random.Random, instance: Instance) -> Instance:
    """Undefined contexts and units, dropped units and tuples carrying contextRef."""
    units = {**instance.units, **EXTRA_UNITS}
    context_ids = [*instance.contexts, "c-ghost"]
    unit_ids = [*units, "u-ghost"]

    def rebuild(fact):
        if isinstance(fact, Tuple):
            context_ref = rng.choice(context_ids) if rng.random() < 0.3 else fact.context_ref
            return replace(fact, children=tuple(rebuild(ch) for ch in fact.children),
                           context_ref=context_ref)
        context_ref = "c-ghost" if rng.random() < 0.2 else fact.context_ref
        roll = rng.random()
        unit_ref = (None if roll < 0.25 else rng.choice(unit_ids) if roll < 0.75
                    else fact.unit_ref)
        return replace(fact, context_ref=context_ref, unit_ref=unit_ref)

    return replace(instance, units=units, facts=tuple(rebuild(f) for f in instance.facts))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), declared=st.floats(0, 1), with_dts=st.booleans())
def test_validate_matches_a_per_fact_reference(seed, declared, with_dts):
    rng = random.Random(seed)
    spoiled = spoil(rng, gen.random_instance(rng))
    # A serialize/read round trip gives every fact its own source position.
    instance = parse_instance(read_document(serialize(spoiled))).instance
    concepts = None
    if with_dts:
        names = [QName(gen.GEN_NS, local + suffix)
                 for local in gen.CONCEPTS for suffix in ("", "Group")]
        concepts = {name: Concept(name, data_kind=rng.choice(list(DataKind)))
                    for name in names if rng.random() < declared}
    report = validate(instance, Dts(concepts=concepts) if with_dts else None)
    assert list(report.findings) == reference_findings(instance, concepts)

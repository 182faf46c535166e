from __future__ import annotations

from dataclasses import replace

from conftest import FIXTURES, fixture_bytes
from xbrlcore import (
    Item,
    ParseMode,
    ParseOptions,
    Resolver,
    QName,
    Severity,
    Tuple,
    UnresolvedContextRef,
    discover,
    load_taxonomy_schema,
    parse_instance,
    read_document,
    rule_catalog,
    serialize,
    validate,
)

MINI_NS = "http://example.com/taxonomy/mini"
LENIENT = ParseOptions(mode=ParseMode.LENIENT)


def load(name: str, options: ParseOptions = ParseOptions()):
    return parse_instance(read_document(fixture_bytes(name)), options)


def fixture_dts(name: str):
    outcome = load(name)
    return discover(outcome.instance, Resolver(FIXTURES),
                    base_uri=str(FIXTURES / name))


def mini_concepts() -> dict:
    concepts, _, _ = load_taxonomy_schema(fixture_bytes("mini-taxonomy.xsd"), "u")
    return {c.qname: c for c in concepts}


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
        brute = set()
        for item in instance.iter_items():
            try:
                instance.resolve_context(item)
            except UnresolvedContextRef:
                brute.add(item.id if item.id else item.concept.clark())
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


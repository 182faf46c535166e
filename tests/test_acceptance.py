"""Acceptance suite: one test per criterion, each printing its verdict.

Oracles are independent of the paths they check: a hand-rolled XML reader
(oracle_xml), linear scans instead of map lookups, and regex href greps
over the fixture files.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import time
from pathlib import Path

import pytest

import gen
import iso_cases
import oracle_xml
from conftest import FIXTURES, fixture_bytes
from golden_plans import GOLDEN_PLANS
from xbrlcore import (
    ParseMode,
    ParseOptions,
    Resolver,
    discover,
    fact_rows,
    find_instances,
    parse_instance,
    read_document,
    serialize,
    validate,
)
from xbrlcore.cli import main
from xbrlcore.dts import resolve_reference
from xbrlcore.parser import InvalidIso8601, parse_period

LENIENT = ParseOptions(mode=ParseMode.LENIENT)

INSTANCE_FIXTURES = [
    "mini-instance.xml", "bad-ctxref.xml", "bad-monetary-unit.xml",
    "bad-footnote.xml", "bad-warnings.xml", "cycle-instance.xml",
]

ALL_FIXTURES = INSTANCE_FIXTURES + [
    "bad-period.xml", "mini-embedded.xml", "mini-taxonomy.xsd",
    "cycle-a.xsd", "cycle-b.xsd", "not-xml.txt",
]


def verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE criterion {number} ({label}): PASS")


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_round_trip_suite():
    started = time.monotonic()
    for name in INSTANCE_FIXTURES:
        first = parse_instance(read_document(fixture_bytes(name))).instance
        second = parse_instance(read_document(serialize(first))).instance
        assert first == second, f"fixture round-trip diverged: {name}"

    # the embedded fixture carries two instances; bad-period needs lenient parse
    embedded = find_instances(read_document(fixture_bytes("mini-embedded.xml")))
    lenient_period = parse_instance(
        read_document(fixture_bytes("bad-period.xml")), LENIENT)
    for outcome in (*embedded, lenient_period):
        instance = outcome.instance
        assert parse_instance(read_document(serialize(instance))).instance == instance

    rng = random.Random(20080101)
    for i in range(200):
        model = gen.random_instance(rng)
        once = parse_instance(read_document(serialize(model))).instance
        assert once == model, f"generated instance #{i} changed through round-trip"
        twice = parse_instance(read_document(serialize(once))).instance
        assert twice == once, f"generated instance #{i} not stable on second pass"

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"round-trip suite took {elapsed:.1f}s"
    verdict(1, "round-trip, 200 generated + fixtures")


def _brute_force_ctx001_subjects(instance) -> list[str]:
    # independent pass: linear scan of the context id list per item
    ids = list(instance.contexts)
    subjects = []
    for item in instance.iter_items():
        hit = False
        for cid in ids:
            if cid == item.context_ref:
                hit = True
        if not hit:
            subjects.append(item.id if item.id else item.concept.clark())
    return sorted(subjects)


def test_criterion_2_context_rule_oracle():
    for name in INSTANCE_FIXTURES:
        instance = parse_instance(read_document(fixture_bytes(name))).instance
        report = validate(instance)
        flagged = sorted(f.subject for f in report.findings if f.code == "CTX-001")
        assert flagged == _brute_force_ctx001_subjects(instance), name

    rng = random.Random(20081231)
    mismatches = 0
    for _ in range(100):
        corrupted = gen.corrupt_context_refs(rng, gen.random_instance(rng))
        parsed = parse_instance(read_document(serialize(corrupted))).instance
        report = validate(parsed)
        flagged = sorted(f.subject for f in report.findings if f.code == "CTX-001")
        if flagged != _brute_force_ctx001_subjects(parsed):
            mismatches += 1
    assert mismatches == 0
    verdict(2, "CTX-001 equals brute force, zero mismatches")


def _period_instance(value: str, kind: str = "instant") -> bytes:
    if kind == "instant":
        period = f"<x:instant>{value}</x:instant>"
    else:
        period = value
    return (
        '<x:xbrl xmlns:x="http://www.xbrl.org/2003/instance"><x:context id="c1">'
        '<x:entity><x:identifier scheme="urn:s">CO</x:identifier></x:entity>'
        f"<x:period>{period}</x:period></x:context></x:xbrl>"
    ).encode()


def test_criterion_3_iso8601_conformance():
    from xbrlcore.iso8601 import parse_point

    assert len(iso_cases.VALID_POINTS) + len(iso_cases.INVALID_POINTS) >= 30
    for text in iso_cases.VALID_POINTS:
        assert parse_point(text).raw == text
        outcome = parse_instance(read_document(_period_instance(text)))
        assert len(outcome.instance.contexts) == 1, text
        assert not outcome.recovered_findings

    for text in iso_cases.INVALID_POINTS:
        with pytest.raises(ValueError):
            parse_point(text)

    for text in iso_cases.INVALID_AFTER_TRIM:
        document = read_document(_period_instance(text))
        period_el = document.child_elements()[0].child_elements()[1]
        with pytest.raises(InvalidIso8601):
            parse_period(period_el)
        outcome = parse_instance(document, LENIENT)
        # never a parsed Period: the context is dropped, PER-001 emitted
        assert outcome.instance.contexts == {}, text
        assert [f.code for f in outcome.recovered_findings] == ["PER-001"], text
        report = validate(outcome)
        assert [f.code for f in report.findings] == ["PER-001"], text
    verdict(3, "ISO 8601 table classified, invalid -> PER-001")


def test_criterion_4_monetary_unit_rule():
    def load(name):
        return parse_instance(read_document(fixture_bytes(name))).instance

    def dts_for(name):
        return discover(load(name), Resolver(FIXTURES),
                        base_uri=str(FIXTURES / name))

    bad = validate(load("bad-monetary-unit.xml"), dts_for("bad-monetary-unit.xml"))
    assert [f.code for f in bad.findings] == ["UNT-002"]
    assert bad.counts["error"] == 1

    good = validate(load("mini-instance.xml"), dts_for("mini-instance.xml"))
    assert [f.code for f in good.findings] == []

    without = validate(load("bad-monetary-unit.xml"))
    assert "UNT-002" in without.skipped_rules
    assert all(f.code != "UNT-002" for f in without.findings)
    verdict(4, "UNT-002 fires once with taxonomy, skipped without")


def test_criterion_5_embedded_instance_discovery():
    data = fixture_bytes("mini-embedded.xml")
    oracle_outer = oracle_xml.outer_xbrl_roots(oracle_xml.parse(data))
    outcomes = find_instances(read_document(data))
    assert len(outcomes) == len(oracle_outer) == 2

    def oracle_identifier(node):
        for el in node.elements():
            if el.name == (oracle_xml.XBRLI, "identifier"):
                return el.text()
        return None

    got = [next(iter(o.instance.contexts.values())).entity.identifier
           for o in outcomes]
    assert got == [oracle_identifier(n) for n in oracle_outer] == ["ALPHA", "BETA"]

    locations = [o.instance.source_location for o in outcomes]
    assert locations == sorted(locations)
    verdict(5, "non-nested xbrl roots, outer-first, oracle-matched")


class _CountingResolver(Resolver):
    def __init__(self, root):
        super().__init__(root)
        self.fetched: list[str] = []

    def fetch(self, uri: str) -> bytes:
        self.fetched.append(uri)
        return super().fetch(uri)


def test_criterion_6_dts_closure():
    for name in ("mini-instance.xml", "cycle-instance.xml"):
        instance = parse_instance(read_document(fixture_bytes(name))).instance
        resolver = _CountingResolver(FIXTURES)
        base = str(FIXTURES / name)
        dts = discover(instance, resolver, base_uri=base)
        assert not dts.limit_exceeded
        # each document fetched and loaded exactly once, cycle included
        assert sorted(resolver.fetched) == sorted(set(resolver.fetched))
        assert sorted(dts.documents) == sorted(set(resolver.fetched))

        # independent href-grep oracle over instance and loaded files
        # (only taxonomy references in the instance, not footnote locators)
        edges = [(base, href) for href in re.findall(
            r'<link:(?:schema|linkbase)Ref[^>]*xlink:href="([^"]+)"',
            fixture_bytes(name).decode())]
        for uri in dts.documents:
            text = Path(uri).read_text(encoding="utf-8")
            for href in re.findall(r'(?:schemaLocation|xlink:href)="([^"]+)"', text):
                edges.append((uri, href))
        covered = set(dts.documents) | {u for u, _ in dts.unresolved}
        for referrer, href in edges:
            assert resolve_reference(referrer, href) in covered, (referrer, href)

    cycle = discover(
        parse_instance(read_document(fixture_bytes("cycle-instance.xml"))).instance,
        Resolver(FIXTURES), base_uri=str(FIXTURES / "cycle-instance.xml"),
    )
    assert len(cycle.documents) == 2 and len(cycle.concepts) == 2
    verdict(6, "closure terminates, single-load, href oracle covered")


def test_criterion_7_determinism_and_golden_reports(repo_root, capsys):
    for name in ALL_FIXTURES:
        argv = ["validate", f"fixtures/{name}", "--format", "json"]
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second, f"validate not deterministic on {name}"

    for golden_name, argv in GOLDEN_PLANS.items():
        code, out, _ = run_cli(capsys, argv)
        want = (FIXTURES / "golden" / golden_name).read_text(encoding="utf-8")
        assert out == want, f"golden mismatch: {golden_name}"
    verdict(7, "byte-identical reports, golden files exact")


def test_criterion_8_cli_contract(repo_root, capsys):
    code, _, _ = run_cli(capsys, ["validate", "fixtures/bad-ctxref.xml"])
    assert code == 1
    code, _, _ = run_cli(capsys, [
        "validate", "fixtures/mini-instance.xml", "--taxonomy-root", "fixtures/",
    ])
    assert code == 0
    code, _, _ = run_cli(capsys, ["validate", "fixtures/not-xml.txt"])
    assert code == 2

    code, out, _ = run_cli(capsys, ["facts", "fixtures/mini-instance.xml",
                                    "--format", "csv"])
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    instance = parse_instance(
        read_document(fixture_bytes("mini-instance.xml"))).instance
    expected = [list(gen_row.as_tuple()) for gen_row in fact_rows(instance)]
    assert parsed[0] == list(csv.reader(io.StringIO(
        "concept,value,context_id,entity,period,unit,tuple_path")))[0]
    assert parsed[1:] == expected
    verdict(8, "exit codes {1,0,2}, CSV lossless")

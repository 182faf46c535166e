from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xbrlcore import Resolver, cli
from xbrlcore.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(repo_root, *argv, **env) -> subprocess.CompletedProcess:
    """``python -m xbrlcore`` on the checkout's sources, extra env vars applied."""
    env = {**os.environ, **env, "PYTHONPATH": str(repo_root / "src")}
    return subprocess.run([sys.executable, "-m", "xbrlcore", *argv],
                          capture_output=True, text=True, cwd=repo_root, env=env)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_bad_ctxref_exits_1(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/bad-ctxref.xml", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [f["code"] for f in payload["findings"]] == ["CTX-001"]


def test_validate_mini_with_taxonomy_exits_0(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/mini-instance.xml",
                       "--taxonomy-root", "fixtures/", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == []
    assert payload["skipped_rules"] == []
    assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}


def test_validate_not_xml_exits_2(repo_root, capsys, tmp_path):
    code, out, err = run(capsys, "validate", "fixtures/not-xml.txt")
    assert code == 2
    assert out == ""
    assert "validate failed" in err
    # a declaration the Namespaces in XML 1.0 constraints forbid
    path = tmp_path / "bad-ns.xml"
    for declaration in ('xmlns:p=""', 'xmlns:xml="urn:other"', 'xmlns:xmlns="urn:x"'):
        path.write_text(f'<x:xbrl xmlns:x="http://www.xbrl.org/2003/instance" {declaration}/>')
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert "validate failed at 1:0" in err


def test_validate_missing_file_exits_2(repo_root, capsys):
    code, _, err = run(capsys, "validate", "fixtures/nope.xml")
    assert code == 2
    assert "cannot read input" in err


def test_validate_warnings_only_exits_0(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/bad-warnings.xml", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(f["code"] for f in payload["findings"]) == ["PER-003", "SCN-001", "T-001"]


def test_validate_without_taxonomy_lists_skips(repo_root, capsys):
    _, out, _ = run(capsys, "validate", "fixtures/bad-monetary-unit.xml", "--format", "json")
    payload = json.loads(out)
    assert payload["findings"] == []
    assert "UNT-002" in payload["skipped_rules"]


def test_validate_text_format(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/bad-ctxref.xml")
    assert code == 1
    assert "CTX-001" in out
    assert "skipped (no taxonomy)" in out


def test_validate_lenient_mode(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/bad-period.xml",
                       "--mode", "lenient", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [f["code"] for f in payload["findings"]] == ["PER-001", "PER-002"]
    # strict mode on the same file is a parse failure
    code, _, _ = run(capsys, "validate", "fixtures/bad-period.xml")
    assert code == 2


def test_validate_embedded_lenient_reports_emb001(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/mini-embedded.xml",
                       "--mode", "lenient", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 2
    assert [f["code"] for f in payload["findings"]] == ["EMB-001"]


def test_embedded_strict_reports_emb001(repo_root, capsys):
    code, out, _ = run(capsys, "validate", "fixtures/mini-embedded.xml", "--format", "json")
    assert code == 0
    assert [f["code"] for f in json.loads(out)["findings"]] == ["EMB-001"]
    code, out, _ = run(capsys, "parse", "fixtures/mini-embedded.xml")
    assert code == 0
    assert out.count("recovered findings: 1") == 1


def test_validate_deterministic_output(repo_root, capsys):
    first = run(capsys, "validate", "fixtures/bad-warnings.xml", "--format", "json")
    second = run(capsys, "validate", "fixtures/bad-warnings.xml", "--format", "json")
    assert first == second


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------


def test_facts_csv_six_rows(repo_root, capsys):
    code, out, _ = run(capsys, "facts", "fixtures/mini-instance.xml", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["concept", "value", "context_id", "entity", "period", "unit", "tuple_path"]
    assert len(rows) == 1 + 6
    mini = "{http://example.com/taxonomy/mini}"
    usd = "{http://www.xbrl.org/2003/iso4217}USD"
    assert rows[1] == [f"{mini}Assets", "1500000", "c-2008i", "DEMO-CO",
                       "I:2008-12-31", usd, ""]
    assert rows[2][4] == "D:2008-01-01/2008-12-31"
    assert rows[4][6] == f"{mini}FinancialHighlights"


def test_facts_empty_instance_header_only(repo_root, capsys, tmp_path):
    empty = tmp_path / "empty.xml"
    empty.write_bytes(b'<x:xbrl xmlns:x="http://www.xbrl.org/2003/instance"/>')
    code, out, _ = run(capsys, "facts", str(empty), "--format", "csv")
    assert code == 0
    assert out == "concept,value,context_id,entity,period,unit,tuple_path\r\n"


def test_facts_malformed_input_exits_2(repo_root, capsys):
    code, out, err = run(capsys, "facts", "fixtures/not-xml.txt", "--format", "csv")
    assert code == 2
    assert out == "" and err


def test_facts_csv_round_trips_losslessly(repo_root, capsys):
    from xbrlcore import fact_rows, parse_instance, read_document

    _, out, _ = run(capsys, "facts", "fixtures/mini-instance.xml", "--format", "csv")
    parsed = list(csv.reader(io.StringIO(out)))[1:]
    instance = parse_instance(
        read_document(Path("fixtures/mini-instance.xml").read_bytes())
    ).instance
    expected = [list(r.as_tuple()) for r in fact_rows(instance)]
    assert parsed == expected


def test_facts_json(repo_root, capsys):
    _, out, _ = run(capsys, "facts", "fixtures/mini-instance.xml", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 6
    assert rows[0]["context_id"] == "c-2008i"


def test_facts_embedded_concatenates_instances(repo_root, capsys):
    _, out, _ = run(capsys, "facts", "fixtures/mini-embedded.xml", "--format", "json")
    rows = json.loads(out)
    assert [r["concept"].split("}")[1] for r in rows] == ["Headcount", "Remark"]


# ---------------------------------------------------------------------------
# dts
# ---------------------------------------------------------------------------


def test_dts_no_refs(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/bad-ctxref.xml")
    assert code == 0
    assert "0 documents, 0 concepts" in out


def test_dts_fixture_taxonomy(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/mini-instance.xml",
                       "--taxonomy-root", "fixtures/", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["documents"]) == 1
    assert payload["documents"][0]["kind"] == "schema"
    assert payload["concept_count"] == 4
    assert payload["unresolved"] == []


def test_dts_missing_taxonomy_is_data_not_failure(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/mini-instance.xml",
                       "--taxonomy-root", "fixtures/golden", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["documents"] == []
    assert len(payload["unresolved"]) == 1


def test_dts_cycle_fixture(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                       "--taxonomy-root", "fixtures/", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["documents"]) == 2
    assert payload["concept_count"] == 2


def test_dts_counts_each_concept_once_across_instances(repo_root, capsys, tmp_path):
    # two instances in one wrapper, both referencing the 4-concept schema
    instance = Path("fixtures/mini-instance.xml").read_text().split("?>", 1)[1]
    (tmp_path / "mini-taxonomy.xsd").write_bytes(Path("fixtures/mini-taxonomy.xsd").read_bytes())
    wrapper = tmp_path / "twice.xml"
    wrapper.write_text(f"<wrap>{instance}{instance}</wrap>")
    code, out, _ = run(capsys, "dts", str(wrapper), "--taxonomy-root", str(tmp_path))
    assert code == 0
    assert f"{wrapper}: 1 documents, 4 concepts, 0 unresolved" in out
    code, out, _ = run(capsys, "dts", str(wrapper), "--taxonomy-root", str(tmp_path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["documents"]) == 1
    assert payload["concept_count"] == 4


TWO_INSTANCE_DTS = """\
twice.xml: 1 documents, 4 concepts, 1 unresolved
  schema: mini-taxonomy.xsd
  unresolved: labels.xml (not found: labels.xml)
"""
TWO_INSTANCE_VALIDATE = """\
twice.xml: 0 error(s), 1 warning(s), 0 info
  13:2 DTS-002 warning: mini-taxonomy.xsd: concept {http://example.com/taxonomy/mini}\
SharesOutstanding declares no periodType [{http://example.com/taxonomy/mini}SharesOutstanding]
"""


def test_two_instances_fetch_each_uri_once_with_unchanged_output(
        repo_root, capsys, tmp_path, monkeypatch):
    # Both instances reference one taxonomy copy, in which one concept lacks
    # its periodType, and one missing linkbase. Each command builds one
    # resolver, so each URI is fetched once, and the finding of the shared
    # schema is reported once for the input.
    instance = Path("fixtures/mini-instance.xml").read_text().split("?>", 1)[1].replace(
        'xlink:href="mini-taxonomy.xsd"/>',
        'xlink:href="mini-taxonomy.xsd"/><link:linkbaseRef xlink:type="simple"'
        ' xlink:href="labels.xml"/>')
    (tmp_path / "twice.xml").write_text(f"<wrap>{instance}{instance}</wrap>")
    taxonomy = Path("fixtures/mini-taxonomy.xsd").read_text().replace(
        'xbrli:periodType="instant" nillable="true"', 'nillable="true"')
    (tmp_path / "mini-taxonomy.xsd").write_text(taxonomy)
    fetched = []
    fetch = Resolver.fetch

    def counting_fetch(self, uri):
        fetched.append(uri)
        return fetch(self, uri)

    monkeypatch.setattr(Resolver, "fetch", counting_fetch)
    monkeypatch.chdir(tmp_path)
    for command, expected in (("dts", TWO_INSTANCE_DTS), ("validate", TWO_INSTANCE_VALIDATE)):
        fetched.clear()
        assert run(capsys, command, "twice.xml", "--taxonomy-root", ".") == (0, expected, "")
        assert sorted(fetched) == ["labels.xml", "mini-taxonomy.xsd"]


def test_a_taxonomy_finding_is_reported_once_per_input(capsys, tmp_path, monkeypatch):
    # Two instances share a schema whose one item lacks its periodType. Each
    # also holds a footnote arc whose two endpoints match nothing, which are
    # two identical instance findings: those are all kept.
    (tmp_path / "one.xsd").write_text(
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
        ' xmlns:xbrli="http://www.xbrl.org/2003/instance" targetNamespace="urn:one">'
        '<xsd:element name="A" type="xbrli:stringItemType" substitutionGroup="xbrli:item"/>'
        "</xsd:schema>")
    instance = (
        '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:link="http://www.xbrl.org/2003/linkbase"'
        ' xmlns:xlink="http://www.w3.org/1999/xlink">'
        '<link:schemaRef xlink:type="simple" xlink:href="one.xsd"/>'
        '<link:footnoteLink xlink:type="extended">'
        '<link:footnoteArc xlink:type="arc" xlink:from="x" xlink:to="x"/>'
        "</link:footnoteLink></xbrli:xbrl>\n")
    (tmp_path / "two.xml").write_text(f"<wrap>\n{instance}{instance}</wrap>")
    monkeypatch.chdir(tmp_path)
    arc = "FTN-001 error: footnote arc endpoint 'x' matches no locator or footnote label [x]"
    code, out, _ = run(capsys, "validate", "two.xml", "--taxonomy-root", ".")
    assert (code, out) == (1, "two.xml: 4 error(s), 1 warning(s), 0 info\n"
                              "  1:131 DTS-002 warning: one.xsd: concept {urn:one}A declares no"
                              " periodType [{urn:one}A]\n"
                              f"  2:208 {arc}\n  2:208 {arc}\n  3:208 {arc}\n  3:208 {arc}\n")
    code, out, _ = run(capsys, "validate", "two.xml", "--taxonomy-root", ".", "--format", "json")
    payload = json.loads(out)
    assert [f["code"] for f in payload["findings"]] == ["DTS-002"] + ["FTN-001"] * 4
    assert payload["counts"] == {"error": 4, "warning": 1, "info": 0}


def test_dts_parse_failure_exits_2(repo_root, capsys):
    assert run(capsys, "dts", "fixtures/not-xml.txt")[0] == 2


# ---------------------------------------------------------------------------
# rules / parse
# ---------------------------------------------------------------------------


def test_rules_text_one_line_per_rule(repo_root, capsys):
    from xbrlcore import rule_catalog

    code, out, _ = run(capsys, "rules")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == len(rule_catalog())


def test_rules_takes_no_mode(repo_root):
    proc = run_module(repo_root, "rules", "--mode", "lenient")
    assert proc.returncode == 2
    assert "unrecognized arguments: --mode lenient" in proc.stderr


@pytest.mark.parametrize("command", ["validate", "dts"])
def test_allow_network_is_a_usage_error(repo_root, command):
    # Taxonomy references are read only under --taxonomy-root.
    proc = run_module(repo_root, command, "fixtures/mini-instance.xml", "--allow-network")
    assert proc.returncode == 2
    assert "unrecognized arguments: --allow-network" in proc.stderr


def test_rules_json_codes_unique(repo_root, capsys):
    _, out, _ = run(capsys, "rules", "--format", "json")
    payload = json.loads(out)
    codes = [r["code"] for r in payload]
    assert len(set(codes)) == len(codes)


def test_parse_summary(repo_root, capsys):
    code, out, _ = run(capsys, "parse", "fixtures/mini-instance.xml", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    summary = payload["instances"][0]
    assert summary["facts"] == 7
    assert summary["items"] == 6
    assert summary["contexts"] == 2
    assert summary["units"] == 1
    assert summary["schema_refs"] == ["mini-taxonomy.xsd"]


def test_parse_text_output(repo_root, capsys):
    code, out, _ = run(capsys, "parse", "fixtures/mini-embedded.xml")
    assert code == 0
    assert "2 instance(s)" in out


# ---------------------------------------------------------------------------
# env overrides, console entry
# ---------------------------------------------------------------------------


def test_env_var_overrides(repo_root, capsys, monkeypatch):
    monkeypatch.setenv("XBRLCORE_FORMAT", "json")
    monkeypatch.setenv("XBRLCORE_TAXONOMY_ROOT", "fixtures/")
    code, out, _ = run(capsys, "validate", "fixtures/mini-instance.xml")
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped_rules"] == []


def test_flag_beats_env(repo_root, capsys, monkeypatch):
    monkeypatch.setenv("XBRLCORE_FORMAT", "json")
    _, out, _ = run(capsys, "validate", "fixtures/bad-ctxref.xml", "--format", "text")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_module_entry_point(repo_root):
    proc = run_module(repo_root, "validate", "fixtures/bad-ctxref.xml", "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["counts"]["error"] == 1


def test_facts_csv_quotes_awkward_values(repo_root, capsys, tmp_path):
    awkward = tmp_path / "awkward.xml"
    awkward.write_bytes(
        b'<x:xbrl xmlns:x="http://www.xbrl.org/2003/instance" xmlns:e="urn:q">'
        b'<x:context id="c1"><x:entity>'
        b'<x:identifier scheme="urn:s">A "quoted", entity</x:identifier></x:entity>'
        b"<x:period><x:instant>2008-12-31</x:instant></x:period></x:context>"
        b'<e:Note contextRef="c1">value, with "quotes" and commas</e:Note>'
        b"</x:xbrl>"
    )
    code, out, _ = run(capsys, "facts", str(awkward), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == 'value, with "quotes" and commas'
    assert rows[1][3] == 'A "quoted", entity'


# Fact rows hold XML text, so any character XML 1.0 can carry, weighted
# towards the ones CSV quoting turns on.
CSV_FIELD = st.text(st.one_of(
    st.sampled_from(',"\r\n \t'),
    st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
), max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rows=st.lists(st.lists(CSV_FIELD, min_size=7, max_size=7), max_size=6))
def test_facts_csv_text_is_what_csv_writer_writes(rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    assert cli._csv_text(rows) == buffer.getvalue()


def test_dts_limit_flag_via_cli(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                       "--taxonomy-root", "fixtures/", "--max-documents", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["limit_exceeded"] is True
    assert len(payload["documents"]) == 1
    assert len(payload["unresolved"]) == 1


def test_dts_text_names_the_document_limit(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                       "--taxonomy-root", "fixtures/", "--max-documents", "1")
    assert code == 0
    assert out.splitlines()[-1] == "  document limit 1 reached; result is partial"


def test_max_documents_env_override(repo_root, capsys, monkeypatch):
    monkeypatch.setenv("XBRLCORE_MAX_DOCUMENTS", "1")
    _, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                    "--taxonomy-root", "fixtures/", "--format", "json")
    assert json.loads(out)["limit_exceeded"] is True


@pytest.mark.parametrize("variable", ["MAX_DOCUMENTS"])
def test_bad_numeric_env_var_is_a_usage_error(repo_root, variable):
    env = {"XBRLCORE_" + variable: "abc"}
    flag = "--" + variable.lower().replace("_", "-")
    rules = run_module(repo_root, "rules", **env)
    assert rules.returncode == 0
    for command in ("validate", "dts"):
        proc = run_module(repo_root, command, "fixtures/mini-instance.xml", **env)
        assert proc.returncode == 2
        assert f"argument {flag}: invalid int value: 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["validate", "dts"])
def test_negative_document_limit_is_a_usage_error(repo_root, capsys, monkeypatch, command):
    message = "argument --max-documents: must be 0 or more, not -5"
    assert message in usage_error(capsys, command, "fixtures/mini-instance.xml",
                                  "--taxonomy-root", "fixtures/", "--max-documents", "-5")
    monkeypatch.setenv("XBRLCORE_MAX_DOCUMENTS", "-5")
    assert message in usage_error(capsys, command, "fixtures/mini-instance.xml",
                                  "--taxonomy-root", "fixtures/")


def test_zero_document_limit_loads_no_document(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/mini-instance.xml",
                       "--taxonomy-root", "fixtures/", "--max-documents", "0", "--format", "json")
    payload = json.loads(out)
    assert (code, payload["documents"], payload["limit_exceeded"]) == (0, [], True)


def usage_error(capsys, *argv) -> str:
    """Run ``argv``, require an argparse usage error (exit 2, no output), return stderr."""
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    return captured.err


@pytest.mark.parametrize("command", ["parse", "validate", "dts"])
def test_csv_is_a_usage_error_except_for_facts(repo_root, capsys, command):
    err = usage_error(capsys, command, "fixtures/mini-instance.xml", "--format", "csv")
    assert "argument --format: invalid choice: 'csv' (choose from 'json', 'text')" in err
    assert err.startswith(f"usage: xbrlcore {command} ")


@pytest.mark.parametrize("variable, value", [("FORMAT", "bogus"), ("FORMAT", "csv"),
                                             ("MODE", "lenint")])
def test_bad_env_choice_is_a_usage_error(repo_root, capsys, monkeypatch, variable, value):
    monkeypatch.setenv("XBRLCORE_" + variable, value)
    flag = "--" + variable.lower()
    for command in ("parse", "validate", "dts"):
        err = usage_error(capsys, command, "fixtures/mini-instance.xml")
        assert f"argument {flag}: invalid choice: {value!r}" in err
    # a flag given on the command line is checked instead of the environment
    assert run(capsys, "validate", "fixtures/mini-instance.xml",
               flag, "json" if variable == "FORMAT" else "strict")[0] == 0


def test_env_choice_applies_only_where_it_is_valid(repo_root, capsys, monkeypatch):
    monkeypatch.setenv("XBRLCORE_FORMAT", "csv")
    monkeypatch.setenv("XBRLCORE_MODE", "lenint")
    # facts writes csv; rules has no --mode and reads no XBRLCORE_MODE
    err = usage_error(capsys, "facts", "fixtures/mini-instance.xml")
    assert "argument --mode: invalid choice: 'lenint'" in err
    monkeypatch.setenv("XBRLCORE_MODE", "lenient")
    code, out, _ = run(capsys, "facts", "fixtures/mini-instance.xml")
    assert code == 0 and out.startswith("concept,value,")
    monkeypatch.setenv("XBRLCORE_MODE", "lenint")
    assert "argument --format: invalid choice: 'csv'" in usage_error(capsys, "rules")
    monkeypatch.setenv("XBRLCORE_FORMAT", "json")
    code, out, _ = run(capsys, "rules")
    assert code == 0 and json.loads(out)


# ---------------------------------------------------------------------------
# discovery depth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["validate", "dts"])
def test_max_depth_is_a_usage_error(repo_root, capsys, command):
    err = usage_error(capsys, command, "fixtures/mini-instance.xml", "--max-depth", "3")
    assert "unrecognized arguments: --max-depth 3" in err


def test_an_import_chain_deeper_than_16_is_discovered_whole(capsys, tmp_path, monkeypatch):
    ns = "urn:chain"
    for i in range(20):
        imports = f'<xsd:import namespace="{ns}" schemaLocation="s{i + 1}.xsd"/>' if i < 19 else ""
        (tmp_path / f"s{i}.xsd").write_text(
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
            f' xmlns:xbrli="http://www.xbrl.org/2003/instance" targetNamespace="{ns}">'
            f'<xsd:element name="C{i}" type="xbrli:stringItemType"'
            f' substitutionGroup="xbrli:item" xbrli:periodType="instant"/>{imports}</xsd:schema>')
    (tmp_path / "in.xml").write_text(
        '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"'
        ' xmlns:link="http://www.xbrl.org/2003/linkbase"'
        f' xmlns:xlink="http://www.w3.org/1999/xlink" xmlns:c="{ns}">'
        '<link:schemaRef xlink:type="simple" xlink:href="s0.xsd"/>'
        '<xbrli:context id="c1"><xbrli:entity>'
        '<xbrli:identifier scheme="urn:s">E</xbrli:identifier></xbrli:entity>'
        "<xbrli:period><xbrli:instant>2008-12-31</xbrli:instant></xbrli:period>"
        '</xbrli:context><c:C18 contextRef="c1">deep</c:C18></xbrli:xbrl>')
    monkeypatch.chdir(tmp_path)
    # the variable that once bounded the depth is no longer read
    monkeypatch.setenv("XBRLCORE_MAX_DEPTH", "1")
    code, out, _ = run(capsys, "validate", "in.xml", "--taxonomy-root", ".")
    assert (code, out) == (0, "in.xml: 0 error(s), 0 warning(s), 0 info\n")
    code, out, _ = run(capsys, "dts", "in.xml", "--taxonomy-root", ".", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["limit_exceeded"] is False and payload["unresolved"] == []
    assert [d["uri"] for d in payload["documents"]] == [f"s{i}.xsd" for i in range(20)]
    assert payload["concept_count"] == 20


# ---------------------------------------------------------------------------
# deep nesting
# ---------------------------------------------------------------------------


def deep_wrapper(tmp_path, inner: str) -> str:
    depth = 5000
    path = tmp_path / "deep.xml"
    path.write_text("<w>" * depth + inner + "</w>" * depth)
    return str(path)


def test_deep_wrapper_without_instance_exits_2(repo_root, tmp_path):
    proc = run_module(repo_root, "validate", deep_wrapper(tmp_path, ""))
    assert proc.returncode == 2
    assert "no xbrl element found" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deep_wrapper_with_instance_at_bottom_exits_0(repo_root, tmp_path):
    inner = '<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"/>'
    proc = run_module(repo_root, "validate", deep_wrapper(tmp_path, inner))
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# the same report bytes in every environment
# ---------------------------------------------------------------------------

# (PYTHONHASHSEED, PYTHONIOENCODING, LC_ALL); None leaves the variable unset.
# Together they take every value of each variable once or more.
ENVIRONMENTS = [
    ("0", "utf-8", None),
    ("1", "ascii", None),
    ("random", "latin-1", None),
    ("1", "latin-1", "C"),
    ("random", "ascii", "C"),
    ("0", None, "C"),
]


def test_reports_are_the_same_bytes_in_every_environment(repo_root, tmp_path):
    # A non-ASCII value, a non-ASCII finding subject (an item whose context
    # is undefined) and a non-ASCII input path; on stderr, a strict failure
    # naming a non-ASCII item (one with no contextRef) and a usage error
    # quoting a non-ASCII value.
    text = (repo_root / "fixtures" / "mini-instance.xml").read_text(encoding="utf-8")
    text = text.replace(">250000</ex:Revenue>", ">25€0é</ex:Revenue>", 1)
    path = tmp_path / "bilanz-ä.xml"
    path.write_text(text.replace(
        "</xbrli:xbrl>", '<ex:Umsätze contextRef="c-ghost">1</ex:Umsätze></xbrli:xbrl>'),
        encoding="utf-8")
    strict = tmp_path / "ohne-kontext.xml"
    strict.write_text(text.replace("</xbrli:xbrl>", "<ex:Umsätze>1</ex:Umsätze></xbrli:xbrl>"),
                      encoding="utf-8")
    commands = [("facts", path, "--format", "csv"), ("facts", path, "--format", "text"),
                ("validate", path, "--format", "text"), ("parse", path, "--format", "text"),
                ("validate", strict), ("facts", path, "--format", "tëxt")]
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("XBRLCORE_")
            and k not in ("PYTHONHASHSEED", "PYTHONIOENCODING", "LC_ALL")}
    base["PYTHONPATH"] = str(repo_root / "src")

    def run_in(case):
        command, (seed, encoding, lc_all) = case
        env = dict(base, PYTHONHASHSEED=seed)
        env.update((k, v) for k, v in (("PYTHONIOENCODING", encoding), ("LC_ALL", lc_all)) if v)
        proc = subprocess.run([sys.executable, "-m", "xbrlcore", *map(str, command)],
                              capture_output=True, cwd=repo_root, env=env)
        assert b"Traceback" not in proc.stderr, (case, proc.stderr.decode(errors="replace"))
        return proc.stdout, proc.stderr, proc.returncode

    cases = [(command, environment) for command in commands for environment in ENVIRONMENTS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(cases, pool.map(run_in, cases)))
    for command in commands:
        reference = results[command, ENVIRONMENTS[0]]
        for environment in ENVIRONMENTS[1:]:
            assert results[command, environment] == reference, (command, environment)
    facts_csv, _, validate_text, parse_text, failure, usage = (
        results[command, ENVIRONMENTS[0]] for command in commands)
    assert "25€0é".encode() in facts_csv[0] and facts_csv[1:] == (b"", 0)
    assert "}Umsätze]".encode() in validate_text[0] and validate_text[1:] == (b"", 1)
    assert str(path).encode() in parse_text[0] and parse_text[1:] == (b"", 0)
    message = "item {http://example.com/taxonomy/mini}Umsätze has no contextRef"
    assert failure == (b"", f"xbrlcore: validate failed at 44:0: {message}\n".encode(), 2)
    assert usage[0] == b"" and usage[2] == 2
    assert usage[1].endswith("argument --format: invalid choice: 'tëxt' "
                             "(choose from 'json', 'csv', 'text')\n".encode())


def test_an_ascii_stdout_gets_utf8_and_its_encoding_back(repo_root, tmp_path, monkeypatch):
    text = (repo_root / "fixtures" / "mini-instance.xml").read_text(encoding="utf-8")
    path = tmp_path / "in.xml"
    path.write_text(text.replace(">250000</ex:Revenue>", ">25€0é</ex:Revenue>", 1),
                    encoding="utf-8")
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="ascii", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["facts", str(path), "--format", "csv"]) == 0
    assert (stdout.encoding, stdout.errors) == ("ascii", "strict")
    stdout.flush()
    assert "25€0é".encode() in raw.getvalue()


def run_into_closed_stdout(repo_root, args: list[str], unbuffered: str):
    """Run the CLI with stdout a pipe whose reader has closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "xbrlcore", *args],
            stdout=write_end, stderr=subprocess.PIPE, cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src"),
                 "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)


def test_a_closed_stdout_pipe_gives_no_traceback(repo_root):
    for unbuffered in ("", "1"):
        proc = run_into_closed_stdout(
            repo_root, ["facts", "fixtures/mini-instance.xml", "--format", "csv"], unbuffered)
        assert (proc.returncode, proc.stderr) == (
            2, b"xbrlcore: cannot write output: Broken pipe\n"), unbuffered


@pytest.mark.parametrize("args", [["--help"], ["facts", "--help"]], ids=["help", "facts-help"])
def test_help_into_a_closed_stdout_pipe_keeps_the_exit_code(repo_root, args):
    # An unbuffered write fails as help is printed, a buffered one when
    # stdout is flushed after parsing.
    for unbuffered in ("", "1"):
        proc = run_into_closed_stdout(repo_root, args, unbuffered)
        assert (proc.returncode, proc.stderr) == (
            2, b"xbrlcore: cannot write output: Broken pipe\n"), unbuffered


def test_a_usage_error_with_a_closed_stdout_pipe_keeps_its_message(repo_root):
    for unbuffered in ("", "1"):
        proc = run_into_closed_stdout(repo_root, ["facts"], unbuffered)
        assert proc.returncode == 2, unbuffered
        assert proc.stderr.startswith(b"usage: xbrlcore facts ")
        assert proc.stderr.endswith(
            b"xbrlcore facts: error: the following arguments are required: input\n")


@pytest.mark.parametrize("args", [
    ["facts", "fixtures/nope.xml"], ["validate", "fixtures/not-xml.txt"], ["facts"],
], ids=["unreadable", "not-xml", "usage"])
def test_a_closed_stderr_pipe_keeps_the_exit_code(repo_root, args):
    # The message fails as it is printed when stderr is unbuffered, else
    # when the interpreter flushes stderr at exit; either way the code is 2.
    for unbuffered in ("", "1"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "xbrlcore", *args],
                stdout=subprocess.PIPE, stderr=write_end, cwd=repo_root,
                env={**os.environ, "PYTHONPATH": str(repo_root / "src"),
                     "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (2, b""), unbuffered


# One call of each command, each writing a report.
COMMANDS = {
    "parse": ["parse", "fixtures/mini-instance.xml"],
    "validate": ["validate", "fixtures/bad-ctxref.xml"],
    "facts": ["facts", "fixtures/mini-instance.xml", "--format", "csv"],
    "dts": ["dts", "fixtures/mini-instance.xml", "--taxonomy-root", "fixtures"],
    "rules": ["rules"],
}
HELP = {f"{command}-help": [command, "--help"] for command in COMMANDS}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [*COMMANDS.values(), *HELP.values()], ids=[*COMMANDS, *HELP])
def test_every_command_into_a_closed_stdout_pipe_exits_2(repo_root, args, unbuffered):
    proc = run_into_closed_stdout(repo_root, args, unbuffered)
    assert (proc.returncode, proc.stderr) == (2, b"xbrlcore: cannot write output: Broken pipe\n")


@pytest.mark.parametrize("args", [["--help"], HELP["facts-help"], ["facts"]],
                         ids=["help", "facts-help", "usage"])
def test_help_and_usage_are_the_same_bytes_at_every_terminal_width(repo_root, args,
                                                                   monkeypatch, capsys):
    # argparse wraps at the terminal's width, which it reads from COLUMNS.
    seen = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_:
            main(args)
        seen.add((exit_.value.code, *capsys.readouterr()))
    assert len(seen) == 1


def run_with_closed(repo_root, redirection: str, args: list[str]):
    """Run the CLI through ``sh`` with ``redirection`` (``>&-`` or ``2>&-``)
    closing a descriptor before Python starts, which then sets that stream to None."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m xbrlcore "$@" {redirection}', sys.executable, *args],
        capture_output=True, cwd=repo_root,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")})


@pytest.mark.parametrize("args", [COMMANDS["rules"], COMMANDS["facts"], COMMANDS["validate"],
                                  ["--help"], HELP["facts-help"]],
                         ids=["rules", "facts", "validate", "help", "facts-help"])
def test_a_stdout_closed_at_start_is_a_failed_write(repo_root, args):
    # Python sets sys.stdout to None. Exit 1 with a traceback would read as
    # "findings".
    proc = run_with_closed(repo_root, ">&-", args)
    assert (proc.returncode, proc.stderr) == (
        2, b"xbrlcore: cannot write output: Bad file descriptor\n")


def test_a_usage_error_with_a_stdout_closed_at_start_keeps_its_message(repo_root):
    proc = run_with_closed(repo_root, ">&-", ["facts"])
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"usage: xbrlcore facts ")
    assert proc.stderr.endswith(b"error: the following arguments are required: input\n")


@pytest.mark.parametrize("args, code", [
    (COMMANDS["rules"], 0), (COMMANDS["validate"], 1), (["facts", "fixtures/nope.xml"], 2),
    (["facts"], 2), (["--help"], 0),
], ids=["rules", "findings", "unreadable", "usage", "help"])
def test_a_stderr_closed_at_start_keeps_the_exit_code_and_stdout(repo_root, args, code):
    proc = run_with_closed(repo_root, "2>&-", args)
    assert (proc.returncode, proc.stdout) == (code, stdout_of(repo_root, args))


def stdout_of(repo_root, args: list[str]) -> bytes:
    """The CLI's stdout bytes for ``args``, with stderr a pipe that is read."""
    return subprocess.run([sys.executable, "-m", "xbrlcore", *args], capture_output=True,
                          cwd=repo_root, env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
                          ).stdout


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stderr_pipe_keeps_a_report_and_its_exit_code(repo_root, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for args, code in ((COMMANDS["validate"], 1), (COMMANDS["facts"], 0)):
            proc = subprocess.run(
                [sys.executable, "-m", "xbrlcore", *args],
                stdout=subprocess.PIPE, stderr=write_end, cwd=repo_root,
                env={**os.environ, "PYTHONPATH": str(repo_root / "src"),
                     "PYTHONUNBUFFERED": unbuffered})
            assert (proc.returncode, proc.stdout) == (code, stdout_of(repo_root, args)), args
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_goes_mid_report_gives_one_line_and_exit_2(repo_root, tmp_path, unbuffered):
    # The report is several times a pipe's buffer, so the write is still
    # under way when the reader closes its end. Unbuffered, the raw file's
    # write returns the part it wrote, and the rest must be written until
    # the write fails.
    facts = "".join(f'<ex:A contextRef="c1">{n}</ex:A>' for n in range(20_000))
    path = tmp_path / "big.xml"
    path.write_text(f'<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance" '
                    f'xmlns:ex="urn:ex">{facts}</xbrli:xbrl>')
    with subprocess.Popen([sys.executable, "-m", "xbrlcore", "facts", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=repo_root,
                          env={**os.environ, "PYTHONPATH": str(repo_root / "src"),
                               "PYTHONUNBUFFERED": unbuffered}) as proc:
        try:
            assert os.read(proc.stdout.fileno(), 10) == b"concept\tva"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == b"xbrlcore: cannot write output: Broken pipe\n"
        finally:
            proc.kill()


def test_a_missing_stdout_in_process_is_a_failed_write(repo_root, capsys):
    with contextlib.redirect_stdout(None):
        assert main(["rules"]) == 2
        assert main(["--help"]) == 2
    assert capsys.readouterr().err == "xbrlcore: cannot write output: Bad file descriptor\n" * 2


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

START_UP_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import xbrlcore.cli
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = xbrlcore.cli.main(["validate", "fixtures/mini-instance.xml"])
validated = set(sys.modules) - before
import dataclasses
from xbrlcore import Item
print(code)
print(*sorted(imported))
print(*sorted(validated))
print(*[f.name for f in dataclasses.fields(Item)])
"""


def test_cli_start_up_loads_only_the_modules_it_uses(repo_root):
    # Each CLI call pays for what importing the CLI loads. The records load
    # dataclasses (and with it inspect, ast, dis and tokenize) only when a
    # dataclasses function is called on one; json, csv and hashlib load in
    # the commands and formats that use them.
    proc = subprocess.run([sys.executable, "-c", START_UP_PROBE], capture_output=True,
                          text=True, cwd=repo_root, check=True,
                          env={**os.environ, "PYTHONPATH": str(repo_root / "src")})
    code, imported, validated, fields = proc.stdout.splitlines()
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv", "hashlib"}
    assert unused & set(imported.split()) == set()
    assert {"json", "csv"} & set(validated.split()) == set()
    assert "hashlib" in validated.split()  # the report's input digest
    assert (code, fields) == ("0", "concept context_ref value unit_ref decimals precision id "
                                   "source_location")

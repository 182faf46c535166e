from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_validate_not_xml_exits_2(repo_root, capsys):
    code, out, err = run(capsys, "validate", "fixtures/not-xml.txt")
    assert code == 2
    assert out == ""
    assert "validate failed" in err


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


def test_dts_limit_flag_via_cli(repo_root, capsys):
    code, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                       "--taxonomy-root", "fixtures/", "--max-documents", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["limit_exceeded"] is True
    assert len(payload["documents"]) == 1
    assert len(payload["unresolved"]) == 1


def test_max_documents_env_override(repo_root, capsys, monkeypatch):
    monkeypatch.setenv("XBRLCORE_MAX_DOCUMENTS", "1")
    _, out, _ = run(capsys, "dts", "fixtures/cycle-instance.xml",
                    "--taxonomy-root", "fixtures/", "--format", "json")
    assert json.loads(out)["limit_exceeded"] is True


@pytest.mark.parametrize("variable", ["MAX_DEPTH", "MAX_DOCUMENTS"])
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

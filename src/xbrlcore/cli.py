"""Command-line surface: parse, validate, facts, dts, rules.

Exit codes: 0 success (validate: no Error findings), 1 validation errors,
2 parse/read failure. Data goes to stdout, diagnostics to stderr, and all
renderings are deterministic. Flags fall back to XBRLCORE_* environment
variables, then to defaults. Network fetching is off unless
--allow-network is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .dts import Dts, Resolver, build_resolver, discover, DEFAULT_MAX_DEPTH, DEFAULT_MAX_DOCUMENTS
from .errors import XbrlError
from .facttable import CSV_HEADER, fact_rows
from .findings import Finding, rule_catalog
from .parser import ParseMode, ParseOptions, ParseOutcome, find_instances
from .validation import build_report, digest_bytes, validate
from .xmltree import read_document

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_PARSE_FAILURE = 2


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get("XBRLCORE_" + name, fallback)


def _env_flag(name: str) -> bool:
    return (_env(name) or "").strip().lower() in ("1", "true", "yes", "on")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbrlcore",
        description="Parse, validate, and extract facts from XBRL instance documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input", help="instance document path")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=_env("FORMAT", "text"),
                       help="output format (default: text; csv applies to facts only)")
        p.add_argument("--mode", choices=("strict", "lenient"),
                       default=_env("MODE", "strict"),
                       help="strict fails on the first blocking error; "
                            "lenient recovers and reports findings")

    def add_taxonomy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--taxonomy-root", default=_env("TAXONOMY_ROOT"),
                       help="directory taxonomy references resolve under; "
                            "without it, taxonomy-dependent rules are skipped")
        p.add_argument("--allow-network", action="store_true",
                       default=_env_flag("ALLOW_NETWORK"),
                       help="fetch http(s) taxonomy references (off by default)")
        # String defaults are converted by argparse, and only for the
        # subcommand in use, so a bad value is a usage error of that command.
        p.add_argument("--max-depth", type=int,
                       default=_env("MAX_DEPTH", str(DEFAULT_MAX_DEPTH)),
                       help="discovery depth limit")
        p.add_argument("--max-documents", type=int,
                       default=_env("MAX_DOCUMENTS", str(DEFAULT_MAX_DOCUMENTS)),
                       help="discovery document limit")

    add_common(sub.add_parser("parse", help="parse and summarize instances"))
    p_validate = sub.add_parser("validate", help="validate against the rule catalog")
    add_common(p_validate)
    add_taxonomy(p_validate)
    add_common(sub.add_parser(
        "facts",
        help="flatten items to rows (periods I:date, D:start/end, F; "
             "concepts and measures in {uri}local form)",
    ))
    p_dts = sub.add_parser("dts", help="list the discoverable taxonomy set")
    add_common(p_dts)
    add_taxonomy(p_dts)
    add_common(sub.add_parser("rules", help="list the validation rule catalog"),
               with_input=False)
    return parser


def _parse_options(args: argparse.Namespace) -> ParseOptions:
    mode = ParseMode.LENIENT if args.mode == "lenient" else ParseMode.STRICT
    return ParseOptions(mode=mode)


def _load_instances(args: argparse.Namespace) -> tuple[bytes, list[ParseOutcome]]:
    with open(args.input, "rb") as handle:
        data = handle.read()
    outcomes = find_instances(read_document(data), _parse_options(args))
    if not outcomes:
        raise XbrlError("no xbrl element found in input")
    return data, outcomes


def _discover_dts(args: argparse.Namespace, resolver: Resolver,
                  outcome: ParseOutcome) -> Dts:
    return discover(
        outcome.instance, resolver, base_uri=args.input,
        max_documents=args.max_documents, max_depth=args.max_depth,
    )


def _finding_dict(finding: Finding) -> dict:
    return {
        "code": finding.code,
        "severity": finding.severity.value,
        "message": finding.message,
        "line": finding.location.line,
        "column": finding.location.column,
        "subject": finding.subject,
    }


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    _, outcomes = _load_instances(args)
    summaries = []
    for outcome in outcomes:
        instance = outcome.instance
        summaries.append({
            "contexts": len(instance.contexts),
            "units": len(instance.units),
            "facts": instance.fact_count(),
            "items": sum(1 for _ in instance.iter_items()),
            "schema_refs": [r.href for r in instance.schema_refs],
            "linkbase_refs": [r.href for r in instance.linkbase_refs],
            "footnote_links": len(instance.footnote_links),
            "recovered_findings": len(outcome.recovered_findings),
        })
    if args.format == "json":
        _print_json({"input": args.input, "instances": summaries})
    else:
        print(f"{args.input}: {len(summaries)} instance(s)")
        for i, s in enumerate(summaries, 1):
            print(f"  instance {i}: {s['facts']} facts ({s['items']} items), "
                  f"{s['contexts']} contexts, {s['units']} units, "
                  f"{s['footnote_links']} footnote links, "
                  f"{len(s['schema_refs'])} schema refs, "
                  f"{len(s['linkbase_refs'])} linkbase refs")
            if s["recovered_findings"]:
                print(f"    recovered findings: {s['recovered_findings']}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    data, outcomes = _load_instances(args)
    resolver = build_resolver(args.taxonomy_root, args.allow_network)
    reports = [
        validate(outcome, _discover_dts(args, resolver, outcome) if args.taxonomy_root else None)
        for outcome in outcomes
    ]
    report = build_report((f for r in reports for f in r.findings), digest_bytes(data),
                          reports[0].skipped_rules)

    if args.format == "json":
        _print_json({
            "input": args.input,
            "input_digest": report.input_digest,
            "instances": len(outcomes),
            "findings": [_finding_dict(f) for f in report.findings],
            "counts": dict(report.counts),
            "skipped_rules": list(report.skipped_rules),
        })
    else:
        print(f"{args.input}: {report.counts['error']} error(s), "
              f"{report.counts['warning']} warning(s), {report.counts['info']} info")
        for f in report.findings:
            subject = f" [{f.subject}]" if f.subject else ""
            print(f"  {f.location} {f.code} {f.severity.value}: {f.message}{subject}")
        if report.skipped_rules:
            print("skipped (no taxonomy): " + ", ".join(report.skipped_rules))
    return EXIT_FINDINGS if report.error_count() else EXIT_OK


def cmd_facts(args: argparse.Namespace) -> int:
    _, outcomes = _load_instances(args)
    rows = [row for outcome in outcomes for row in fact_rows(outcome.instance)]
    if args.format == "json":
        _print_json([dict(zip(CSV_HEADER, row.as_tuple())) for row in rows])
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_tuple())
        sys.stdout.write(buffer.getvalue())
    else:
        print("\t".join(CSV_HEADER))
        for row in rows:
            print("\t".join(row.as_tuple()))
    return EXIT_OK


def cmd_dts(args: argparse.Namespace) -> int:
    _, outcomes = _load_instances(args)
    documents: dict = {}
    unresolved: list = []
    concept_count = 0
    limit_exceeded = False
    resolver = build_resolver(args.taxonomy_root, args.allow_network)
    for outcome in outcomes:
        dts = _discover_dts(args, resolver, outcome)
        for uri, doc in dts.documents.items():
            documents.setdefault(uri, doc)
        for entry in dts.unresolved:
            if entry not in unresolved:
                unresolved.append(entry)
        concept_count += len(dts.concepts)
        limit_exceeded = limit_exceeded or dts.limit_exceeded
    if args.format == "json":
        _print_json({
            "input": args.input,
            "documents": [
                {"uri": d.uri, "kind": d.kind.value, "outgoing_refs": list(d.outgoing_refs)}
                for d in documents.values()
            ],
            "concept_count": concept_count,
            "unresolved": [{"href": href, "reason": reason} for href, reason in unresolved],
            "limit_exceeded": limit_exceeded,
        })
    else:
        print(f"{args.input}: {len(documents)} documents, {concept_count} concepts, "
              f"{len(unresolved)} unresolved")
        for doc in documents.values():
            print(f"  {doc.kind.value}: {doc.uri}")
        for href, reason in unresolved:
            print(f"  unresolved: {href} ({reason})")
        if limit_exceeded:
            print("  discovery limits exceeded; result is partial")
    return EXIT_OK


def cmd_rules(args: argparse.Namespace) -> int:
    if args.format == "json":
        _print_json([
            {"code": r.code, "severity": r.severity.value,
             "description": r.description, "requires_dts": r.requires_dts}
            for r in rule_catalog()
        ])
    else:
        for r in rule_catalog():
            dts_mark = " (needs taxonomy)" if r.requires_dts else ""
            print(f"{r.code:8} {r.severity.value:8} {r.description}{dts_mark}")
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "validate": cmd_validate,
    "facts": cmd_facts,
    "dts": cmd_dts,
    "rules": cmd_rules,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except XbrlError as exc:
        location = getattr(exc, "location", None)
        line = getattr(location, "line", None) or getattr(exc, "line", 0)
        column = getattr(location, "column", None) or getattr(exc, "column", 0)
        where = f" at {line}:{column}" if line else ""
        print(f"xbrlcore: {args.command} failed{where}: {exc}", file=sys.stderr)
        return EXIT_PARSE_FAILURE
    except OSError as exc:
        print(f"xbrlcore: cannot read input: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

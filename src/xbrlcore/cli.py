"""Command-line surface: parse, validate, facts, dts, rules.

Exit codes: 0 success (validate: no Error findings), 1 validation errors,
2 parse/read failure or an output that cannot be written. Data goes to
stdout, as UTF-8 whatever the locale, diagnostics to stderr, and all
renderings are deterministic. Flags fall back to XBRLCORE_* environment
variables, then to defaults. Taxonomy references are read only from files
under --taxonomy-root; nothing is fetched from the network.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from .dts import Dts, Resolver, discover, DEFAULT_MAX_DOCUMENTS
from .errors import XbrlError
from .facttable import CSV_HEADER, fact_rows
from .findings import Finding, rule_catalog
from .parser import ParseMode, ParseOptions, ParseOutcome, read_instances
from .validation import build_report, digest_bytes, validate
from .xmltree import _without_cyclic_gc

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_PARSE_FAILURE = 2


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get("XBRLCORE_" + name, fallback)


def _one_of(*choices: str):
    """An argparse ``type`` admitting only ``choices``, with argparse's own message.

    argparse converts a string default through ``type`` but never checks it
    against ``choices``, so a value from the environment is checked here,
    as one from the flag is.
    """
    def check(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
        return value
    return check


def _document_limit(value: str) -> int:
    """The argparse ``type`` of ``--max-documents``: an integer, 0 or more."""
    try:
        limit = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {limit}")
    return limit


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, except that a failed write of help or usage raises its OSError
    (argparse drops it: ``--help`` into a closed unbuffered pipe would exit 0)."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="xbrlcore",
        description="Parse, validate, and extract facts from XBRL instance documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # String defaults are converted by argparse, and only for the
    # subcommand in use, so a bad value is a usage error of that command.
    def add_format(p: argparse.ArgumentParser, *formats: str) -> None:
        p.add_argument("--format", type=_one_of(*formats), default=_env("FORMAT", "text"),
                       metavar="{%s}" % ",".join(formats), help="output format (default: text)")

    def add_common(p: argparse.ArgumentParser, *formats: str) -> None:
        p.add_argument("input", help="instance document path")
        add_format(p, *formats)
        p.add_argument("--mode", type=_one_of("strict", "lenient"),
                       default=_env("MODE", "strict"), metavar="{strict,lenient}",
                       help="strict fails on the first blocking error; "
                            "lenient recovers and reports findings")

    def add_taxonomy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--taxonomy-root", default=_env("TAXONOMY_ROOT"),
                       help="directory taxonomy references resolve under; "
                            "without it, taxonomy-dependent rules are skipped")
        p.add_argument("--max-documents", type=_document_limit,
                       default=_env("MAX_DOCUMENTS", str(DEFAULT_MAX_DOCUMENTS)),
                       help="discovery document limit")

    add_common(sub.add_parser("parse", help="parse and summarize instances"), "json", "text")
    p_validate = sub.add_parser("validate", help="validate against the rule catalog")
    add_common(p_validate, "json", "text")
    add_taxonomy(p_validate)
    add_common(sub.add_parser(
        "facts",
        help="flatten items to rows (periods I:date, D:start/end, F; "
             "concepts and measures in {uri}local form)",
    ), "json", "csv", "text")
    p_dts = sub.add_parser("dts", help="list the discoverable taxonomy set")
    add_common(p_dts, "json", "text")
    add_taxonomy(p_dts)
    add_format(sub.add_parser("rules", help="list the validation rule catalog"), "json", "text")
    return parser


class _UnreadableInput(Exception):
    """The input file could not be read; the message is the reason."""


def _load_instances(args: argparse.Namespace) -> tuple[bytes, list[ParseOutcome]]:
    try:
        with open(args.input, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _UnreadableInput(exc.strerror or exc) from None
    outcomes = read_instances(data, ParseOptions(ParseMode(args.mode)))
    if not outcomes:
        raise XbrlError("no xbrl element found in input")
    return data, outcomes


def _discover_dts(args: argparse.Namespace, resolver: Resolver,
                  outcome: ParseOutcome) -> Dts:
    return discover(outcome.instance, resolver, base_uri=args.input,
                    max_documents=args.max_documents)


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
    import json
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them.

    A row whose fields hold no comma, quote, CR or LF needs no quoting, and
    is joined directly; ``csv.writer`` writes every other row.
    """
    import csv
    lines = []
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in rows:
        line = ",".join(row)
        if (line.count(",") == len(row) - 1 and '"' not in line
                and "\r" not in line and "\n" not in line):
            lines.append(line + "\r\n")
        else:
            writer.writerow(row)
            lines.append(buffer.getvalue())
            buffer.seek(0)
            buffer.truncate()
    return "".join(lines)


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
    resolver = Resolver(args.taxonomy_root)
    reports = []
    for outcome in outcomes:
        dts = _discover_dts(args, resolver, outcome) if args.taxonomy_root else None
        reports.append(validate(outcome, dts))
    report = build_report((f for r in reports for f in r.findings),
                          digest_bytes(data), reports[0].skipped_rules)

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
        _print_json([row._asdict() for row in rows])
    elif args.format == "csv":
        sys.stdout.write(_csv_text([CSV_HEADER, *rows]))
    else:
        sys.stdout.write("".join(["\t".join(row) + "\n" for row in [CSV_HEADER, *rows]]))
    return EXIT_OK


def cmd_dts(args: argparse.Namespace) -> int:
    _, outcomes = _load_instances(args)
    documents: dict = {}
    unresolved: list = []
    concepts: set = set()
    limit_exceeded = False
    resolver = Resolver(args.taxonomy_root)
    for outcome in outcomes:
        dts = _discover_dts(args, resolver, outcome)
        for uri, doc in dts.documents.items():
            documents.setdefault(uri, doc)
        for entry in dts.unresolved:
            if entry not in unresolved:
                unresolved.append(entry)
        concepts.update(dts.concepts)
        limit_exceeded = limit_exceeded or dts.limit_exceeded
    if args.format == "json":
        _print_json({
            "input": args.input,
            "documents": [
                {"uri": d.uri, "kind": d.kind.value, "outgoing_refs": list(d.outgoing_refs)}
                for d in documents.values()
            ],
            "concept_count": len(concepts),
            "unresolved": [{"href": href, "reason": reason} for href, reason in unresolved],
            "limit_exceeded": limit_exceeded,
        })
    else:
        print(f"{args.input}: {len(documents)} documents, {len(concepts)} concepts, "
              f"{len(unresolved)} unresolved")
        for doc in documents.values():
            print(f"  {doc.kind.value}: {doc.uri}")
        for href, reason in unresolved:
            print(f"  unresolved: {href} ({reason})")
        if limit_exceeded:
            print(f"  document limit {args.max_documents} reached; result is partial")
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


@_without_cyclic_gc
def main(argv: list[str] | None = None) -> int:
    # Reports are UTF-8 whatever the locale or PYTHONIOENCODING say, so
    # the same input gives the same bytes everywhere; surrogateescape
    # writes back the bytes of a path that is not UTF-8. A text sink that
    # encodes nothing, such as a StringIO, is written as it is.
    stdout = sys.stdout
    if not isinstance(stdout, io.TextIOWrapper):
        return _run(argv)
    encoding, errors = stdout.encoding, stdout.errors
    stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        return _run(argv)
    finally:
        # Switching back flushes stdout; ``_run`` has already reported a
        # write that failed.
        with contextlib.suppress(OSError):
            stdout.reconfigure(encoding=encoding, errors=errors)


def _run(argv: list[str] | None) -> int:
    try:
        try:
            args = _build_arg_parser().parse_args(argv)
        finally:  # argparse exits here after --help: a write it left buffered fails now
            sys.stdout.flush()
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except XbrlError as exc:
        where = f" at {exc.location}" if exc.location.line else ""
        return _fail(f"{args.command} failed{where}: {exc}")
    except _UnreadableInput as exc:
        return _fail(f"cannot read input: {exc}")
    except OSError as exc:  # taxonomy reads report their own: this is stdout's
        _to_null_device(sys.stdout)
        return _fail(f"cannot write output: {exc.strerror or exc}")
    finally:
        # A closed stderr, such as a pipe whose reader has gone, keeps the
        # exit code: what it still buffers (an error or a usage message)
        # would fail again when the interpreter flushes it at exit.
        try:
            sys.stderr.flush()
        except OSError:
            _to_null_device(sys.stderr)


def _fail(message: str) -> int:
    with contextlib.suppress(OSError):  # stderr is closed; the exit code still tells
        print(f"xbrlcore: {message}", file=sys.stderr)
    return EXIT_PARSE_FAILURE


def _to_null_device(stream) -> None:
    """Point ``stream``'s descriptor at the null device: what the stream still
    buffers would fail again when the interpreter flushes it at exit."""
    with contextlib.suppress(OSError, ValueError):  # a sink with no descriptor
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())

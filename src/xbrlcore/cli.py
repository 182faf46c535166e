"""Command-line surface: parse, validate, facts, dts, rules.

Exit codes: 0 success (validate: no Error findings), 1 validation errors,
2 parse/read failure or an output that cannot be written. Flags fall back
to XBRLCORE_* environment variables, then to defaults. Taxonomy references
are read only from files under --taxonomy-root; nothing is fetched from
the network.

Each command returns its exit code and its report, which ``main`` writes
in one piece once the command has finished. One writer puts reports and
help on stdout and diagnostics on stderr, as UTF-8 in every locale: stdout
with ``surrogateescape``, stderr with ``backslashreplace``. A failed write
to stdout exits 2 with one line on stderr; a failed write to stderr keeps
the exit code. All renderings are deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
    """argparse, writing help to stdout through ``_out``, where a failed write
    raises its OSError (argparse drops it), and usage and errors to stderr
    through ``_err``, all wrapped at one width whatever the terminal."""

    def _get_formatter(self) -> argparse.HelpFormatter:  # as argparse wraps at 80 columns
        return self.formatter_class(prog=self.prog, width=78)

    def print_help(self, file=None) -> None:
        _out(self.format_help())

    def _print_message(self, message: str, file=None) -> None:
        # Usage and errors. argparse passes sys.stderr, or sys.stdout when
        # sys.stderr is None, as it is when its descriptor is closed.
        _err(message)


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


def _json(payload) -> str:
    import json
    return json.dumps(payload, indent=2) + "\n"


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
# Commands: each returns its exit code and its report
# ---------------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> tuple[int, str]:
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
        return EXIT_OK, _json({"input": args.input, "instances": summaries})
    lines = [f"{args.input}: {len(summaries)} instance(s)"]
    for i, s in enumerate(summaries, 1):
        lines.append(f"  instance {i}: {s['facts']} facts ({s['items']} items), "
                     f"{s['contexts']} contexts, {s['units']} units, "
                     f"{s['footnote_links']} footnote links, "
                     f"{len(s['schema_refs'])} schema refs, "
                     f"{len(s['linkbase_refs'])} linkbase refs")
        if s["recovered_findings"]:
            lines.append(f"    recovered findings: {s['recovered_findings']}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    data, outcomes = _load_instances(args)
    resolver = Resolver(args.taxonomy_root)
    reports = []
    for outcome in outcomes:
        dts = _discover_dts(args, resolver, outcome) if args.taxonomy_root else None
        reports.append(validate(outcome, dts))
    report = build_report((f for r in reports for f in r.findings),
                          digest_bytes(data), reports[0].skipped_rules)
    code = EXIT_FINDINGS if report.error_count() else EXIT_OK

    if args.format == "json":
        return code, _json({
            "input": args.input,
            "input_digest": report.input_digest,
            "instances": len(outcomes),
            "findings": [_finding_dict(f) for f in report.findings],
            "counts": dict(report.counts),
            "skipped_rules": list(report.skipped_rules),
        })
    lines = [f"{args.input}: {report.counts['error']} error(s), "
             f"{report.counts['warning']} warning(s), {report.counts['info']} info"]
    for f in report.findings:
        subject = f" [{f.subject}]" if f.subject else ""
        lines.append(f"  {f.location} {f.code} {f.severity.value}: {f.message}{subject}")
    if report.skipped_rules:
        lines.append("skipped (no taxonomy): " + ", ".join(report.skipped_rules))
    return code, "\n".join(lines) + "\n"


def cmd_facts(args: argparse.Namespace) -> tuple[int, str]:
    _, outcomes = _load_instances(args)
    rows = [row for outcome in outcomes for row in fact_rows(outcome.instance)]
    if args.format == "json":
        return EXIT_OK, _json([row._asdict() for row in rows])
    if args.format == "csv":
        return EXIT_OK, _csv_text([CSV_HEADER, *rows])
    return EXIT_OK, "".join(["\t".join(row) + "\n" for row in [CSV_HEADER, *rows]])


def cmd_dts(args: argparse.Namespace) -> tuple[int, str]:
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
        return EXIT_OK, _json({
            "input": args.input,
            "documents": [
                {"uri": d.uri, "kind": d.kind.value, "outgoing_refs": list(d.outgoing_refs)}
                for d in documents.values()
            ],
            "concept_count": len(concepts),
            "unresolved": [{"href": href, "reason": reason} for href, reason in unresolved],
            "limit_exceeded": limit_exceeded,
        })
    lines = [f"{args.input}: {len(documents)} documents, {len(concepts)} concepts, "
             f"{len(unresolved)} unresolved"]
    lines += [f"  {doc.kind.value}: {doc.uri}" for doc in documents.values()]
    lines += [f"  unresolved: {href} ({reason})" for href, reason in unresolved]
    if limit_exceeded:
        lines.append(f"  document limit {args.max_documents} reached; result is partial")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_rules(args: argparse.Namespace) -> tuple[int, str]:
    if args.format == "json":
        return EXIT_OK, _json([
            {"code": r.code, "severity": r.severity.value,
             "description": r.description, "requires_dts": r.requires_dts}
            for r in rule_catalog()
        ])
    return EXIT_OK, "".join(f"{r.code:8} {r.severity.value:8} {r.description}"
                            f"{' (needs taxonomy)' if r.requires_dts else ''}\n"
                            for r in rule_catalog())


_COMMANDS = {
    "parse": cmd_parse,
    "validate": cmd_validate,
    "facts": cmd_facts,
    "dts": cmd_dts,
    "rules": cmd_rules,
}


@_without_cyclic_gc
def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_arg_parser().parse_args(argv)
        code, report = _COMMANDS[args.command](args)
        _out(report)
        return code
    except XbrlError as exc:
        where = f" at {exc.location}" if exc.location.line else ""
        return _fail(f"{args.command} failed{where}: {exc}")
    except _UnreadableInput as exc:
        return _fail(f"cannot read input: {exc}")
    except OSError as exc:  # taxonomy reads report their own: this is stdout's
        return _fail(f"cannot write output: {exc.strerror or exc}")


def _fail(message: str) -> int:
    _err(f"xbrlcore: {message}\n")
    return EXIT_PARSE_FAILURE


def _out(text: str) -> None:
    _write(sys.stdout, text, "surrogateescape")  # a path's bytes that are not UTF-8


def _err(text: str) -> None:
    with contextlib.suppress(OSError):  # a stderr that fails keeps the exit code
        _write(sys.stderr, text, "backslashreplace")


def _write(stream, text: str, errors: str) -> None:
    """Write ``text`` to ``stream`` as UTF-8 bytes, or as text if it has no
    buffer (a StringIO), and flush it; a raw buffer (unbuffered) may take
    part of the bytes at a time. Raises OSError for a stream that is missing
    (None) or closed and for a failed write, after which the stream is
    closed, so that nothing it buffers fails again at exit."""
    if stream is None or stream.closed:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        buffer = getattr(stream, "buffer", None)
        if buffer is None:
            stream.write(text)
        else:
            stream.flush()  # text the stream already holds goes first
            data = memoryview(text.encode("utf-8", errors))
            while data:
                data = data[buffer.write(data):]
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError):
            stream.close()
        raise


if __name__ == "__main__":
    raise SystemExit(main())

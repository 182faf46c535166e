"""Every CLI case the output gates compare, one JSON line each.

Runs ``xbrlcore.cli.main`` in-process on every file under ``fixtures/`` ×
``parse``/``validate``/``facts``/``dts`` × every ``--format`` × both
``--mode``s, and ``validate`` and ``dts`` once more with
``--taxonomy-root fixtures``; then on the help of the program and of each
command, and on each kind of usage error: no command, no input, an
invalid ``--format`` (one of them not ASCII) and a negative
``--max-documents``. Help is wrapped at 80 columns whatever the terminal.
Each line holds the arguments, the exit code and the SHA-256 of stdout
and of stderr. Run it from the repository root, with the ``src/`` to
check first on ``PYTHONPATH``::

    PYTHONPATH=src python tests/cli_matrix.py > head.jsonl

Two sources give the same bytes and exit codes when their runs agree line
for line. Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

FORMATS = {"parse": ("json", "text"), "validate": ("json", "text"),
           "facts": ("csv", "json", "text"), "dts": ("json", "text")}
ROOTS = ([], ["--taxonomy-root", "fixtures"])


def cases():
    for path in sorted(p.as_posix() for p in Path("fixtures").rglob("*") if p.is_file()):
        for command, formats in FORMATS.items():
            for fmt in formats:
                for mode in ("strict", "lenient"):
                    for root in ROOTS if command in ("validate", "dts") else ROOTS[:1]:
                        yield [command, path, "--format", fmt, "--mode", mode, *root]


def usage_cases():
    yield []
    yield ["--help"]
    for command in (*FORMATS, "rules"):
        instance = ["fixtures/mini-instance.xml"] if command in FORMATS else []
        yield [command, "--help"]
        if instance:
            yield [command]
        for fmt in ("bogus", "tëxt"):
            yield [command, *instance, "--format", fmt]
    for command in ("validate", "dts"):
        yield [command, "fixtures/mini-instance.xml", "--max-documents", "-1"]


def digest(stream: io.StringIO) -> str:
    return hashlib.sha256(stream.getvalue().encode("utf-8", "surrogateescape")).hexdigest()


def run(main, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback breaks the exit-code contract
            code = f"raised {type(exc).__name__}"
    return {"args": args, "exit": code, "stdout_sha256": digest(out),
            "stderr_sha256": digest(err)}


if __name__ == "__main__":
    for name in [name for name in os.environ if name.startswith("XBRLCORE_")]:
        del os.environ[name]
    os.environ["COLUMNS"] = "80"
    from xbrlcore.cli import main

    for args in [*cases(), *usage_cases()]:
        print(json.dumps(run(main, args)))

"""Property test of the CLI exit-code contract over mutated fixture bytes.

Whatever bytes an instance or one of its schemas holds, every command ends
with exit code 0, 1 or 2 and no exception escapes ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from xbrlcore import cli

# mutated fixture -> the instance the CLI reads (itself, or one referencing it)
TARGETS = {
    "mini-instance.xml": "mini-instance.xml",
    "mini-embedded.xml": "mini-embedded.xml",
    "bad-period.xml": "bad-period.xml",
    "bad-footnote.xml": "bad-footnote.xml",
    "cycle-instance.xml": "cycle-instance.xml",
    "mini-taxonomy.xsd": "mini-instance.xml",
    "cycle-a.xsd": "cycle-instance.xml",
}

EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 64)),
)


def mutate(data: bytes, edits: list[tuple[str, int, object]]) -> bytes:
    buf = bytearray(data)
    for kind, position, arg in edits:
        at = position % (len(buf) + 1)
        if kind == "flip":
            if buf:
                buf[at % len(buf)] ^= arg
        elif kind == "insert":
            buf[at:at] = arg
        else:
            del buf[at:at + arg]
    return bytes(buf)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for path in FIXTURES.iterdir():
        if path.is_file():
            shutil.copy(path, work / path.name)
    return work


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(name=st.sampled_from(sorted(TARGETS)), edits=st.lists(EDITS, min_size=1, max_size=4))
def test_cli_exit_code_contract_under_mutation(workdir, name, edits):
    target = workdir / name
    target.write_bytes(mutate((FIXTURES / name).read_bytes(), edits))
    instance = str(workdir / TARGETS[name])
    try:
        for command in ("parse", "validate", "facts", "dts"):
            extra = ["--taxonomy-root", str(workdir)] if command in ("validate", "dts") else []
            for fmt in ("json", "csv", "text") if command == "facts" else ("json", "text"):
                for mode in ("strict", "lenient"):
                    argv = [command, instance, "--format", fmt, "--mode", mode, *extra]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    assert code in (0, 1, 2), argv
    finally:
        shutil.copy(FIXTURES / name, target)

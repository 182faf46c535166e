"""Property tests of the CLI exit-code contract over mutated fixture bytes
and over hostile reference and period text.

Whatever bytes an instance or one of its schemas holds, every command ends
with exit code 0, 1 or 2 and no exception escapes ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, given, settings, strategies as st

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


def assert_exit_contract(instance: str, commands: tuple[str, ...], root: str) -> None:
    """Run each command in every format and mode; each exits 0, 1 or 2."""
    for command in commands:
        extra = ["--taxonomy-root", root] if command in ("validate", "dts") else []
        for fmt in ("json", "csv", "text") if command == "facts" else ("json", "text"):
            for mode in ("strict", "lenient"):
                argv = [command, instance, "--format", fmt, "--mode", mode, *extra]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                assert code in (0, 1, 2), argv


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
        assert_exit_contract(instance, ("parse", "validate", "facts", "dts"), str(workdir))
    finally:
        shutil.copy(FIXTURES / name, target)


# href text: URI-ish prefixes and characters urllib and the filesystem treat specially
HREFS = st.builds(
    str.__add__,
    st.sampled_from(["", "http://", "https://", "file:", "//", "/", "../", "mini-taxonomy.xsd"]),
    st.text(st.sampled_from("[]%#: /.?@ax09é€\u4e2d"), max_size=12),
)
# period text at the edges of datetime's range, with zones up to 14:00 either way
POINTS = st.builds(
    "{}-{}{}{}".format,
    st.sampled_from(["0001", "9999", "2008"]),
    st.sampled_from(["01-01", "12-31", "02-29"]),
    st.sampled_from(["", "T00:00:00", "T24:00:00", "T23:59:59.999999"]),
    st.one_of(st.sampled_from(["", "Z"]), st.builds(
        "{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 14),
        st.sampled_from([0, 30, 59]))),
)

HOSTILE_INSTANCE = """<xbrli:xbrl xmlns:xbrli="http://www.xbrl.org/2003/instance"
 xmlns:link="http://www.xbrl.org/2003/linkbase" xmlns:xlink="http://www.w3.org/1999/xlink"
 xmlns:iso4217="http://www.xbrl.org/2003/iso4217" xmlns:ex="http://example.com/taxonomy/mini">
<link:schemaRef xlink:type="simple" xlink:href={ref}/>
<link:schemaRef xlink:type="simple" xlink:href="importer.xsd"/>
<xbrli:context id="i"><xbrli:entity><xbrli:identifier scheme="urn:s">CO</xbrli:identifier>
</xbrli:entity><xbrli:period><xbrli:instant>{instant}</xbrli:instant></xbrli:period></xbrli:context>
<xbrli:context id="d"><xbrli:entity><xbrli:identifier scheme="urn:s">CO</xbrli:identifier>
</xbrli:entity><xbrli:period><xbrli:startDate>{start}</xbrli:startDate>
<xbrli:endDate>{end}</xbrli:endDate></xbrli:period></xbrli:context>
<xbrli:unit id="u"><xbrli:measure>iso4217:USD</xbrli:measure></xbrli:unit>
<ex:Assets contextRef="i" unitRef="u" decimals="0">1</ex:Assets>
<ex:Revenue contextRef="d" unitRef="u" decimals="0">2</ex:Revenue>
</xbrli:xbrl>"""
HOSTILE_IMPORTER = """<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
 targetNamespace="urn:importer"><xsd:import namespace="x" schemaLocation={location}/></xsd:schema>"""


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(ref=HREFS, location=HREFS, instant=POINTS, start=POINTS, end=POINTS)
@example(ref="http://[bad/x.xsd", location="mini-taxonomy.xsd",
         instant="2008-12-31", start="2008-01-01", end="2008-12-31")
@example(ref="mini-taxonomy.xsd", location="http://[bad/x.xsd",
         instant="2008-12-31", start="2008-01-01", end="2008-12-31")
@example(ref="mini-taxonomy.xsd", location="mini-taxonomy.xsd",
         instant="2008-12-31", start="2008-01-01", end="9999-12-31")
@example(ref="mini-taxonomy.xsd", location="mini-taxonomy.xsd",
         instant="9999-12-31T24:00:00", start="2008-01-01", end="2008-12-31")
@example(ref="mini-taxonomy.xsd", location="mini-taxonomy.xsd",
         instant="2008-12-31", start="0001-01-01T00:00:00+01:00", end="2008-12-31")
def test_cli_exit_code_contract_over_hostile_references_and_periods(
        workdir, ref, location, instant, start, end):
    instance = workdir / "hostile-instance.xml"
    instance.write_text(HOSTILE_INSTANCE.format(
        ref=quoteattr(ref), instant=instant, start=start, end=end), encoding="utf-8")
    (workdir / "importer.xsd").write_text(
        HOSTILE_IMPORTER.format(location=quoteattr(location)), encoding="utf-8")
    assert_exit_contract(str(instance), ("parse", "validate", "dts"), str(workdir))

"""Seeded XBRL corpora for the benchmark, with the results they must give.

Every document is written as text by this module, never through
``xbrlcore.serialize``, so the input does not depend on the code under
test. Next to the bytes the generator records what a correct pipeline
reports for them (counts, findings by code, fact rows, DTS size, CLI exit
code) in ``manifest.json``. Structural sizes and planted defect counts are
fixed per workload; the seed only varies values, names, dates and which
concepts and contexts items use, so figures stay comparable across seeds.
The same workload and seed always give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

XBRLI = "http://www.xbrl.org/2003/instance"
LINK = "http://www.xbrl.org/2003/linkbase"
XLINK = "http://www.w3.org/1999/xlink"
ISO4217 = "http://www.xbrl.org/2003/iso4217"
XSD = "http://www.w3.org/2001/XMLSchema"
GEN = "http://example.com/bench/dimensions"
WRAPPER = "urn:example:bench:filing"

ROOT_NAMESPACES = {"xbrli": XBRLI, "link": LINK, "xlink": XLINK, "iso4217": ISO4217, "g": GEN}
SCHEMES = ("http://example.com/register", "urn:bench:entities")
FOOTNOTE_ARCROLE = "http://www.xbrl.org/2003/arcrole/fact-footnote"
CSV_HEADER = ("concept", "value", "context_id", "entity", "period", "unit", "tuple_path")
WORDS = ("audited", "restated", "final", "R&D", "draft", "segment <a>", "steady")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _clark(ns: str, local: str) -> str:
    return "{%s}%s" % (ns, local)


def _date(rng: random.Random, year: int) -> str:
    return f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


class InstanceText:
    """Accumulates one xbrl element and the results parsing it must give."""

    def __init__(self, prefixes: dict[str, str]):
        self.prefixes = {**ROOT_NAMESPACES, **prefixes}
        self.head: list[str] = []
        self.body: list[str] = []
        self.tail: list[str] = []
        self.contexts: dict[str, tuple[str, str]] = {}
        self.units: dict[str, str] = {}
        self.rows: list[tuple[str, ...]] = []
        self.items = 0
        self.tuples = 0
        self.recovered: Counter = Counter()
        self.findings: Counter = Counter()

    # -- structure ---------------------------------------------------------

    def schema_ref(self, href: str) -> None:
        self.head.append(f'<link:schemaRef xlink:type="simple" xlink:href="{href}"/>')

    def context(self, cid: str, entity: str, period: tuple[str, str], *,
                scheme: str = SCHEMES[0], segment: str | None = None,
                scenario: str | None = None, kept: bool = True) -> None:
        """``period`` is (inner XML, fact-row text); ``kept=False`` marks a
        context the lenient parser drops."""
        seg = f"<xbrli:segment><g:region>{segment}</g:region></xbrli:segment>" if segment else ""
        scn = f"<xbrli:scenario><g:basis>{scenario}</g:basis></xbrli:scenario>" if scenario else ""
        self.head.append(
            f'<xbrli:context id="{cid}"><xbrli:entity><xbrli:identifier scheme="{scheme}">'
            f"{entity}</xbrli:identifier>{seg}</xbrli:entity>"
            f"<xbrli:period>{period[0]}</xbrli:period>{scn}</xbrli:context>"
        )
        if kept:
            self.contexts[cid] = (entity, period[1])

    def unit(self, uid: str, numerator: tuple[str, ...],
             denominator: tuple[str, ...] = ()) -> None:
        """Measures are 'prefix:local' strings; prefixes must be root-declared."""
        def measures(names: tuple[str, ...]) -> str:
            return "".join(f"<xbrli:measure>{m}</xbrli:measure>" for m in names)

        def clark(names: tuple[str, ...]) -> str:
            return "*".join(_clark(self.prefixes[m.split(":")[0]], m.split(":")[1]) for m in names)

        if denominator:
            inner = (f"<xbrli:divide><xbrli:unitNumerator>{measures(numerator)}</xbrli:unitNumerator>"
                     f"<xbrli:unitDenominator>{measures(denominator)}</xbrli:unitDenominator>"
                     "</xbrli:divide>")
            text = f"{clark(numerator)}/{clark(denominator)}"
        else:
            inner = measures(numerator)
            text = clark(numerator)
        self.head.append(f'<xbrli:unit id="{uid}">{inner}</xbrli:unit>')
        self.units[uid] = text

    def item(self, prefix: str, local: str, value: str, context: str | None, *,
             unit: str | None = None, decimals: str | None = None,
             precision: str | None = None, fid: str | None = None,
             path: tuple[str, ...] = ()) -> str:
        """Item text; records its fact row unless the parser must drop it.

        Call in document order: rows are expected in the order recorded.
        """
        attrs = []
        if fid:
            attrs.append(f'id="{fid}"')
        if context is not None:
            attrs.append(f'contextRef="{context}"')
        if unit:
            attrs.append(f'unitRef="{unit}"')
        if decimals is not None:
            attrs.append(f'decimals="{decimals}"')
        if precision is not None:
            attrs.append(f'precision="{precision}"')
        if context is None:
            self.recovered["CTX-002"] += 1
        else:
            if decimals is not None and precision is not None:
                self.recovered["ITM-001"] += 1
            self.items += 1
            entity, period = self.contexts.get(context, ("", ""))
            self.rows.append((
                _clark(self.prefixes[prefix], local), value, context, entity, period,
                self.units.get(unit, "") if unit else "", "/".join(path),
            ))
        return f"<{prefix}:{local} {' '.join(attrs)}>{_esc(value)}</{prefix}:{local}>"

    def tuple_fact(self, prefix: str, local: str, children: list[str], fid: str | None = None) -> str:
        self.tuples += 1
        ident = f' id="{fid}"' if fid else ""
        return f"<{prefix}:{local}{ident}>{''.join(children)}</{prefix}:{local}>"

    def nested_instance(self) -> str:
        """An xbrl element inside this one: lenient parsing reports EMB-001."""
        self.recovered["EMB-001"] += 1
        return ('<xbrli:xbrl><xbrli:context id="nested"><xbrli:entity>'
                f'<xbrli:identifier scheme="{SCHEMES[0]}">NESTED</xbrli:identifier>'
                "</xbrli:entity><xbrli:period><xbrli:forever/></xbrli:period>"
                "</xbrli:context></xbrli:xbrl>")

    def footnote_link(self, fact_ids: list[str], texts: list[str]) -> None:
        parts = ['<link:footnoteLink xlink:type="extended" '
                 'xlink:role="http://www.xbrl.org/2003/role/link">']
        for n, (fid, text) in enumerate(zip(fact_ids, texts)):
            parts.append(f'<link:loc xlink:type="locator" xlink:label="loc{n}" '
                         f'xlink:href="#{fid}"/>')
            parts.append(f'<link:footnote xlink:type="resource" xlink:label="note{n}" '
                         f'xml:lang="en">{_esc(text)}</link:footnote>')
            parts.append(f'<link:footnoteArc xlink:type="arc" xlink:arcrole="{FOOTNOTE_ARCROLE}" '
                         f'xlink:from="loc{n}" xlink:to="note{n}"/>')
        parts.append("</link:footnoteLink>")
        self.tail.append("".join(parts))

    def text(self, declare: bool = True) -> str:
        ns = "".join(f' xmlns:{p}="{uri}"' for p, uri in self.prefixes.items()) if declare else ""
        return f"<xbrli:xbrl{ns}>{''.join(self.head)}{''.join(self.body)}{''.join(self.tail)}</xbrli:xbrl>"

    def expected(self) -> dict:
        """Counts for one parsed instance; findings exclude recovered ones."""
        return {
            "items": self.items, "tuples": self.tuples,
            "contexts": len(self.contexts), "units": len(self.units),
            "recovered": dict(self.recovered), "findings": dict(self.findings),
        }


def _period(rng: random.Random, year: int, mixed_zone: bool = False) -> tuple[str, str]:
    if mixed_zone:
        start = f"{year:04d}-01-01T00:00:00Z"
        end = _date(rng, year + 1)
        return (f"<xbrli:startDate>{start}</xbrli:startDate><xbrli:endDate>{end}</xbrli:endDate>",
                f"D:{start}/{end}")
    if rng.random() < 0.5:
        when = _date(rng, year)
        return f"<xbrli:instant>{when}</xbrli:instant>", f"I:{when}"
    start, end = _date(rng, year), _date(rng, year + 1)
    return (f"<xbrli:startDate>{start}</xbrli:startDate><xbrli:endDate>{end}</xbrli:endDate>",
            f"D:{start}/{end}")


def _number(rng: random.Random) -> str:
    return str(rng.randint(-10**9, 10**9))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

BULK = {"documents": 3, "items": 20000, "contexts": 1500, "concepts": 250}
BULK_NS = "http://example.com/bench/bulk"


def bulk_instance(rng: random.Random, items: int, contexts: int, concepts: int,
                  units: int = 2, ids: bool = True) -> InstanceText:
    """One large strict-mode instance: items only, no taxonomy.

    ``ids=False`` leaves out the monetary items' ``id`` attributes.
    """
    inst = InstanceText({"b": BULK_NS})
    for n in range(contexts):
        inst.context(f"c{n}", f"ENT{rng.randrange(50):03d}", _period(rng, rng.randint(2000, 2020)))
    inst.unit("usd", ("iso4217:USD",))
    if units > 1:
        inst.unit("shares", ("xbrli:shares",))
    for n in range(items):
        context = f"c{rng.randrange(contexts)}"
        local = f"Concept{rng.randrange(concepts):03d}"
        roll = rng.random()
        if roll < 0.6 or units == 1:
            inst.body.append(inst.item("b", local, _number(rng), context,
                                       unit="usd", decimals="-3", fid=f"f{n}" if ids else None))
        elif roll < 0.85:
            inst.body.append(inst.item("b", local, str(rng.randrange(10**7)), context,
                                       unit="shares", decimals="0"))
        else:
            inst.body.append(inst.item("b", local, rng.choice(WORDS), context))
    return inst


def _bulk_facts(rng: random.Random) -> tuple[dict[str, bytes], list[dict]]:
    files, docs = {}, []
    for d in range(BULK["documents"]):
        inst = bulk_instance(rng, BULK["items"], BULK["contexts"], BULK["concepts"])
        path = f"docs/bulk{d:02d}.xml"
        files[path] = ('<?xml version="1.0" encoding="UTF-8"?>\n' + inst.text()).encode()
        docs.append(_doc(path, files[path], [inst], cli=["facts", "{doc}", "--format", "csv"],
                         cli_exit=0))
    return files, docs


DTS = {"documents": 40, "items": 300, "contexts": 10, "schemas": 40, "concepts_per_schema": 60,
       "fanout": 8, "undeclared": 3, "no_unit": 2, "wrong_unit": 2}
CONCEPT_TYPES = (("monetaryItemType", "monetary", 0.4), ("sharesItemType", "shares", 0.2),
                 ("stringItemType", "string", 0.4))


def _taxonomy(rng: random.Random) -> tuple[dict[str, bytes], list[tuple[str, str, str]], dict]:
    """Schemas s00..sNN under taxonomy/, reached from entry.xsd.

    Schema i > 0 is imported by schema (i - 1) // 3, a tree of depth 4 well
    under the default limit of 16; some extra forward edges add fan-out,
    the last schema imports its parent back (the import cycle), one schema
    imports a file that does not exist, and entry.xsd carries the one
    linkbaseRef.
    """
    n = DTS["schemas"]
    imports: dict[int, list[str]] = {i: [] for i in range(n)}
    for i in range(1, n):
        imports[(i - 1) // 3].append(f"s{i:02d}.xsd")
    for i in range(n // 2):
        j = rng.randrange(i + 1, n)
        if f"s{j:02d}.xsd" not in imports[i]:
            imports[i].append(f"s{j:02d}.xsd")
    imports[n - 1].append(f"s{(n - 2) // 3:02d}.xsd")
    imports[rng.randrange(n)].append("missing.xsd")

    files: dict[str, bytes] = {}
    concepts: list[tuple[str, str, str]] = []
    for i in range(n):
        ns = f"http://example.com/bench/taxonomy/s{i:02d}"
        decls = []
        for k in range(DTS["concepts_per_schema"]):
            roll, acc = rng.random(), 0.0
            for type_name, kind, share in CONCEPT_TYPES:
                acc += share
                if roll < acc:
                    break
            local = f"C{i:02d}x{k:03d}"
            period = rng.choice(("instant", "duration"))
            balance = f' xbrli:balance="{rng.choice(("debit", "credit"))}"' if kind == "monetary" else ""
            decls.append(f'<xsd:element name="{local}" type="xbrli:{type_name}" '
                         f'substitutionGroup="xbrli:item" xbrli:periodType="{period}"{balance} '
                         'nillable="true"/>')
            concepts.append((ns, local, kind))
        imps = "".join(f'<xsd:import namespace="urn:bench:any" schemaLocation="{loc}"/>'
                       for loc in imports[i])
        files[f"taxonomy/s{i:02d}.xsd"] = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<xsd:schema xmlns:xsd="{XSD}" xmlns:xbrli="{XBRLI}" targetNamespace="{ns}" '
            f'elementFormDefault="qualified">{imps}{"".join(decls)}</xsd:schema>'
        ).encode()
    files["taxonomy/entry.xsd"] = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<xsd:schema xmlns:xsd="{XSD}" xmlns:link="{LINK}" xmlns:xlink="{XLINK}" '
        'targetNamespace="http://example.com/bench/taxonomy/entry">'
        '<xsd:annotation><xsd:appinfo><link:linkbaseRef xlink:type="simple" '
        'xlink:href="labels.xml"/></xsd:appinfo></xsd:annotation>'
        + "".join(f'<xsd:import namespace="urn:bench:any" schemaLocation="s{i:02d}.xsd"/>'
                  for i in range(DTS["fanout"]))
        + "</xsd:schema>"
    ).encode()
    files["taxonomy/labels.xml"] = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<link:linkbase xmlns:link="{LINK}" xmlns:xlink="{XLINK}">'
        '<link:labelLink xlink:type="extended" xlink:role="http://www.xbrl.org/2003/role/link"/>'
        "</link:linkbase>"
    ).encode()
    dts = {"documents": n + 2, "concepts": n * DTS["concepts_per_schema"], "unresolved": 1}
    return files, concepts, dts


def _dts_closure(rng: random.Random) -> tuple[dict[str, bytes], list[dict]]:
    files, concepts, dts = _taxonomy(rng)
    by_kind: dict[str, list[tuple[str, str]]] = {}
    for ns, local, kind in concepts:
        by_kind.setdefault(kind, []).append((ns, local))
    prefixes = {f"s{i:02d}": f"http://example.com/bench/taxonomy/s{i:02d}"
                for i in range(DTS["schemas"])}
    prefix_of = {uri: p for p, uri in prefixes.items()}
    docs = []
    for d in range(DTS["documents"]):
        inst = InstanceText(prefixes)
        inst.schema_ref("../taxonomy/entry.xsd")
        for n in range(DTS["contexts"]):
            inst.context(f"c{n}", f"ENT{rng.randrange(20):03d}", _period(rng, rng.randint(2005, 2015)))
        inst.unit("usd", ("iso4217:USD",))
        inst.unit("shares", ("xbrli:shares",))
        kinds = ["undeclared"] * DTS["undeclared"] + ["no_unit"] * DTS["no_unit"] \
            + ["wrong_unit"] * DTS["wrong_unit"]
        kinds += [None] * (DTS["items"] - len(kinds))
        rng.shuffle(kinds)
        for n, plant in enumerate(kinds):
            context = f"c{rng.randrange(DTS['contexts'])}"
            if plant == "undeclared":
                ns, _ = rng.choice(concepts)[:2]
                inst.body.append(inst.item(prefix_of[ns], f"Undeclared{n}", _number(rng), context,
                                           unit="usd", decimals="0"))
                inst.findings["DTS-001"] += 1
                continue
            if plant in ("no_unit", "wrong_unit"):
                ns, local = rng.choice(by_kind["monetary"])
                unit = "shares" if plant == "wrong_unit" else None
                inst.body.append(inst.item(prefix_of[ns], local, _number(rng), context,
                                           unit=unit, decimals="0"))
                inst.findings["UNT-002" if unit else "NUM-001"] += 1
                continue
            ns, local, kind = rng.choice(concepts)
            if kind == "string":
                inst.body.append(inst.item(prefix_of[ns], local, rng.choice(WORDS), context))
            else:
                unit = "usd" if kind == "monetary" else "shares"
                inst.body.append(inst.item(prefix_of[ns], local, _number(rng), context,
                                           unit=unit, decimals="0"))
        path = f"instances/doc{d:02d}.xml"
        files[path] = ('<?xml version="1.0" encoding="UTF-8"?>\n' + inst.text()).encode()
        docs.append(_doc(path, files[path], [inst], dts=dts,
                         cli=["validate", "{doc}", "--taxonomy-root", "{root}"], cli_exit=1))
    return files, docs


LENIENT = {"documents": 8, "instances": 4, "lines": 50, "contexts": 12}
LENIENT_NS = "http://example.com/bench/report"


def _lenient_instance(rng: random.Random, index: int) -> InstanceText:
    """Tuples, footnotes, segments, scenarios, mixed zones and planted defects.

    Each instance plants one each of CTX-002, PER-001, PER-002 and ITM-001,
    and two mixed-zone durations (PER-003). Instance 0 nests an xbrl
    element at its root and instance 1 inside a tuple (EMB-001 each).
    """
    inst = InstanceText({"r": LENIENT_NS})
    n_ctx = LENIENT["contexts"]
    for n in range(n_ctx):
        inst.context(
            f"c{n}", f"ENT{rng.randrange(30):03d}",
            _period(rng, rng.randint(2005, 2015), mixed_zone=n < 2),
            scheme=SCHEMES[n % 2],
            segment=rng.choice(("north", "south", None)),
            scenario=rng.choice(("actual", "budget", None)),
        )
    inst.context("bad-date", "ENT000", ("<xbrli:instant>2009-13-45</xbrli:instant>", ""), kept=False)
    inst.context("bad-order", "ENT000", ("<xbrli:startDate>2010-06-30</xbrli:startDate>"
                                         "<xbrli:endDate>2009-01-01</xbrli:endDate>", ""), kept=False)
    inst.recovered.update({"PER-001": 1, "PER-002": 1})
    inst.findings["PER-003"] += 2
    inst.unit("usd", ("iso4217:USD",))
    inst.unit("eur", ("iso4217:EUR",))
    inst.unit("usd-per-share", ("iso4217:USD",), ("xbrli:shares",))

    group = _clark(LENIENT_NS, "Segment")
    detail = _clark(LENIENT_NS, "Detail")
    ids: list[str] = []
    for n in range(LENIENT["lines"]):
        def ctx() -> str:
            return f"c{rng.randrange(n_ctx)}"
        fid = f"i{index}f{n}"
        ids.append(fid)
        kids = [
            inst.item("r", "Revenue", _number(rng), ctx(), unit=rng.choice(("usd", "eur")),
                      decimals="-3", fid=fid, path=(group,)),
            inst.item("r", "Label", rng.choice(WORDS), ctx(), path=(group,)),
        ]
        inner = [inst.item("r", "PerShare", f"{rng.randint(1, 99)}.{rng.randint(0, 99):02d}", ctx(),
                           unit="usd-per-share", decimals="2", path=(group, detail)),
                 inst.item("r", "Note", rng.choice(WORDS), ctx(), path=(group, detail))]
        if n == 0:
            inner.append(inst.item("r", "Orphan", "5", None, unit="usd", decimals="0"))
        if n == 1:
            inner.append(inst.item("r", "Fidelity", _number(rng), ctx(), unit="usd",
                                   decimals="2", precision="4", path=(group, detail)))
        if n == 2 and index == 1:
            inner.append(inst.nested_instance())
        kids.append(inst.tuple_fact("r", "Detail", inner))
        inst.body.append(inst.tuple_fact("r", "Segment", kids, fid=f"i{index}t{n}"))
        for k in range(4):
            inst.body.append(inst.item("r", f"Total{k}", _number(rng), ctx(), unit="usd",
                                       decimals="0"))
    if index == 0:
        inst.body.append(inst.nested_instance())
    picked = sorted(rng.sample(range(len(ids)), 6))
    inst.footnote_link([ids[p] for p in picked], [rng.choice(WORDS) for _ in picked])
    return inst


def _roundtrip_lenient(rng: random.Random) -> tuple[dict[str, bytes], list[dict]]:
    files, docs = {}, []
    for d in range(LENIENT["documents"]):
        instances = [_lenient_instance(rng, i) for i in range(LENIENT["instances"])]
        namespaces = "".join(f' xmlns:{p}="{uri}"'
                             for p, uri in instances[0].prefixes.items())
        middle = "".join(inst.text(declare=False) for inst in instances[1:-1])
        text = (f'<?xml version="1.0" encoding="UTF-8"?>\n<filing xmlns="{WRAPPER}"{namespaces}>'
                f"<cover>Filing {d} for seed-dependent entities</cover>"
                f"{instances[0].text(declare=False)}<attachments>{middle}</attachments>"
                f"<appendix><exhibit>{instances[-1].text(declare=False)}</exhibit></appendix>"
                "</filing>")
        path = f"docs/filing{d:02d}.xml"
        files[path] = text.encode()
        docs.append(_doc(path, files[path], instances,
                         cli=["validate", "{doc}", "--mode", "lenient", "--format", "json"],
                         cli_exit=1))
    return files, docs


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def rows_digest(rows) -> str:
    """Digest of fact rows; the runner applies it to ``fact_rows`` output."""
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _csv_digest(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def _doc(path: str, data: bytes, instances: list[InstanceText], *, cli: list[str],
         cli_exit: int, dts: dict | None = None) -> dict:
    rows = [row for inst in instances for row in inst.rows]
    recovered: Counter = Counter()
    findings: Counter = Counter()
    for inst in instances:
        recovered.update(inst.recovered)
        findings.update(inst.recovered)
        findings.update(inst.findings)
    return {
        "path": path,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "instances": [inst.expected() for inst in instances],
        "recovered": dict(sorted(recovered.items())),
        "findings": dict(sorted(findings.items())),
        "rows": len(rows),
        "rows_sha256": rows_digest(rows),
        "csv_sha256": _csv_digest(rows) if cli[0] == "facts" else None,
        "dts": dts,
        "cli": cli,
        "cli_exit": cli_exit,
    }


WORKLOADS = {
    "bulk-facts": _bulk_facts,
    "dts-closure": _dts_closure,
    "roundtrip-lenient": _roundtrip_lenient,
}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the corpus for (workload, seed) under ``out_dir``; return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    files, docs = WORKLOADS[workload](rng)
    corpus = hashlib.sha256()
    for rel in sorted(files):
        target = out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(files[rel])
        corpus.update(rel.encode() + b"\0" + files[rel] + b"\0")
    manifest = {"workload": workload, "seed": seed, "corpus_sha256": corpus.hexdigest(),
                "documents": docs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest

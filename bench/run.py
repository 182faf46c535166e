"""The xbrlcore benchmark: seeded corpora through the library and the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload bulk-facts --seed 1 --seconds 20 --trace 0

One process, one document at a time (closed loop, one caller): each
document goes through the workload's library pipeline, and the CLI runs as
a subprocess whenever its accumulated time falls behind the pipeline's, so
the two share the run about evenly. Every result is checked against the
manifest the corpus generator wrote. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` records spans around each library call and prints
the per-layer metrics. The last line of stdout is one JSON object; the
lines before it are a readable table. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import corpus
from hostspeed import HostSpeed, bare_expat
from spans import NullTracer, TimedResolver, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

# Codes planted by the corpora; each gets a per-layer count.
RECOVERED_CODES = ("CTX-002", "PER-001", "PER-002", "ITM-001", "EMB-001")
FINDING_CODES = ("CTX-002", "PER-001", "PER-002", "PER-003", "ITM-001", "EMB-001",
                 "DTS-001", "NUM-001", "UNT-002")


class Library:
    """The xbrlcore calls the benchmark makes, imported from ``src/``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import xbrlcore
        from xbrlcore import cli, validation

        if Path(xbrlcore.__file__).resolve().parent != SRC / "xbrlcore":
            raise SystemExit(f"bench: imported xbrlcore from {xbrlcore.__file__}, not {SRC}")
        self.x = xbrlcore
        self.cli_main = cli.main
        self.digest_bytes = validation.digest_bytes
        self.strict = xbrlcore.ParseOptions()
        self.lenient = xbrlcore.ParseOptions(mode=xbrlcore.ParseMode.LENIENT)


def pipeline(lib: Library, workload: str, path: Path, data: bytes, tracer, resolver) -> dict:
    """The workload's library pipeline on one document; returns what to check."""
    x = lib.x
    with tracer.span("xmltree.read_document"):
        tree = x.read_document(data)
    options = lib.lenient if workload == "roundtrip-lenient" else lib.strict
    with tracer.span("parser.find_instances"):
        outcomes = x.find_instances(tree, options)
    digest = None
    if workload != "roundtrip-lenient":
        with tracer.span("validation.digest_bytes"):
            digest = lib.digest_bytes(data)
    out = {"outcomes": outcomes, "reports": [], "dts": [], "rows": [], "serialized": []}
    for outcome in outcomes:
        dts = None
        if workload == "dts-closure":
            with tracer.span("dts.discover"):
                dts = x.discover(outcome.instance, resolver, base_uri=str(path))
            out["dts"].append(dts)
        with tracer.span("validation.validate"):
            out["reports"].append(x.validate(outcome, dts, input_digest=digest))
        if workload == "roundtrip-lenient":
            with tracer.span("parser.serialize"):
                out["serialized"].append(x.serialize(outcome.instance))
        with tracer.span("facttable.fact_rows"):
            out["rows"].extend(x.fact_rows(outcome.instance))
    return out


def check_pipeline(lib: Library, doc: dict, out: dict) -> list[str]:
    """Differences between a pipeline result and the manifest entry."""
    problems = []
    outcomes = out["outcomes"]
    if len(outcomes) != len(doc["instances"]):
        return [f"{len(outcomes)} instances, expected {len(doc['instances'])}"]
    for n, (outcome, expected) in enumerate(zip(outcomes, doc["instances"])):
        instance = outcome.instance
        facts = list(instance.iter_facts())
        got = {
            "items": sum(isinstance(f, lib.x.Item) for f in facts),
            "tuples": sum(isinstance(f, lib.x.Tuple) for f in facts),
            "contexts": len(instance.contexts),
            "units": len(instance.units),
        }
        for key, value in got.items():
            if value != expected[key]:
                problems.append(f"instance {n}: {key} {value}, expected {expected[key]}")
    recovered = Counter(f.code for o in outcomes for f in o.recovered_findings)
    if recovered != Counter(doc["recovered"]):
        problems.append(f"recovered {dict(recovered)}, expected {doc['recovered']}")
    findings = Counter(f.code for r in out["reports"] for f in r.findings)
    if findings != Counter(doc["findings"]):
        problems.append(f"findings {dict(findings)}, expected {doc['findings']}")
    if doc["cli"][0] == "facts" or doc["dts"]:
        digest = "sha256:" + doc["sha256"]
        if any(r.input_digest != digest for r in out["reports"]):
            problems.append("report digest differs from the input's")
    for dts in out["dts"]:
        got = {"documents": len(dts.documents), "concepts": len(dts.concepts),
               "unresolved": len(dts.unresolved)}
        if got != doc["dts"]:
            problems.append(f"dts {got}, expected {doc['dts']}")
    if len(out["rows"]) != doc["rows"] or \
            corpus.rows_digest(r.as_tuple() for r in out["rows"]) != doc["rows_sha256"]:
        problems.append(f"fact rows differ ({len(out['rows'])} rows, expected {doc['rows']})")
    if any(not data for data in out["serialized"]):
        problems.append("empty serialization")
    return problems


def check_round_trip(lib: Library, out: dict) -> list[str]:
    """parse(serialize(instance)) == instance for every instance of a document."""
    problems = []
    for n, outcome in enumerate(out["outcomes"]):
        again = lib.x.parse_instance(lib.x.read_document(lib.x.serialize(outcome.instance)))
        if again.instance != outcome.instance:
            problems.append(f"instance {n} changes on a serialize/parse round trip")
    return problems


def cli_args(doc: dict, corpus_dir: Path) -> list[str]:
    return [a.format(doc=corpus_dir / doc["path"], root=corpus_dir) for a in doc["cli"]]


def check_cli(doc: dict, code: int, stdout: bytes) -> list[str]:
    if code != doc["cli_exit"]:
        return [f"CLI exit {code}, expected {doc['cli_exit']}"]
    if doc["cli"][0] == "facts":
        if hashlib.sha256(stdout).hexdigest() != doc["csv_sha256"]:
            return ["CLI CSV differs from the expected rows"]
        return []
    text = stdout.decode()
    if "json" in doc["cli"]:
        report = json.loads(text)
        codes = Counter(f["code"] for f in report["findings"])
        if report["instances"] != len(doc["instances"]):
            return [f"CLI saw {report['instances']} instances"]
    else:
        codes = Counter(line.split()[1] for line in text.splitlines()[1:] if line.startswith("  "))
    if codes != Counter(doc["findings"]):
        return [f"CLI findings {dict(codes)}, expected {doc['findings']}"]
    return []


def cli_env() -> dict:
    """This environment without XBRLCORE_* settings, importing xbrlcore from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XBRLCORE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], env: dict, out_dir: Path) -> tuple[float, int, float, bytes]:
    """One ``python -m xbrlcore`` subprocess: (wall s, exit code, max RSS MB, stdout)."""
    out_path, err_path = out_dir / "cli.out", out_dir / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "xbrlcore", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_bytes()


def cli_in_process(lib: Library, args: list[str]) -> tuple[float, int]:
    """The same command through ``cli.main`` in this process: (wall s, exit code)."""
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = lib.cli_main(args)
    return perf_counter() - start, code


def read_peak_alloc(lib: Library, data: bytes) -> int:
    """tracemalloc peak, in bytes, of ``read_document`` on one document."""
    tracemalloc.start()
    try:
        tree = lib.x.read_document(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tree
    return peak


class Run:
    """State of one benchmark run: corpus, counters and samples."""

    def __init__(self, args: argparse.Namespace, lib: Library) -> None:
        self.args = args
        self.lib = lib
        self.workload = args.workload
        self.corpus_dir = WORK / f"{args.workload}-{args.seed}"
        self.env = cli_env()
        self.resolver = lib.x.build_resolver(self.corpus_dir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def guarded(self, what: str, fn):
        """Call fn(); an exception is a failed operation, never a crash."""
        try:
            return fn()
        except Exception as exc:  # the run must finish and report it
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None

    def setup(self) -> list[float]:
        """Cold import in a fresh interpreter, corpus generation, one warm-up document.

        Returns the raw seconds of each repeat; ``self.setup_speed`` rescales them.
        """
        times, hashes = [], set()
        self.setup_speed = HostSpeed()
        self.setup_speed.probe(0.0)
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import xbrlcore"], env=self.env, cwd=ROOT,
                           check=True)
            shutil.rmtree(self.corpus_dir, ignore_errors=True)
            self.manifest = corpus.generate(self.workload, self.args.seed, self.corpus_dir)
            self.docs = self.manifest["documents"]
            self.data = [(self.corpus_dir / d["path"]).read_bytes() for d in self.docs]
            self.process(0)
            times.append(perf_counter() - start)
            self.setup_speed.probe(times[-1])
            hashes.add(self.manifest["corpus_sha256"])
        if len(hashes) != 1:
            self.record("corpus", ["the same seed gave different corpora"])
        return times

    def process(self, index: int) -> tuple[float, dict | None]:
        """Untraced pipeline on one document, timed, then checked outside the timing."""
        doc = self.docs[index]
        start = perf_counter()
        out = self.guarded(doc["path"], lambda: pipeline(
            self.lib, self.workload, self.corpus_dir / doc["path"], self.data[index],
            NullTracer(), self.resolver))
        seconds = perf_counter() - start
        if out is not None:
            problems = self.guarded(doc["path"], lambda: check_pipeline(self.lib, doc, out))
            if problems is not None:
                self.record(doc["path"], problems)
        return seconds, out

    def cli(self, index: int) -> tuple[float, float, list[str]] | None:
        """One checked CLI subprocess: (wall s, max RSS MB, args), or None if it raised."""
        doc = self.docs[index]
        what = "CLI " + doc["path"]
        args = cli_args(doc, self.corpus_dir)
        result = self.guarded(what, lambda: run_cli(args, self.env, self.corpus_dir))
        if result is None:
            return None
        wall, code, rss, stdout = result
        problems = self.guarded(what, lambda: check_cli(doc, code, stdout))
        if problems is not None:
            self.record(what, problems)
        return wall, rss, args

    def loop(self, traced: Tracer | None) -> dict:
        samples: dict[str, list] = {k: [] for k in (
            "doc_s", "doc_items", "cli_s", "cli_rss", "cli_overhead", "traced_s", "floor_s",
            "bytes", "per_doc")}
        self.timed = TimedResolver(self.resolver, traced) if traced else None
        self.speed = HostSpeed()
        pipe_total = cli_total = 0.0
        deadline = perf_counter() + self.args.seconds
        n = 0
        while n == 0 or perf_counter() < deadline:
            started = perf_counter()
            index = n % len(self.docs)
            n += 1
            # The traced pass goes first on every other document, so neither
            # pass always meets a cache the other one warmed.
            if traced and n % 2:
                samples["per_doc"].append(self.traced_document(n, index, traced))
            seconds, out = self.process(index)
            del out
            if traced and not n % 2:
                samples["per_doc"].append(self.traced_document(n, index, traced))
            pipe_total += seconds
            samples["doc_s"].append(seconds)
            samples["doc_items"].append(self.docs[index]["rows"])
            samples["bytes"].append(self.docs[index]["bytes"])
            if traced:
                samples["traced_s"].append(samples["per_doc"][-1]["pipeline"])
                samples["floor_s"].append(bare_expat(self.data[index]))
            result = self.cli(index) if cli_total <= pipe_total else None
            if result is not None:
                wall, rss, args = result
                cli_total += wall
                samples["cli_s"].append(wall)
                samples["cli_rss"].append(rss)
                in_process = self.guarded(
                    "in-process CLI", lambda: cli_in_process(self.lib, args)) if traced else None
                if in_process is not None:
                    seconds, code = in_process
                    self.record("in-process CLI", [] if code == self.docs[index]["cli_exit"]
                                else [f"exit {code}"])
                    samples["cli_overhead"].append(wall - seconds)
            self.speed.probe(perf_counter() - started)
        first = self.guarded("round trip", lambda: pipeline(
            self.lib, self.workload, self.corpus_dir / self.docs[0]["path"], self.data[0],
            NullTracer(), self.resolver))
        if first is not None:
            problems = self.guarded("round trip", lambda: check_round_trip(self.lib, first))
            if problems is not None:
                self.record("round trip", problems)
        return samples

    def traced_document(self, n: int, index: int, tracer: Tracer) -> dict:
        """Pipeline on one document under spans; returns its self times and counts."""
        tracer.doc = n
        resolver = self.timed
        fetches, fetch_bytes = resolver.fetches, resolver.fetch_bytes
        first = len(tracer.spans)
        with tracer.span("pipeline"):
            out = self.guarded(self.docs[index]["path"], lambda: pipeline(
                self.lib, self.workload, self.corpus_dir / self.docs[index]["path"],
                self.data[index], tracer, resolver))
        times = tracer.self_times(first)
        root = tracer.spans[first]
        counts: Counter = Counter()
        if out is not None:
            outcomes = out["outcomes"]
            counts["instances"] = len(outcomes)
            counts["facts"] = sum(o.instance.fact_count() for o in outcomes)
            counts.update("recovered." + f.code for o in outcomes for f in o.recovered_findings)
            counts.update("findings." + f.code for r in out["reports"] for f in r.findings)
            counts["serialize_bytes"] = sum(len(s) for s in out["serialized"])
            counts["rows"] = len(out["rows"])
            for dts in out["dts"]:
                counts["dts.documents"] += len(dts.documents)
                counts["dts.concepts"] += len(dts.concepts)
                counts["dts.unresolved"] += len(dts.unresolved)
        counts["dts.fetches"] = resolver.fetches - fetches
        counts["dts.fetch_bytes"] = resolver.fetch_bytes - fetch_bytes
        return {"times": times, "counts": counts, "pipeline": root[2] - root[1]}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, samples: dict, setup_times: list[float]) -> dict:
    """Times are rescaled to the nominal host speed (see hostspeed.py)."""
    scale = run.speed.scale
    return {
        "facts_per_s": (sum(samples["doc_items"]) / scale(sum(samples["doc_s"])), "1/s"),
        "doc_s_p50": (scale(_median(samples["doc_s"])), "s"),
        "cli_s": (scale(_median(samples["cli_s"])), "s"),
        "cli_peak_rss_mb": (_median(samples["cli_rss"]), "MB"),
        "setup_s": (run.setup_speed.scale(_median(setup_times)), "s"),
    }


def per_layer(run: Run, samples: dict, peak_alloc: int) -> dict:
    """Times are rescaled like the end-to-end ones; counts are per traced document."""
    docs = samples["per_doc"]
    n = len(docs)
    scale = run.speed.scale

    def layer_s(*names: str) -> float:
        return scale(_median([sum(d["times"].get(name, 0.0) for name in names) for d in docs]))

    def count(key: str) -> float:
        return sum(d["counts"].get(key, 0) for d in docs) / n

    read = [d["times"].get("xmltree.read_document", 0.0) for d in docs]
    find = [d["times"].get("parser.find_instances", 0.0) for d in docs]
    floor = samples["floor_s"]
    layers = [name for name in {k for d in docs for k in d["times"]} if name != "pipeline"]
    first_bytes = run.docs[0]["bytes"]
    return {
        "xmltree.read_s": (layer_s("xmltree.read_document"), "s"),
        "xmltree.read_mb_per_s": (
            _median([b / 1e6 / scale(r) for b, r in zip(samples["bytes"], read)]), "MB/s"),
        "xmltree.expat_floor_s": (scale(_median(floor)), "s"),
        "xmltree.read_parse_over_floor": (
            _median([(r + f) / fl for r, f, fl in zip(read, find, floor)]), "ratio"),
        "xmltree.read_peak_alloc_mb": (peak_alloc / 1e6, "MB"),
        "xmltree.alloc_over_input": (peak_alloc / first_bytes, "ratio"),
        "parser.find_instances_s": (layer_s("parser.find_instances"), "s"),
        "parser.instances": (count("instances"), "count"),
        "parser.facts": (count("facts"), "count"),
        **{f"parser.recovered.{code}": (count(f"recovered.{code}"), "count")
           for code in RECOVERED_CODES},
        "parser.serialize_s": (layer_s("parser.serialize"), "s"),
        "parser.serialize_mb": (count("serialize_bytes") / 1e6, "MB"),
        "dts.discover_s": (layer_s("dts.discover"), "s"),
        "dts.fetches": (count("dts.fetches"), "count"),
        "dts.fetch_s": (layer_s("dts.fetch"), "s"),
        "dts.fetch_bytes": (count("dts.fetch_bytes"), "bytes"),
        "dts.documents": (count("dts.documents"), "count"),
        "dts.concepts": (count("dts.concepts"), "count"),
        "dts.unresolved": (count("dts.unresolved"), "count"),
        "dts.distinct_fetch_ratio": (
            len(run.timed.uris) / run.timed.fetches if run.timed.fetches else 0.0, "ratio"),
        "validation.validate_s": (layer_s("validation.validate", "validation.digest_bytes"), "s"),
        **{f"validation.findings.{code}": (count(f"findings.{code}"), "count")
           for code in FINDING_CODES},
        "facttable.fact_rows_s": (layer_s("facttable.fact_rows"), "s"),
        "facttable.rows": (count("rows"), "count"),
        "cli.overhead_s": (scale(_median(samples["cli_overhead"])), "s"),
        "trace.documents": (float(n), "count"),
        "trace.untraced_doc_s": (scale(_median(samples["doc_s"])), "s"),
        "trace.traced_doc_s": (scale(_median(samples["traced_s"])), "s"),
        "trace.overhead_s": (
            scale(_median(samples["traced_s"]) - _median(samples["doc_s"])), "s"),
        "trace.self_sum_s": (layer_s(*layers), "s"),
        "host.probe_s": (run.speed.mean_probe_s(), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xbrlcore" / "__init__.py").is_file():
        print(f"bench: no xbrlcore sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("XBRLCORE_")]:
        del os.environ[key]

    lib = Library()
    run = Run(args, lib)
    WORK.mkdir(exist_ok=True)
    origin = perf_counter()
    setup_times = run.setup()
    tracer = Tracer() if args.trace else None
    samples = run.loop(tracer)

    if tracer:
        metrics = per_layer(run, samples, read_peak_alloc(lib, run.data[0]))
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json", origin)
    else:
        metrics = end_to_end(run, samples, setup_times)
    # The JSON line carries the metrics BENCHMARK.json lists for this mode;
    # the table also shows the ones that read 0 on some workload.
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if tracer else "end_to_end"]]
    shutil.rmtree(run.corpus_dir, ignore_errors=True)

    doc = run.docs[0]
    print(f"workload {args.workload}, seed {args.seed}, corpus sha256 "
          f"{run.manifest['corpus_sha256'][:16]}, {len(run.docs)} documents of "
          f"{doc['bytes'] / 1e6:.2f} MB / {doc['rows']} items each")
    print(f"{len(samples['doc_s'])} pipeline documents, {len(samples['cli_s'])} CLI calls, "
          f"setup runs {', '.join(f'{t:.3f}' for t in setup_times)} s (raw)")
    print(f"raw medians: document {_median(samples['doc_s']):.6f} s, CLI "
          f"{_median(samples['cli_s']):.6f} s; probe {run.speed.mean_probe_s() * 1e3:.3f} ms, "
          f"so times below are scaled by {run.speed.scale(1.0):.4f}")
    if len(samples["doc_s"]) >= 100:
        p90 = run.speed.scale(statistics.quantiles(samples["doc_s"], n=10)[-1])
        print(f"doc_s_p90 {p90:.6f} s ({len(samples['doc_s'])} samples)")
    if tracer:
        gap = metrics["trace.self_sum_s"][0] - metrics["trace.untraced_doc_s"][0]
        print(f"layer self times sum to the untraced document time {gap:+.6f} s; "
              f"tracing overhead {metrics['trace.overhead_s'][0]:+.6f} s")
    print(f"failed_ratio {run.failed / max(run.attempted, 1):.4f} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print("  failed: " + problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:14.6f} {unit}{'' if name in listed else ' (table only)'}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

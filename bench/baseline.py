"""Reproduce ROADMAP's baseline table: each stage on one large instance.

Usage, from the repository root:

    python3 bench/baseline.py

The instance has ROADMAP's shape: 100k items, 2k contexts and one unit.
It is the bulk-facts shape with one unit and no item ids. Each stage is
timed on its own, best of REPEATS; the read_document allocation peak
comes from a separate tracemalloc pass, so it does not slow the timings.
"""

from __future__ import annotations

import random
import shutil
from time import perf_counter

import corpus
import run

ITEMS = 100000
CONTEXTS = 2000
REPEATS = 3
SEED = 1


def best(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def main() -> int:
    if not (run.SRC / "xbrlcore" / "__init__.py").is_file():
        print(f"baseline: no xbrlcore sources under {run.SRC}", flush=True)
        return 2
    lib = run.Library()
    x = lib.x

    inst = corpus.bulk_instance(random.Random(f"baseline:{SEED}"), ITEMS, CONTEXTS,
                                concepts=250, units=1, ids=False)
    data = ('<?xml version="1.0" encoding="UTF-8"?>\n' + inst.text()).encode()
    work = run.WORK / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "instance.xml"
    path.write_bytes(data)

    cli = [run.run_cli(["validate", str(path)], run.cli_env(), work)
           for _ in range(REPEATS)]
    if any(code != 0 for _, code, _, _ in cli):
        print("baseline: CLI validate did not exit 0")
        return 1
    # Each stage is timed with only its own inputs alive: a second large
    # tree in the heap makes every garbage collection pass slower.
    rows = [
        ("expat with no-op handlers (floor)", min(run.bare_expat(data) for _ in range(REPEATS))),
        ("read_document", best(REPEATS, lambda: x.read_document(data))),
    ]
    peak = run.read_peak_alloc(lib, data)
    tree = x.read_document(data)
    rows.append(("parse_instance", best(REPEATS, lambda: x.parse_instance(tree))))
    outcome = x.parse_instance(tree)
    del tree
    if len(list(outcome.instance.iter_items())) != ITEMS:
        print("baseline: item count differs from the generated instance")
        return 1
    digest = lib.digest_bytes(data)
    rows += [
        ("validate with the digest supplied",
         best(REPEATS, lambda: x.validate(outcome, input_digest=digest))),
        ("validate with no digest", best(REPEATS, lambda: x.validate(outcome))),
        ("fact_rows", best(REPEATS, lambda: x.fact_rows(outcome.instance))),
        ("serialize", best(REPEATS, lambda: x.serialize(outcome.instance))),
        ("CLI validate, end to end", min(wall for wall, _, _, _ in cli)),
    ]
    print(f"{len(data) / 1e6:.1f} MB instance, {ITEMS} items, {CONTEXTS} contexts, "
          f"1 unit; best of {REPEATS}")
    for stage, seconds in rows:
        print(f"  {stage:36} {seconds:8.3f} s")
    floor = rows[0][1]
    print(f"  read_document peak alloc {peak / 1e6:.0f} MB ({peak / len(data):.1f}x the input)")
    print(f"  CLI max RSS {max(rss for _, _, rss, _ in cli):.0f} MB")
    print(f"  read + parse over floor {(rows[1][1] + rows[2][1]) / floor:.1f}x")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

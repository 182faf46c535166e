#!/usr/bin/env bash
# Every workload, untraced then traced, for one seed.
#   bash bench/all.sh [seed, default 1] [seconds, default 30 as in BENCHMARK.json]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in bulk-facts dts-closure roundtrip-lenient; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-30}" --trace "$trace"
    done
done

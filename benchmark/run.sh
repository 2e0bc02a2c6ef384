#!/usr/bin/env bash
# Builds the benchmark offline and runs all five workloads, each untraced
# (end-to-end metrics) and traced (per-layer metrics), printing every metric
# by name with unit, sample count and workload. Run from the repo root.
#
#   benchmark/run.sh [--label NAME] [--seeds "1 2 3"] [--seconds S] [--quick]
#
# Result lines go to benchmark/out/<label>/<workload>.<seed>.json (untraced)
# and <workload>.<seed>.trace.json (traced), which is what
# `simrank_benchmark compare benchmark/out/A benchmark/out/B` reads.
# Exits non-zero if any run fails its correctness gate.
set -euo pipefail

label=run
seeds=1
seconds=12
quick=()
while [ $# -gt 0 ]; do
    case "$1" in
        --label) label=$2; shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --quick) quick=(--quick); seconds=1; shift ;;
        *) echo "usage: benchmark/run.sh [--label NAME] [--seeds \"1 2 3\"] [--seconds S] [--quick]" >&2; exit 2 ;;
    esac
done

[ -f BENCHMARK.json ] || { echo "run from the repo root" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/simrank_benchmark"
out="benchmark/out/$label"
mkdir -p "$out"

status=0
for seed in $seeds; do
    for workload in static_query disk_query serve_churn serve_hot ingest_sharded; do
        for trace in 0 1; do
            suffix=json
            [ "$trace" = 1 ] && suffix=trace.json
            log="$out/$workload.$seed.$suffix.log"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --out benchmark/out "${quick[@]}" > "$log" || status=1
            grep -v '^{' "$log" || true
            tail -n 1 "$log" > "$out/$workload.$seed.$suffix"
            rm -f "$log"
        done
    done
done
echo "results in $out"
exit $status

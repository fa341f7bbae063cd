#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh report          # "where the time goes" tables from out/
#   benchmark/run.sh aa [runs]       # A/A: two alternating sets of runs
#
# Run it from the repository root. The build lands in $CARGO_TARGET_DIR
# when that is set, else in benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export SAGRID_BENCH_DIR="$here"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/sagrid-benchmark"

if [ "${1:-}" != "aa" ]; then
    exec "$bin" "$@"
fi

# A/A: the same binary, two sets (A, B) of `runs` runs per workload,
# alternating A and B so both see the same drift of the machine. Seeds
# differ run to run and are the same in both sets.
runs="${2:-5}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$runs"); do
    for set in A B; do
        for w in paper36 wide_steady wide_churn bulk_wan; do
            "$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$set.$w.$i.json"
        done
    done
done
exec "$bin" aa-report "$out"

#!/usr/bin/env bash
# A/A: two interleaved sets of runs of the checked-out code over every
# workload, one seed per run, judged by `benchmark compare`.
#   benchmark/aa.sh [runs]      (default 10; writes benchmark/out/aa.{a,b}.jsonl)
set -euo pipefail
runs=${1:-10}
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out/aa.a.jsonl" "$out/aa.b.jsonl"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark
for seed in $(seq 1 "$runs"); do
  for workload in la1m-scan color-verify la-mvpt-mixed; do
    # Which set goes first alternates, so neither always runs on a warm host.
    if ((seed % 2)); then sides="a b"; else sides="b a"; fi
    for side in $sides; do
      "$bin" run --workload "$workload" --seed "$seed" --report "$out/aa.$side.jsonl" >/dev/null
    done
  done
done
"$bin" compare "$out/aa.a.jsonl" "$out/aa.b.jsonl"

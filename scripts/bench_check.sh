#!/usr/bin/env bash
# BENCH_*.json regression gate: re-emits every trajectory the bench bins
# write and holds each to the committed baseline of the same name at the
# repo root -- the same series with the same units and sample counts,
# deterministic series sample for sample and the metrics counts exactly,
# wall-clock medians within 4.0x.  A fresh file without a baseline, or a
# baseline without a fresh file, fails.
#
#   scripts/bench_check.sh
#
# The fresh files stay under target/bench/ even when the gate fails; a
# change that legitimately moves a deterministic figure refreshes every
# baseline in the same commit with
#   scripts/bench_check.sh; cp target/bench/BENCH_*.json .
set -euo pipefail
cd "$(dirname "$0")/.."

rm -f target/bench/BENCH_*.json
for emitter in report resilience plan_bench soak chaos_sweep table2_primitives; do
  cargo run -q --release --offline -p secmed-bench --bin "$emitter" >/dev/null
done
cargo run -q --release --offline -p secmed-bench --bin bench_check

#!/usr/bin/env bash
# BENCH_*.json regression gate: emits fresh trajectories, checks schema
# and required series, and compares BENCH_core.json and
# BENCH_resilience.json with the committed baselines at the repo root:
# deterministic series exactly, wall-clock series within --max-ratio.
#
#   scripts/bench_check.sh
#
# Refresh the core baseline with
#   cargo run --release -p secmed-bench --bin report && \
#   cp target/bench/BENCH_core.json BENCH_core.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Emit a fresh trajectory (also exercises the instrumented engine paths).
cargo run -q --release --offline -p secmed-bench --bin report >/dev/null

required=()
for proto in das commutative pm; do
  for rows in 16 32 64 128; do
    required+=(--require "$proto/rows$rows" --require "$proto/rows$rows/bytes")
  done
done

cargo run -q --release --offline -p secmed-bench --bin bench_check -- \
  target/bench/BENCH_core.json "${required[@]}" \
  --baseline BENCH_core.json --max-ratio 4.0

# The lint wall-time trajectory: secmed-lint records its scan duration as
# a *timing* series (unit "ns"), never a deterministic one, so machine
# variance cannot fail the byte-exact baseline compare.  Run the scanner
# for its report only (the ratchet gate itself runs later in ci.sh) and
# validate the declaration.
cargo run -q --release --offline -p secmed-lint -- . >/dev/null 2>&1 || true
cargo run -q --release --offline -p secmed-bench --bin bench_check -- \
  target/bench/BENCH_lint.json --require-timing lint/wall

# The planner trajectory: plan seeded 3/4/5-table chain federations and
# validate both series classes — nodes/cost/est_rows are deterministic
# (pure functions of the seeded inputs), wall and plans/sec are timing.
cargo run -q --release --offline -p secmed-bench --bin plan_bench >/dev/null
cargo run -q --release --offline -p secmed-bench --bin bench_check -- \
  target/bench/BENCH_plan.json \
  --require plan/nodes --require plan/cost --require plan/est_rows \
  --require plan/plans_per_sec --require-timing plan/wall

# The soak trajectory: >=100 concurrent client sessions against one
# in-process server over loopback TCP.  Throughput and wall-clock are
# timing series (machine-local); the per-session byte volumes are a
# deterministic series, comparable against any baseline.
cargo run -q --release --offline -p secmed-bench --bin soak -- 128 >/dev/null
cargo run -q --release --offline -p secmed-bench --bin bench_check -- \
  target/bench/BENCH_soak.json \
  --require soak/sessions --require soak/sessions_per_sec \
  --require soak/session/bytes --require-timing soak/wall

# The resilience trajectory: admission refusals under overload, resume
# counts under server-side chaos, and per-session bytes are all
# deterministic (seeded fault rolls, byte-identical resume); the drain
# latency and total wall are timing series.  The deterministic series
# gate against the committed baseline BENCH_resilience.json (exact —
# counts are seeded, not raced); refresh it with
#   cargo run --release -p secmed-bench --bin resilience && \
#   cp target/bench/BENCH_resilience.json BENCH_resilience.json
resilience_required=(
  --require resilience/admitted --require resilience/refused
  --require resilience/resumed --require resilience/session/bytes
  --require-timing resilience/drain/wall --require-timing resilience/wall
)
cargo run -q --release --offline -p secmed-bench --bin resilience >/dev/null
cargo run -q --release --offline -p secmed-bench --bin bench_check -- \
  target/bench/BENCH_resilience.json "${resilience_required[@]}" \
  --baseline BENCH_resilience.json --max-ratio 4.0

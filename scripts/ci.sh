#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline against an empty registry.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo fmt --check

# The repository benchmark is its own workspace, so nothing above compiles
# it; build it against this checkout's APIs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-build

# Every dependency resolves by path: the build is offline-only and every
# party's code is in-tree.  Cargo writes a `source = ` line for each
# registry or git package in a lockfile and never for a path package, so
# the two lockfiles the builds above resolved state the policy directly.
if grep -n '^source = ' Cargo.lock perfbench/Cargo.lock; then
  echo "dependency policy: the lockfile entries above do not resolve by path" >&2
  exit 1
fi

# The engine's hard invariant, run by name so a filter change can never
# silently drop it: identical RunReports at 1, 2, and 8 worker threads,
# holding at default test parallelism (each run counts into its own scope).
cargo test -q --offline -p secmed-core --test determinism

# Wire-format stability, run by name for the same reason: the committed
# golden vectors must match the codec byte for byte.
cargo test -q --offline -p secmed-wire --test golden_vectors

# The arithmetic and crypto substrates, run whole: mpint's Montgomery and
# fixed-base properties and its fixed-shape product counts, the group
# presets and their shared tables, the hybrid/ElGamal units (a prepared key
# encrypts byte for byte like the key), and the DAS index and server join.
cargo test -q --offline -p mpint -p secmed-crypto -p secmed-das

# The fault fabric's invariants, run by name: 64 seeded fault plans per
# protocol, checked for typed outcomes, schedule-independent fault
# logs, and exact byte accounting under retransmission.
cargo test -q --offline -p secmed-core --test chaos
echo "chaos suite: swept 64 fault seeds x 3 protocols x 3 thread counts (+ zero-fault equivalence)"

# The transport redesign's acceptance oracle, run by name: the same
# seeded scenario over loopback TCP sockets must be byte-identical to
# the in-process fabric (log, views, report) at 1/2/8 threads; the
# session layer's failure paths must reclaim the session table; and the
# full chaos sweep must hold over real sockets.
cargo test -q --offline -p secmed-server --test equivalence
cargo test -q --offline -p secmed-server --test sessions
cargo test -q --offline -p secmed-server --test chaos_socket
echo "socket fabric: loopback equivalence + session negotiation + chaos-over-sockets ok"

# The session-resilience layer (PR 10), run by name: reconnect-and-resume
# byte-equivalence, admission control and drain, idle reaping, the
# 64-seed chaos grid under *server-side* fire, and the session-table
# hygiene properties (no leaks, one terminal ledger line per connection,
# Goodbyes surviving teardown under load).
cargo test -q --offline -p secmed-server --test resilience
cargo test -q --offline -p secmed-server --test chaos_resilient
cargo test -q --offline -p secmed-server --test hygiene
echo "resilience: resume equivalence + admission/drain + server-chaos grid + hygiene ok"

# Soak smoke, run by name: eight concurrent client sessions against one
# server process, all Clean, ledger complete, no session-table leak.
cargo test -q --offline -p secmed-client --test soak_smoke
echo "soak smoke: 8 concurrent loopback sessions ok"

# The observability crate, run whole: the metrics registry's
# deterministic/timing class split and the profile self-time invariant
# (what keep RunReports reproducible while still carrying metrics), the
# run scope, traces, reports, JSON, the bench harness and its doctest, and
# the trajectory schema and baseline compare behind the bench gate.
cargo test -q --offline -p secmed-obs
cargo test -q --offline -p secmed-core --test observability

# The query analysis and the planner layer, run by name: relalg's whole
# suite (the `query_graph` analysis the mediator and the planner share,
# and eval edge cases), join-order/protocol choice under leakage budgets
# (secmed-plan), the end-to-end plan execution suite — determinism across
# thread counts, the budget flip, and the per-node §6 predicted-vs-observed
# divergence gate — and core's unit tests, every protocol end to end, the
# request phase's query analysis, and the zero-ppm census-vs-§6 check.
cargo test -q --offline -p relalg
cargo test -q --offline -p secmed-plan
cargo test -q --offline -p secmed-core --test plan_exec
cargo test -q --offline -p secmed-core --lib --test protocols --test request_phase --test cost_model
echo "planner: relalg suite + plan unit suite + 3-way plan execution + core protocols ok"

# The BENCH_*.json gate: re-emit all six trajectories and compare each
# with its committed baseline (deterministic series and metrics exactly,
# wall-clock medians within 4.0x; a file without a partner fails).
scripts/bench_check.sh
echo "bench gate: BENCH_{core,resilience,plan,soak,chaos,table2}.json baselines ok"

# The analyzer's whole suite: its unit tests (engine, walker, lexer, AST,
# taint, per-rule), the fixture-pair rule tests (including the multi-hop
# secret-flow regression the old token rule missed), the JSONL report
# round-trip, and the in-process workspace self-scan + baseline gate.
cargo test -q --offline -p secmed-lint

# Static analysis: the in-tree lint ratchets findings against the
# committed lint-baseline.json — new findings fail, stale entries fail,
# `cargo run -p secmed-lint -- . --bless-baseline` regenerates.  On
# failure, surface the machine-readable report and per-rule counts for
# the CI log/artifacts before propagating the exit status.
if ! cargo run -q -p secmed-lint --offline; then
  echo "--- target/obs/lint.jsonl ---"
  cat target/obs/lint.jsonl 2>/dev/null || echo "(no lint report written)"
  echo "--- rule counts ---"
  tail -n 1 target/obs/lint.jsonl 2>/dev/null \
    | sed -n 's/.*"by_rule":{\([^}]*\)}.*/\1/p' | tr ',' '\n'
  exit 1
fi
# Clippy also enforces the path bans in clippy.toml: raw sockets,
# in-process channels and the frame codec outside their boundaries.
cargo clippy --workspace --all-targets --offline -- -D warnings

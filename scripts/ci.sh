#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline against an empty registry.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
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

# Every test target of every workspace member, doctests included.  Among
# them are the invariant suites: identical RunReports at 1, 2 and 8 worker
# threads (core `determinism`, also over sockets in server `equivalence`);
# the committed golden vectors and the seeded decoder-robustness suite
# (wire); 64 seeded fault plans per protocol with exact byte accounting
# (core `chaos`, server `chaos_socket` and `chaos_resilient`); resume
# byte-equivalence, admission, drain and session-table hygiene (server
# `resilience`, `sessions`, `hygiene`, client `soak_smoke`); report totals
# against the recorders (core `observability`); the zero-ppm census
# against the §6 closed forms (core `cost_model`, `plan_exec`); and the
# analyzer's fixture pairs and workspace self-scan (lint).
cargo test -q --offline --workspace
echo "tests: every workspace test target passed"

# The programs that render reports run once each: every example ends in
# assertions no test target runs, and `trace_report` writes target/obs.
for example in examples/*.rs; do
  cargo run -q --release --offline --example "$(basename "$example" .rs)" >/dev/null
done
cargo run -q --release --offline -p secmed-bench --bin trace_report >/dev/null
echo "programs: every example and trace_report ran"

# The BENCH_*.json gate: re-emit all six trajectories and compare each
# with its committed baseline (deterministic series and metrics counts
# exactly, wall-clock medians within 4.0x; a file without a partner fails).
scripts/bench_check.sh
echo "bench gate: BENCH_{core,resilience,plan,soak,chaos,table2}.json baselines ok"

# Static analysis: any in-tree lint finding fails; the one way to accept
# a finding is an audited `// lint:allow(rule) -- reason` at its site.  On
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

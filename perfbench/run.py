#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The benchmark package (`perfbench/`)
is built in release mode, offline, into `$CARGO_TARGET_DIR` (default
`.bench_build`); build output goes to standard error.  The last line of
standard output is the JSON result of the run.  `--workload all` runs every
workload in turn and ends with one JSON object whose metrics are prefixed
with the workload name.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["das-superset", "pm-matching", "commutative-sessions"]
# A run that has not ended by then is killed, so the benchmark never
# outlives its caller's limit.
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: the build failed")
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "secmed-perfbench")


def run(binary, workload, rest):
    """Runs one workload; echoes its output and returns its JSON result."""
    try:
        done = subprocess.run(
            [binary, "--workload", workload] + rest,
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not end within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with code {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return lines[-1]


def main(argv):
    if "--workload" not in argv[:-1]:
        sys.exit(__doc__)
    at = argv.index("--workload")
    workload, rest = argv[at + 1], argv[:at] + argv[at + 2:]
    binary = build()
    if workload != "all":
        print(run(binary, workload, rest))
        return
    results = {w: json.loads(run(binary, w, rest)) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": metric
            for w, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }))


if __name__ == "__main__":
    main(sys.argv[1:])

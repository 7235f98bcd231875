//! `BENCH_*.json` regression gate.
//!
//! Run from the repository root, without arguments.  Pairs every fresh
//! `target/bench/BENCH_<suite>.json` with the committed baseline of the
//! same name at the root, validates both against schema version 2 and
//! holds the fresh file to [`trajectory::compare`]: the same series,
//! units and sample counts, deterministic series and metrics counts
//! exactly, wall-clock medians within [`trajectory::MAX_WALL_RATIO`] ×
//! the baseline's.  A file on either side without its partner fails.
//!
//! Exit status 0 iff every file passes; each failure prints one line
//! naming the file and the series or counter.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use secmed_obs::trajectory;

/// Where the bench bins write their trajectories.
const FRESH_DIR: &str = "target/bench";

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_check (no arguments; run from the repository root)");
        return ExitCode::from(2);
    }
    let fresh = bench_files(Path::new(FRESH_DIR));
    let committed = bench_files(Path::new("."));
    let mut failures: Vec<String> = Vec::new();
    for name in fresh.union(&committed) {
        let fresh_path = Path::new(FRESH_DIR).join(name);
        let diffs = match (fresh.contains(name), committed.contains(name)) {
            (true, false) => vec![format!(
                "{} has no committed baseline",
                fresh_path.display()
            )],
            (false, _) => vec![format!("no fresh {} to compare", fresh_path.display())],
            (true, true) => check(&fresh_path, Path::new(name)),
        };
        println!("{name}: {} difference(s) from the baseline", diffs.len());
        failures.extend(diffs.into_iter().map(|d| format!("{name}: {d}")));
    }

    if failures.is_empty() {
        println!("bench_check: {} file(s) match their baselines", fresh.len());
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

/// Every difference between a fresh file and its baseline: schema
/// violations on either side, else [`trajectory::compare`]'s lines.
fn check(fresh: &Path, baseline: &Path) -> Vec<String> {
    match (trajectory::load(fresh), trajectory::load(baseline)) {
        (Ok(now), Ok(then)) => trajectory::compare(&now, &then),
        (now, then) => [("fresh", now), ("baseline", then)]
            .into_iter()
            .flat_map(|(side, doc)| {
                let errors = doc.err().unwrap_or_default();
                errors.into_iter().map(move |e| format!("{side}: {e}"))
            })
            .collect(),
    }
}

/// The `BENCH_*.json` file names directly under `dir` (none if it is
/// missing).
fn bench_files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect()
}

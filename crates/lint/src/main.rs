//! The `secmed-lint` binary: scans the workspace, ratchets findings
//! against the committed `lint-baseline.json`, prints violations as
//! `file:line: rule-id: message`, writes `target/obs/lint.jsonl`, and
//! exits non-zero (with a rule → count summary table) when the ratchet
//! fails.
//!
//! ```text
//! secmed-lint [ROOT] [--threads N] [--bless-baseline]
//! ```
//!
//! `--bless-baseline` regenerates `lint-baseline.json` from the current
//! findings — the diff of that file is the review surface for accepting
//! or burning down findings.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use secmed_lint::baseline::Baseline;
use secmed_lint::{gate_workspace, BASELINE_FILE};

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("secmed-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("secmed-lint: cannot locate the workspace root (no Cargo.toml with [workspace] found)");
            return ExitCode::from(2);
        }
    };

    let gate = match gate_workspace(&root, args.threads) {
        Ok(gate) => gate,
        Err(err) => {
            eprintln!("secmed-lint: linting {} failed: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    write_report(&root, &gate.outcome);

    if args.bless_baseline {
        let path = root.join(BASELINE_FILE);
        let blessed = Baseline::bless(&gate.outcome.findings);
        let count = blessed.entries.len();
        if let Err(err) = fs::write(&path, blessed.render()) {
            eprintln!("secmed-lint: writing {} failed: {err}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "secmed-lint: blessed {count} finding(s) into {} — review the diff before committing",
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    for finding in &gate.ratchet.new_findings {
        println!("{}", finding.render());
    }
    for entry in &gate.ratchet.stale {
        println!(
            "{}:{}: lint-baseline: stale entry for `{}` — the finding is gone, remove it from {}",
            entry.file, entry.line, entry.rule, BASELINE_FILE
        );
    }
    if gate.passing() {
        eprintln!(
            "secmed-lint: {} files clean ({} audited suppressions in use, {} baselined)",
            gate.outcome.files_scanned,
            gate.outcome.suppressions_used.len(),
            gate.ratchet.matched
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nsecmed-lint: {} new violation(s), {} stale baseline entr(ies) in {} files\n\n{}",
            gate.ratchet.new_findings.len(),
            gate.ratchet.stale.len(),
            gate.outcome.files_scanned,
            gate.outcome.summary_table()
        );
        ExitCode::FAILURE
    }
}

/// Writes `target/obs/lint.jsonl`.  A write failure is a warning, not a
/// gate failure: the findings are printed either way.
fn write_report(root: &Path, outcome: &secmed_lint::RunOutcome) {
    let report_path = root.join("target/obs/lint.jsonl");
    if let Some(dir) = report_path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(err) = fs::write(&report_path, outcome.to_jsonl()) {
        eprintln!(
            "secmed-lint: writing {} failed: {err}",
            report_path.display()
        );
    }
}

struct Args {
    root: Option<PathBuf>,
    threads: usize,
    bless_baseline: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            root: None,
            threads: 0,
            bless_baseline: false,
        };
        let mut it = env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--bless-baseline" => args.bless_baseline = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    args.threads = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value `{v}`"))?;
                }
                _ if arg.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{arg}` (expected --threads N or --bless-baseline)"
                    ));
                }
                _ if args.root.is_none() => args.root = Some(PathBuf::from(arg)),
                _ => return Err(format!("unexpected extra argument `{arg}`")),
            }
        }
        Ok(args)
    }
}

/// Finds the workspace root: walk up from the current directory to the
/// first `Cargo.toml` containing `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        dir = dir.parent().map(Path::to_path_buf)?;
    }
}

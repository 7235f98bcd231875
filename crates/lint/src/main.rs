//! The `secmed-lint` binary: scans the workspace, prints violations as
//! `file:line: rule-id: message`, writes `target/obs/lint.jsonl`, and
//! exits non-zero (with a rule → count summary table) on any finding.
//!
//! ```text
//! secmed-lint [ROOT] [--threads N]
//! ```

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use secmed_lint::lint_workspace_with;

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

    let outcome = match lint_workspace_with(&root, args.threads) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("secmed-lint: linting {} failed: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    write_report(&root, &outcome);

    for finding in &outcome.findings {
        println!("{}", finding.render());
    }
    if outcome.clean() {
        eprintln!(
            "secmed-lint: {} files clean ({} audited suppressions in use)",
            outcome.files_scanned,
            outcome.suppressions_used.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nsecmed-lint: {} violation(s) in {} files\n\n{}",
            outcome.findings.len(),
            outcome.files_scanned,
            outcome.summary_table()
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
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            root: None,
            threads: 0,
        };
        let mut it = env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    args.threads = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value `{v}`"))?;
                }
                _ if arg.starts_with("--") => {
                    return Err(format!("unknown flag `{arg}` (expected --threads N)"));
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

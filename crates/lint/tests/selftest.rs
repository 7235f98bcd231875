//! The shipped workspace must lint clean: this is the same scan
//! `scripts/ci.sh` runs via `cargo run -p secmed-lint`, executed
//! in-process so `cargo test` alone also guards the invariants.

use std::path::Path;

use secmed_lint::lint_workspace_with;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn shipped_workspace_passes_the_lint_gate() {
    let outcome = lint_workspace_with(workspace_root(), 0).expect("workspace walk succeeds");
    assert!(outcome.files_scanned > 50, "walker found the workspace");
    assert!(
        outcome.clean(),
        "the shipped workspace must have no findings:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every accepted finding is an audited suppression at its site: each
    // one in the tree is in active use (unused ones would be findings)
    // and carries its reason.
    for (file, line, rules, reason) in &outcome.suppressions_used {
        assert!(!reason.is_empty(), "{file}:{line} ({rules}) lacks a reason");
    }
}

/// The parallel per-file phase must not perturb output: the whole real
/// workspace lints to identical findings at one and eight threads.
#[test]
fn workspace_scan_is_thread_count_invariant() {
    let root = workspace_root();
    let one = lint_workspace_with(root, 1).expect("sequential scan");
    let eight = lint_workspace_with(root, 8).expect("parallel scan");
    assert_eq!(one.to_jsonl(), eight.to_jsonl());
}

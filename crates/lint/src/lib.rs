//! `secmed-lint` — in-tree static analysis for the secmed workspace.
//!
//! A hand-rolled Rust lexer ([`lexer`]), a test-region and suppression
//! aware source model ([`source`]), and a pluggable rule engine
//! ([`engine`]) enforce the workspace's security invariants as a CI gate:
//!
//! - `panic-freedom` — no aborting escape hatches in protocol/crypto/bigint
//!   code (a panic in the mediator is a DoS lever),
//! - `determinism` — wall-clock reads only in `crates/obs` / `crates/bench`,
//!   raw threading only in `crates/pool`,
//! - `fault-discipline` — fault plans are built only at the fabric
//!   boundary and in the test and bench harnesses.
//!
//! plus the AST/callgraph rules layered on the item-level parser
//! ([`ast`], [`callgraph`], [`taint`]):
//!
//! - `secret-flow` — interprocedural taint: key material must not reach
//!   branches, loop bounds, allocation sizes, or `==`/`!=`,
//! - `census-coverage` — modular exponentiations in `crates/crypto` must
//!   bump the primitive census so Table 2 stays exact,
//! - `retry-discipline` — `DeliveryPolicy` bounded, `RunOutcome::Degraded`
//!   explained.
//!
//! The path bans that need only name resolution are not here: the
//! workspace `clippy.toml` bans raw sockets, in-process channels and the
//! frame codec outside their boundaries, and `scripts/ci.sh` checks that
//! every locked dependency resolves by path.
//!
//! Violations render as `file:line: rule-id: message`; a machine-readable
//! JSONL report goes to `target/obs/lint.jsonl`.  The one way to accept a
//! finding is an audited `// lint:allow(rule-id) -- reason` at its site
//! (reason mandatory; unused or malformed suppressions are themselves
//! findings under `lint-allow`), so the gate passes only with zero
//! findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod taint;
pub mod walk;

use std::io;
use std::path::Path;

pub use engine::{Finding, Rule, RunOutcome};
pub use source::SourceFile;

/// Runs the default rule set over the workspace rooted at `root` with
/// an explicit per-file thread count (`0` ⇒ pool default).  Output is
/// identical at any thread count.
pub fn lint_workspace_with(root: &Path, threads: usize) -> io::Result<RunOutcome> {
    let sources = walk::collect(root)?;
    Ok(engine::run_with(&rules::default_rules(), &sources, threads))
}

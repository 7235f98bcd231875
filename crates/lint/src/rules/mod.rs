//! The shipped rule set.
//!
//! Each rule is a small, self-contained module; `default_rules` assembles
//! the set the `secmed-lint` binary and the self-test run.  DESIGN.md's
//! "Static analysis" section maps every rule to the paper property it
//! protects.  The path bans on sockets, channels and the frame codec
//! live in the workspace `clippy.toml`, where name resolution enforces
//! them.

mod census_coverage;
mod determinism;
mod fault_discipline;
mod panic_freedom;
mod retry_discipline;
mod secret_flow;

pub use census_coverage::CensusCoverage;
pub use determinism::Determinism;
pub use fault_discipline::FaultDiscipline;
pub use panic_freedom::PanicFreedom;
pub use retry_discipline::RetryDiscipline;
pub use secret_flow::SecretFlow;

use crate::engine::Rule;

/// The six shipped rules, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFreedom),
        Box::new(SecretFlow),
        Box::new(CensusCoverage),
        Box::new(RetryDiscipline),
        Box::new(FaultDiscipline),
        Box::new(Determinism),
    ]
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `secmed` — umbrella crate for the Secure Mediation of Join Queries
//! reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests have a single dependency:
//!
//! * [`mpint`] — big integers,
//! * [`crypto`] — the cryptographic primitives,
//! * [`relalg`] — the relational-algebra engine,
//! * [`das`] — Database-as-a-Service bucketization,
//! * [`core`] — the Multimedia Mediator and the three JOIN protocols,
//! * [`plan`] — the cost- and leakage-aware query planner over the three
//!   protocols,
//! * [`pool`] — the deterministic fork-join thread pool behind
//!   [`core::RunOptions::threads`],
//! * [`obs`] — structured tracing, span profiles, the metrics registry,
//!   and the bench harness.
//!
//! See `README.md` for a guided tour and `examples/quickstart.rs` for a
//! complete end-to-end run.

pub use mpint;
pub use relalg;
pub use secmed_core as core;
pub use secmed_crypto as crypto;
pub use secmed_das as das;
pub use secmed_obs as obs;
pub use secmed_plan as plan;
pub use secmed_pool as pool;

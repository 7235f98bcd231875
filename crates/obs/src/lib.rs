#![forbid(unsafe_code)]

//! Offline-first observability for the secure-mediation system.
//!
//! Everything in this crate is std-only with zero external dependencies,
//! so the workspace builds and measures itself fully offline:
//!
//! * [`trace`] — structured hierarchical spans and events over a
//!   process-global, thread-safe buffer, exported as JSON-lines,
//! * [`run`] — the run scope: one run's census slots and trace switch,
//!   inherited by its pool workers and published once when it closes,
//! * [`bench`] — a micro-benchmark harness (warmup, batch calibration,
//!   mean/median/stddev) used by every bench binary,
//! * [`metrics`] — the process-global metrics registry: named counters,
//!   each a seed-pure count (every finished run's account is published
//!   once); wall time is never a metric, it lives only in spans,
//! * [`profile`] — span-profile aggregation, the one place a run's phase
//!   wall-clock comes from: folds a trace into a self/total-time tree
//!   with collapsed-stack (flamegraph) output,
//! * [`trajectory`] — the `BENCH_*.json` performance-trajectory schema,
//!   writer, validator, and the baseline compare behind
//!   `scripts/bench_check.sh`,
//! * [`json`] — the hand-rolled JSON value model (and tolerant parser)
//!   the other modules emit and re-read.

pub mod bench;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod run;
pub mod trace;
pub mod trajectory;

pub use json::Json;
pub use metrics::{Counter, MetricsSnapshot};
pub use profile::{Profile, ProfileNode};
pub use trace::{event, event_with, span, SpanGuard};
pub use trajectory::TrajectoryFile;

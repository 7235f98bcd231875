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
//! * [`report`] — the unified [`report::RunReport`] joining phase timings,
//!   transport traffic, the primitive census, and the leakage audit of one
//!   protocol run, rendered as JSON or an aligned table,
//! * [`bench`] — a micro-benchmark harness (warmup, batch calibration,
//!   mean/median/stddev, optional throughput) used by every bench binary,
//! * [`metrics`] — the process-global metrics registry: counters, gauges,
//!   and log₂ histograms, split into a *deterministic* class (seed-pure,
//!   safe inside `RunReport`) and a *timing* class (wall-clock, exported
//!   separately behind a [`metrics::Clock`] abstraction),
//! * [`profile`] — span-profile aggregation: folds a trace into a
//!   self/total-time tree with collapsed-stack (flamegraph) output,
//! * [`trajectory`] — the `BENCH_*.json` performance-trajectory schema,
//!   writer, and validator backing `scripts/bench_check.sh`,
//! * [`json`] — the hand-rolled JSON value model (and tolerant parser)
//!   the other modules emit and re-read.

pub mod bench;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod run;
pub mod trace;
pub mod trajectory;

pub use json::Json;
pub use metrics::{Class, Counter, Gauge, Hist, Histogram, MetricsSnapshot};
pub use profile::{Profile, ProfileNode};
pub use report::{EdgeStat, OpStat, PhaseStat, RunReport};
pub use trace::{event, event_with, span, SpanGuard};
pub use trajectory::TrajectoryFile;

//! Resilience bench: the session-resilience layer under load, measured.
//!
//! Three phases against in-process servers over loopback TCP:
//!
//! 1. **Overload ramp** — a server with `max_sessions = 8` holds eight
//!    admitted sessions open while 24 more clients dial in; every
//!    over-limit Hello must be refused with a typed `ServerBusy` NACK.
//!    The admitted/refused counts are deterministic (the table is full
//!    by construction, not by racing).
//! 2. **Chaos-kill workload** — a server with a seeded
//!    [`ServerFaultPlan`] kills, stalls, and half-writes its way through
//!    sequential protocol sessions; the client fabric heals every cut by
//!    reconnect-and-resume.  The interruption (resume) count and the
//!    per-session byte volumes are deterministic: fault rolls are keyed
//!    by session/frame/incarnation and resume replay keeps each
//!    `RunReport` byte-identical to an undisturbed run.
//! 3. **Drain** — a server with two completed and two parked sessions is
//!    shut down; the time from `shutdown()` to the serving scope joining
//!    is the drain latency, a timing series (machine-local) of
//!    [`DRAINS`] samples, each on a fresh server.  A drain either finds
//!    every relay thread gone at once or sleeps one server tick, so a
//!    single sample would be either mode.
//!
//! Emits `target/bench/BENCH_resilience.json` in the PR 6 trajectory
//! format.  All wall-clock goes through [`secmed_obs::metrics::Clock`].

use std::path::PathBuf;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Fabric, MedError, PmConfig, ReconnectPolicy, RunOptions,
    ScenarioBuilder, SocketFabric, TraceSink,
};
use secmed_obs::metrics::{self, Clock, MonotonicClock};
use secmed_obs::trajectory::TrajectoryFile;
use secmed_server::{Server, ServerConfig, ServerFaultPlan, SessionOutcome};

const HELD: u64 = 8;
const OVERFLOW: u64 = 24;
const CHAOS_SESSIONS: u64 = 12;
/// Drains timed, each on a fresh server.
const DRAINS: usize = 5;

/// Phase 1: fill the admission table, then count typed refusals.
fn overload_ramp() -> (u64, u64) {
    let config = ServerConfig {
        max_sessions: HELD as usize,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind overload server");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let held: Vec<SocketFabric> = (1..=HELD)
            .map(|i| SocketFabric::connect(addr, i, Default::default()).expect("admit"))
            .collect();
        for i in 0..OVERFLOW {
            match SocketFabric::connect(addr, HELD + 1 + i, Default::default()) {
                Err(MedError::Busy(_)) => {}
                Err(other) => panic!("over-limit Hello must be refused Busy, got {other}"),
                Ok(_) => panic!("over-limit Hello must be refused Busy, got an admission"),
            }
        }
        for fabric in held {
            fabric.into_recorder().expect("clean goodbye");
        }
        handle.shutdown();
    });
    let ledger = server.summaries();
    let admitted = ledger.iter().filter(|l| l.completed()).count() as u64;
    let refused = ledger
        .iter()
        .filter(|l| matches!(l.outcome, SessionOutcome::Rejected(_)))
        .count() as u64;
    assert_eq!(admitted, HELD, "every held session completes: {ledger:?}");
    assert_eq!(
        refused, OVERFLOW,
        "every overflow Hello refused: {ledger:?}"
    );
    assert_eq!(server.active_sessions(), 0, "overload table leaked");
    (admitted, refused)
}

/// Phase 2: sequential protocol sessions against a chaotic server, all
/// healed by resume.  Returns (interruptions, per-session bytes).
fn chaos_workload() -> (u64, Vec<f64>) {
    let config = ServerConfig {
        replay_window: 8,
        chaos: Some(ServerFaultPlan::for_seed(7)),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind chaos server");
    let addr = server.addr();
    let bytes = secmed_pool::scope(|s| {
        let handle = server.start(s);
        // Sequential on purpose: one session at a time keeps the fault
        // rolls (keyed per session/frame/incarnation) and therefore the
        // interruption count deterministic.
        let bytes: Vec<f64> = (0..CHAOS_SESSIONS)
            .map(|i| {
                let w = WorkloadSpec {
                    left_rows: 4,
                    right_rows: 4,
                    left_domain: 3,
                    right_domain: 3,
                    shared_values: 2,
                    payload_attrs: 1,
                    seed: format!("resilience/{i}"),
                    ..Default::default()
                }
                .generate();
                let mut sc = ScenarioBuilder::new(&w).seed("resilience").build();
                let opts = match i % 3 {
                    0 => RunOptions::das(DasConfig::default()),
                    1 => RunOptions::commutative(CommutativeConfig::default()),
                    _ => RunOptions::pm(PmConfig::default()),
                }
                .trace(TraceSink::Discard);
                let reconnect = ReconnectPolicy {
                    max_reconnects: 64,
                    base_backoff_ns: 50_000,
                    backoff_cap_ns: 2_000_000,
                    seed: i,
                };
                let report =
                    secmed_client::run_session_with(addr, i + 1, &mut sc, &opts, reconnect)
                        .unwrap_or_else(|e| panic!("chaos session {i} failed: {e}"));
                assert!(
                    report.outcome.is_clean(),
                    "chaos session {i} not clean: {:?}",
                    report.outcome
                );
                report.transport.total_bytes() as f64
            })
            .collect();
        handle.shutdown();
        bytes
    });
    let ledger = server.summaries();
    let interruptions = ledger
        .iter()
        .filter(|l| matches!(l.outcome, SessionOutcome::Suspended(_)))
        .count() as u64;
    assert!(
        interruptions > 0,
        "server chaos never struck — the resume path went unmeasured"
    );
    assert_eq!(server.active_sessions(), 0, "chaos table leaked");
    assert_eq!(server.parked_sessions(), 0, "chaos parked leaked");
    (interruptions, bytes)
}

/// Phase 3: drain a server holding parked sessions; returns the latency
/// from `shutdown()` to the serving scope joining, in nanoseconds.
fn drain_latency(clock: &MonotonicClock) -> u64 {
    let config = ServerConfig {
        replay_window: 4,
        drain_deadline_ns: 500_000_000,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind drain server");
    let addr = server.addr();
    let mut started_ns = 0;
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        for i in 1..=2u64 {
            SocketFabric::connect(addr, i, Default::default())
                .expect("admit")
                .into_recorder()
                .expect("clean goodbye");
        }
        for i in 3..=4u64 {
            // Admitted, then dropped without a Goodbye: parked, and
            // reaped by the drain into a typed abort.
            drop(SocketFabric::connect(addr, i, Default::default()).expect("admit"));
        }
        started_ns = clock.now_ns();
        handle.shutdown();
    });
    let drain_ns = clock.now_ns().saturating_sub(started_ns);
    assert_eq!(server.active_sessions(), 0, "drain left live sessions");
    assert_eq!(server.parked_sessions(), 0, "drain left parked sessions");
    let ledger = server.summaries();
    let aborted = ledger
        .iter()
        .filter(|l| matches!(l.outcome, SessionOutcome::Aborted(_)))
        .count();
    assert_eq!(
        aborted, 2,
        "drain must reap both parked sessions: {ledger:?}"
    );
    drain_ns
}

fn main() {
    let clock = MonotonicClock;
    let bench_start = clock.now_ns();

    let (admitted, refused) = overload_ramp();
    println!("resilience: overload ramp — {admitted} admitted, {refused} refused (typed)");

    let (resumed, session_bytes) = chaos_workload();
    println!(
        "resilience: chaos workload — {CHAOS_SESSIONS} sessions, {resumed} interruptions resumed"
    );

    let mut drain_ns = vec![drain_latency(&clock) as f64];
    // The metrics snapshot covers one pass of every phase; the remaining
    // drains add timing samples only.
    let snapshot = metrics::snapshot();
    drain_ns.extend((1..DRAINS).map(|_| drain_latency(&clock) as f64));
    let drains_ms: Vec<String> = drain_ns
        .iter()
        .map(|ns| format!("{:.2}", ns / 1e6))
        .collect();
    println!(
        "resilience: drain — parked sessions reaped in {} ms ({DRAINS} servers)",
        drains_ms.join(" / ")
    );

    let wall_ns = clock.now_ns().saturating_sub(bench_start);
    let mut traj = TrajectoryFile::new("resilience", "resilience", 1);
    traj.push("resilience/admitted", "count", vec![admitted as f64]);
    traj.push("resilience/refused", "count", vec![refused as f64]);
    traj.push("resilience/resumed", "count", vec![resumed as f64]);
    traj.push("resilience/session/bytes", "bytes", session_bytes);
    traj.push("resilience/drain/wall", "ns", drain_ns);
    traj.push("resilience/wall", "ns", vec![wall_ns as f64]);
    traj.set_metrics(&snapshot);
    let path = traj
        .write_under(&PathBuf::from("target/bench"))
        .expect("write BENCH_resilience.json");
    println!("bench: {}", path.display());
}

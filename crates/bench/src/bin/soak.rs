//! Soak bench: many concurrent client sessions against one mediation
//! server over loopback TCP.
//!
//! One `secmed-server` is hosted in-process; `N` client threads (default
//! 128, ISSUE 8 floor is 100) each dial it with a distinct session id
//! and run a full protocol scenario — protocols round-robin across
//! DAS/commutative/PM so the relay sees all three frame mixes at once.
//! Every session must end `Clean`; afterwards the server ledger must
//! show exactly `N` completed sessions and an empty session table.
//!
//! Emits `target/bench/BENCH_soak.json`: the session count and the
//! per-session byte volumes as deterministic series, total wall-clock as
//! a timing series (machine-local).  Every session runs the engine's
//! default single-worker pool, so the file records one thread.
//!
//! ```text
//! soak [SESSIONS]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{CommutativeConfig, DasConfig, PmConfig, RunOptions, ScenarioBuilder, TraceSink};
use secmed_obs::metrics;
use secmed_obs::trajectory::TrajectoryFile;
use secmed_server::Server;

fn main() {
    let sessions: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("SESSIONS must be a number"))
        .unwrap_or(128);
    assert!(sessions >= 1, "need at least one session");

    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    println!("soak: {sessions} concurrent sessions against {addr}");

    let start = Instant::now();
    let per_session_bytes: Vec<f64> = secmed_pool::scope(|s| {
        let handle = server.start(s);
        let workers: Vec<_> = (0..sessions)
            .map(|i| {
                s.spawn(move || {
                    let w = WorkloadSpec {
                        left_rows: 4,
                        right_rows: 4,
                        left_domain: 3,
                        right_domain: 3,
                        shared_values: 2,
                        payload_attrs: 1,
                        seed: format!("soak/{i}"),
                        ..Default::default()
                    }
                    .generate();
                    let mut sc = ScenarioBuilder::new(&w).seed("soak").build();
                    let opts = match i % 3 {
                        0 => RunOptions::das(DasConfig::default()),
                        1 => RunOptions::commutative(CommutativeConfig::default()),
                        _ => RunOptions::pm(PmConfig::default()),
                    }
                    .trace(TraceSink::Discard);
                    let report = secmed_client::run_session(addr, i + 1, &mut sc, &opts)
                        .unwrap_or_else(|e| panic!("session {i} failed: {e}"));
                    assert!(
                        report.outcome.is_clean(),
                        "session {i} not clean: {:?}",
                        report.outcome
                    );
                    report.transport.total_bytes() as f64
                })
            })
            .collect();
        // Join in spawn order: the byte series is indexed by session, so
        // its sample order is deterministic even though completion
        // order is not.
        let bytes = workers
            .into_iter()
            .map(|w| w.join().expect("session thread panicked"))
            .collect();
        handle.shutdown();
        bytes
    });
    let wall = start.elapsed();

    let summaries = server.summaries();
    assert_eq!(summaries.len() as u64, sessions, "ledger incomplete");
    assert!(
        summaries.iter().all(|s| s.completed()),
        "not every session completed: {summaries:?}"
    );
    assert_eq!(server.active_sessions(), 0, "session table leaked");

    let rate = sessions as f64 / wall.as_secs_f64();
    let total_bytes: f64 = per_session_bytes.iter().sum();
    println!(
        "soak: {sessions} sessions in {:.2}s — {rate:.1} sessions/sec, {} bytes relayed",
        wall.as_secs_f64(),
        total_bytes as u64
    );

    let mut traj = TrajectoryFile::new("soak", "soak", 1);
    traj.push("soak/sessions", "count", vec![sessions as f64]);
    traj.push("soak/wall", "ns", vec![wall.as_nanos() as f64]);
    traj.push("soak/session/bytes", "bytes", per_session_bytes);
    traj.set_metrics(&metrics::snapshot());
    let path = traj
        .write_under(&PathBuf::from("target/bench"))
        .expect("write BENCH_soak.json");
    println!("bench: {}", path.display());
}

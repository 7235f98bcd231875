//! Soak smoke: eight concurrent client sessions against one server
//! process — the small, always-on version of the `soak` bench bin, run
//! by name from `scripts/ci.sh`.
//!
//! Each session picks a distinct id and a distinct workload seed, runs a
//! full commutative-protocol scenario over its own socket, and must come
//! back `Clean` with a non-empty transport log and a Table 2 census equal
//! to the §6 prediction for its own workload.  Afterwards the server's
//! ledger shows exactly eight completed sessions and an empty session
//! table.

use std::sync::Barrier;

use secmed_core::cost::{observed, predict, shape_of};
use secmed_core::workload::WorkloadSpec;
use secmed_core::{CommutativeConfig, ProtocolKind, RunOptions, ScenarioBuilder, TraceSink};
use secmed_server::Server;

const SESSIONS: u64 = 8;

#[test]
fn eight_concurrent_sessions_complete_cleanly() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    let start = Barrier::new(SESSIONS as usize);
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let workers: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let start = &start;
                s.spawn(move || {
                    let w = WorkloadSpec {
                        left_rows: 4,
                        right_rows: 4,
                        left_domain: 3,
                        right_domain: 3,
                        shared_values: 2,
                        payload_attrs: 1,
                        seed: format!("soak-smoke/{i}"),
                        ..Default::default()
                    }
                    .generate();
                    let mut sc = ScenarioBuilder::new(&w).seed("soak-smoke").build();
                    let kind = ProtocolKind::Commutative(CommutativeConfig::default());
                    let opts = RunOptions::new(kind).trace(TraceSink::Discard);
                    start.wait();
                    let report = secmed_client::run_session(addr, 1000 + i, &mut sc, &opts)
                        .unwrap_or_else(|e| panic!("session {i} failed: {e}"));
                    assert!(
                        report.outcome.is_clean(),
                        "session {i}: {:?}",
                        report.outcome
                    );
                    assert!(report.transport.message_count() > 0);
                    let shape = shape_of(&w.left, &w.right, "k", 0).expect("shape");
                    assert_eq!(
                        observed(&report.primitives),
                        predict(&kind, &shape),
                        "session {i}: census is not its own workload's"
                    );
                })
            })
            .collect();
        // Shut the server down before judging any session, so a failed
        // check fails the test instead of leaving the scope waiting.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        handle.shutdown();
        for session in joined {
            if let Err(panic) = session {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let summaries = server.summaries();
    assert_eq!(summaries.len() as u64, SESSIONS);
    assert!(summaries.iter().all(|s| s.completed()), "{summaries:?}");
    assert_eq!(server.active_sessions(), 0, "session table leaked");
}

//! The tentpole's acceptance oracle: the same seeded scenario produces a
//! byte-identical report over the in-process recorder and over a real
//! loopback-socket session, for every protocol, at 1/2/8 threads.
//!
//! Byte-identical here is the chaos fingerprint: result relation, typed
//! outcome, the complete transport log (ordering, labels, payload bytes),
//! both Table 1 leakage views, and the Table 2 census.  The in-process
//! run threads the same session id onto its frames
//! ([`Transport::with_session`]) so the two logs are comparable bit for
//! bit; everything else about the socket run — the handshake, the relay
//! echo, the goodbye — must leave no trace.

use secmed_core::{Engine, RunOptions, ScenarioBuilder, SocketFabric, TraceSink, Transport};
use secmed_server::Server;
use secmed_testkit::chaos;

#[test]
fn loopback_sockets_are_byte_equivalent_to_in_process() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    let w = chaos::workload();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        for (pi, kind) in [chaos::DAS, chaos::COMMUTATIVE, chaos::PM]
            .into_iter()
            .enumerate()
        {
            for (ti, threads) in chaos::THREADS.into_iter().enumerate() {
                // A distinct session per run keeps this loop free of
                // reclaim races; equivalence only needs the *pair* to
                // share an id.
                let session = 100 * (pi as u64 + 1) + ti as u64;
                let opts = RunOptions::new(kind)
                    .threads(threads)
                    .trace(TraceSink::Discard);

                let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
                let local = Engine::run_on(Transport::with_session(session), &mut sc, &opts)
                    .expect("in-process run");

                let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
                let fabric =
                    SocketFabric::connect(addr, session, opts.delivery).expect("handshake");
                let remote = Engine::run_on(fabric, &mut sc, &opts).expect("socket run");

                assert_eq!(
                    chaos::fingerprint(&local),
                    chaos::fingerprint(&remote),
                    "{} at {threads} threads: socket report diverged from in-process",
                    kind.name()
                );
            }
        }
        handle.shutdown();
    });
    // The scope has joined: the ledger is complete, every session said
    // Goodbye, and the session table holds nothing.
    let summaries = server.summaries();
    assert_eq!(summaries.len(), 9, "one ledger line per socket run");
    assert!(summaries.iter().all(|s| s.completed()), "{summaries:?}");
    assert_eq!(server.active_sessions(), 0, "session table leaked");
}

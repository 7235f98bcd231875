//! The resilience layer's acceptance suite: reconnect-and-resume
//! equivalence, admission control, idle deadlines, graceful drain, and
//! the simulated server restart.
//!
//! The headline invariant mirrors PR 8's equivalence oracle: a session
//! whose connections are killed by *server-side* chaos, resumed by the
//! client fabric, must produce a [`RunReport`] byte-identical (chaos
//! fingerprint: result, outcome, transport log, both leakage views, the
//! Table 2 census) to the same scenario run against a faithful server —
//! for every protocol, at 1/2/8 threads.  Resume replays exactly the
//! echoes the client missed and sequence numbers never appear in frame
//! bytes, so the recorded log cannot tell the difference.

use std::sync::Arc;

use secmed_core::{
    Engine, MedError, ReconnectPolicy, RunOptions, ScenarioBuilder, SocketFabric, TraceSink,
};
use secmed_obs::metrics::ManualClock;
use secmed_server::{Server, ServerConfig, ServerFaultPlan, SessionOutcome};
use secmed_testkit::chaos;
use secmed_wire::{stream, Frame, SessionStatus, WIRE_VERSION};

/// Spins until the server's session table is empty (relay teardown runs
/// a socket-read behind the client's drop).
fn await_reclaim(server: &Server) {
    for _ in 0..u64::MAX >> 20 {
        if server.active_sessions() == 0 {
            return;
        }
        std::hint::spin_loop();
    }
    panic!("server never reclaimed its session table entries");
}

/// A config with resume enabled and aggressive server-side kills and
/// partial writes — everything the resume protocol must paper over.
fn killing_config(seed: u64) -> ServerConfig {
    ServerConfig {
        replay_window: 8,
        chaos: Some(ServerFaultPlan {
            seed,
            kill_per_mille: 120,
            stall_per_mille: 40,
            stall_ns: 100_000,
            partial_write_per_mille: 80,
            restart_at_frame: None,
        }),
        ..ServerConfig::default()
    }
}

/// Server-side kills + client resume leave the report byte-identical to
/// a run against a faithful server, per protocol, per thread count.
#[test]
fn resumed_runs_are_byte_identical_to_undisturbed_runs() {
    let w = chaos::workload();
    let mut interruptions = 0usize;
    for (pi, kind) in [chaos::DAS, chaos::COMMUTATIVE, chaos::PM]
        .into_iter()
        .enumerate()
    {
        for (ti, threads) in chaos::THREADS.into_iter().enumerate() {
            let session = 1000 + 10 * (pi as u64) + ti as u64;
            let opts = RunOptions::new(kind)
                .threads(threads)
                .trace(TraceSink::Discard);

            // The yardstick: the same session id against a faithful server.
            let clean_server = Server::bind().expect("bind");
            let clean = secmed_pool::scope(|s| {
                let handle = clean_server.start(s);
                let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
                let fabric = SocketFabric::connect(clean_server.addr(), session, opts.delivery)
                    .expect("handshake");
                let report = Engine::run_on(fabric, &mut sc, &opts).expect("clean run");
                handle.shutdown();
                report
            });

            let chaotic_server = Server::bind_with(killing_config(session)).expect("bind chaotic");
            let resumed = secmed_pool::scope(|s| {
                let handle = chaotic_server.start(s);
                let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
                let fabric = SocketFabric::connect_with(
                    chaotic_server.addr(),
                    session,
                    opts.delivery,
                    chaos::reconnect_for(session),
                )
                .expect("handshake");
                let report = Engine::run_on(fabric, &mut sc, &opts).expect("resumed run");
                handle.shutdown();
                report
            });

            assert_eq!(
                chaos::fingerprint(&clean),
                chaos::fingerprint(&resumed),
                "{} at {threads} threads: resumed report diverged",
                kind.name()
            );
            // Count the kills/partials this cell drew; any individual
            // cell may escape unscathed, but across nine cells at these
            // rates the chaos machinery must demonstrably fire.
            let ledger = chaotic_server.summaries();
            interruptions += ledger
                .iter()
                .filter(|l| matches!(l.outcome, SessionOutcome::Suspended(_)))
                .count();
            assert!(
                ledger.iter().any(|l| l.completed()),
                "{} at {threads} threads: resumed session never completed",
                kind.name()
            );
            assert_eq!(chaotic_server.active_sessions(), 0, "table leaked");
        }
    }
    assert!(
        interruptions > 0,
        "no cell drew a kill or partial write — rates too low to test resume"
    );
}

/// A simulated restart mid-session: the server forgets the session, the
/// client's resume is answered `UnknownSession`, and the run fails with
/// a *typed* error — never a hang or a panic.
#[test]
fn server_restart_surfaces_a_typed_error() {
    let config = ServerConfig {
        replay_window: 8,
        chaos: Some(ServerFaultPlan {
            restart_at_frame: Some(4),
            ..ServerFaultPlan::none(7)
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind");
    let addr = server.addr();
    let w = chaos::workload();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let opts = RunOptions::new(chaos::DAS).trace(TraceSink::Discard);
        let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
        let fabric = SocketFabric::connect_with(addr, 5, opts.delivery, chaos::reconnect_for(5))
            .expect("handshake");
        match Engine::run_on(fabric, &mut sc, &opts) {
            Err(MedError::Fabric(msg)) => {
                assert!(
                    msg.contains("unknown session"),
                    "wrong refusal surfaced: {msg}"
                );
            }
            Err(other) => panic!("expected a Fabric error, got: {other}"),
            Ok(_) => panic!("a forgotten session cannot complete"),
        }
        await_reclaim(&server);
        handle.shutdown();
    });
    let ledger = server.summaries();
    assert!(
        ledger.iter().any(|l| matches!(
            &l.outcome,
            SessionOutcome::Aborted(m) if m.contains("restarted")
        )),
        "restart must leave its typed abort in the ledger: {ledger:?}"
    );
    assert!(
        ledger.iter().any(|l| l.outcome
            == SessionOutcome::ResumeRejected(secmed_wire::ResumeStatus::UnknownSession)),
        "the refused resume must be in the ledger: {ledger:?}"
    );
    assert_eq!(server.active_sessions(), 0);
}

/// Admission control: with `max_sessions = 2`, a third concurrent Hello
/// is refused with the retryable [`MedError::Busy`]; once a slot frees,
/// the same id is admitted.
#[test]
fn over_limit_hellos_get_a_retryable_busy_refusal() {
    let config = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let a = SocketFabric::connect(addr, 1, Default::default()).expect("first");
        let b = SocketFabric::connect(addr, 2, Default::default()).expect("second");
        match SocketFabric::connect(addr, 3, Default::default()) {
            Err(MedError::Busy(msg)) => {
                assert!(msg.contains("admission"), "unexpected message: {msg}")
            }
            Err(other) => panic!("expected MedError::Busy, got: {other}"),
            Ok(_) => panic!("third session must be refused at max_sessions = 2"),
        }
        drop(a);
        drop(b);
        for _ in 0..u64::MAX >> 20 {
            if server.active_sessions() == 0 {
                break;
            }
            std::hint::spin_loop();
        }
        // With slots free again, the refused id is admitted — and a
        // reconnect policy turns the refusal into silent retry.
        let c =
            SocketFabric::connect_with(addr, 3, Default::default(), ReconnectPolicy::standard(3))
                .expect("admitted after slots freed");
        drop(c);
        await_reclaim(&server);
        handle.shutdown();
    });
    let refused = server
        .summaries()
        .iter()
        .filter(|l| l.outcome == SessionOutcome::Rejected(SessionStatus::ServerBusy))
        .count();
    assert_eq!(
        refused,
        1,
        "exactly one ServerBusy line: {:?}",
        server.summaries()
    );
    assert_eq!(server.active_sessions(), 0);
}

/// Idle deadlines through a manual clock: a parked session whose client
/// never returns is reaped, and its `Suspended` ledger line is rewritten
/// into the typed idle abort.
#[test]
fn parked_sessions_are_reaped_after_the_idle_deadline() {
    let clock = Arc::new(ManualClock::at(0));
    let config = ServerConfig {
        replay_window: 4,
        idle_deadline_ns: 1_000_000_000,
        clock: clock.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let mut socket = std::net::TcpStream::connect(addr).expect("connect");
        let hello = Frame::Hello {
            client_version: WIRE_VERSION,
            max_attempts: 3,
            degrade_on_exhausted: false,
        };
        stream::write_blob(&mut socket, &hello.encode_with_session(11)).expect("hello");
        stream::read_blob(&mut socket).expect("ack").expect("ack");
        // Relay one frame, then vanish: with resume enabled the server
        // parks the session instead of aborting.
        let mut payload = Frame::Goodbye.encode_with_session(11);
        payload[3] = 0x7f;
        stream::write_blob(&mut socket, &payload).expect("send");
        stream::read_blob(&mut socket).expect("echo").expect("echo");
        drop(socket);
        for _ in 0..u64::MAX >> 20 {
            if server.parked_sessions() == 1 {
                break;
            }
            std::hint::spin_loop();
        }
        assert_eq!(server.parked_sessions(), 1, "disconnect must park");
        assert!(
            matches!(
                server.summaries().first().map(|l| l.outcome.clone()),
                Some(SessionOutcome::Suspended(_))
            ),
            "parked session must show as Suspended: {:?}",
            server.summaries()
        );

        // Under the deadline: still parked.
        clock.advance(999_999_999);
        assert_eq!(server.reap_idle(), 0);
        assert_eq!(server.parked_sessions(), 1);

        // Past it: reaped, ledger rewritten.
        clock.advance(2);
        assert_eq!(server.reap_idle(), 1);
        assert_eq!(server.active_sessions(), 0);
        handle.shutdown();
    });
    let ledger = server.summaries();
    assert_eq!(ledger.len(), 1);
    assert_eq!(
        ledger[0].outcome,
        SessionOutcome::Aborted("idle deadline exceeded".into()),
        "the Suspended line must be rewritten in place"
    );
}

/// Graceful drain: `shutdown()` refuses new Hellos with `ServerBusy`
/// (no silent drops — the accept-loop race of PR 8) while an in-flight
/// session runs to a clean Goodbye.
#[test]
fn drain_refuses_late_hellos_and_lets_in_flight_sessions_finish() {
    let server = Server::bind().expect("bind");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let mut fabric = SocketFabric::connect(addr, 21, Default::default()).expect("in-flight");
        // Shutdown with the session still open: drain must wait for it.
        handle.shutdown();
        // A straggler dialing mid-drain is refused, visibly.
        match SocketFabric::connect(addr, 22, Default::default()) {
            Err(MedError::Busy(_)) => {}
            Err(other) => panic!("straggler should see Busy, got: {other}"),
            Ok(_) => panic!("draining server must not admit new sessions"),
        }
        // The in-flight session still works and closes cleanly.
        use secmed_core::{Fabric, PartyId};
        let payload = Frame::Goodbye.encode_with_session(21);
        let mut damaged = payload.clone();
        damaged[3] = 0x7f;
        let echo = fabric
            .carry(&PartyId::Client, &PartyId::Mediator, &damaged)
            .expect("carry during drain");
        assert_eq!(echo, damaged);
        fabric.into_recorder().expect("clean goodbye during drain");
    });
    let ledger = server.summaries();
    assert_eq!(ledger.len(), 2, "{ledger:?}");
    assert!(
        ledger.iter().any(|l| l.session == 21 && l.completed()),
        "in-flight session must finish cleanly: {ledger:?}"
    );
    assert!(
        ledger
            .iter()
            .any(|l| l.session == 22
                && l.outcome == SessionOutcome::Rejected(SessionStatus::ServerBusy)),
        "straggler must be refused on the record: {ledger:?}"
    );
    assert_eq!(server.active_sessions(), 0);
}

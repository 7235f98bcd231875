//! Session-table hygiene under concurrency: seeded interleavings of
//! completing, aborting, malformed, duplicate-id, and chaos-interrupted
//! clients must leave the table empty and the ledger consistent — one
//! line per connection that spoke, a single terminal line per session.
//!
//! Also pins the `into_recorder` half-close fix: a client that says
//! `Goodbye` and immediately tears down must never be mis-recorded as
//! aborted, even with many clients hammering the server at once.

// These tests play misbehaving clients: they open raw sockets and
// hand-encode frames the socket fabric would never send.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use secmed_core::{Fabric, MedError, PartyId, SocketFabric};
use secmed_server::{Server, ServerConfig, ServerFaultPlan, SessionOutcome};
use secmed_testkit::{cases, Gen};
use secmed_wire::{stream, Frame};

fn await_reclaim(server: &Server) {
    for _ in 0..u64::MAX >> 20 {
        if server.active_sessions() == 0 {
            return;
        }
        std::hint::spin_loop();
    }
    panic!("server never reclaimed its session table entries");
}

/// Drives one clean fabric session: a few relayed frames, then Goodbye.
fn run_clean(addr: std::net::SocketAddr, session: u64, frames: usize) -> Result<(), MedError> {
    let mut fabric = SocketFabric::connect(addr, session, Default::default())?;
    let mut payload = Frame::Goodbye.encode_with_session(session);
    payload[3] = 0x7f; // opaque in-session traffic to the relay
    for _ in 0..frames {
        let echo = fabric.carry(&PartyId::Client, &PartyId::Mediator, &payload)?;
        assert_eq!(echo, payload, "relay must echo verbatim");
    }
    fabric.into_recorder().map(|_| ())
}

/// What one seeded client does in the interleaving property.
#[derive(Clone, Copy, Debug)]
enum Behavior {
    /// Hello, some frames, clean Goodbye.
    Complete { frames: usize },
    /// Hello, some frames, vanish without Goodbye (parks, then drains).
    AbortDrop { frames: usize },
    /// The first frame is not a Hello: refused with a typed abort.
    BadOpener,
}

/// Concurrent seeded interleavings: whatever mix of clean closes, silent
/// drops, and malformed openers runs at once, the table ends empty and
/// every admitted session gets exactly one terminal ledger line.
#[test]
fn interleaved_sessions_leave_no_leaks_and_one_terminal_line_each() {
    cases(6, "session-hygiene", |g: &mut Gen| {
        let n = g.usize_in(4, 8);
        let behaviors: Vec<Behavior> = (0..n)
            .map(|_| match g.u64_below(4) {
                0 => Behavior::BadOpener,
                1 => Behavior::AbortDrop {
                    frames: g.usize_in(0, 3),
                },
                _ => Behavior::Complete {
                    frames: g.usize_in(0, 4),
                },
            })
            .collect();
        let config = ServerConfig {
            replay_window: 4,
            drain_deadline_ns: 500_000_000,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(config).expect("bind");
        let addr = server.addr();
        secmed_pool::scope(|s| {
            let handle = server.start(s);
            let workers: Vec<_> = behaviors
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let b = *b;
                    s.spawn(move || {
                        let session = i as u64 + 1;
                        match b {
                            Behavior::Complete { frames } => {
                                run_clean(addr, session, frames).expect("clean run");
                            }
                            Behavior::AbortDrop { frames } => {
                                let fabric =
                                    SocketFabric::connect(addr, session, Default::default())
                                        .expect("handshake");
                                let mut fabric = fabric;
                                let mut payload = Frame::Goodbye.encode_with_session(session);
                                payload[3] = 0x7f;
                                for _ in 0..frames {
                                    fabric
                                        .carry(&PartyId::Client, &PartyId::Mediator, &payload)
                                        .expect("carry");
                                }
                                drop(fabric); // no Goodbye
                            }
                            Behavior::BadOpener => {
                                let mut socket =
                                    std::net::TcpStream::connect(addr).expect("connect");
                                stream::write_blob(
                                    &mut socket,
                                    &Frame::Goodbye.encode_with_session(session),
                                )
                                .expect("send opener");
                                // Refusal closes the conversation.
                                assert!(stream::read_blob(&mut socket)
                                    .expect("clean close")
                                    .is_none());
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("client thread");
            }
            handle.shutdown();
        });
        // Hygiene: nothing live, nothing parked (the drain reaped the
        // abandoned sessions).
        assert_eq!(server.active_sessions(), 0, "table leaked");
        assert_eq!(server.parked_sessions(), 0, "parked leaked");
        let ledger = server.summaries();
        for (i, b) in behaviors.iter().enumerate() {
            let session = i as u64 + 1;
            let lines: Vec<_> = ledger.iter().filter(|l| l.session == session).collect();
            let completed = lines.iter().filter(|l| l.completed()).count();
            let aborted = lines
                .iter()
                .filter(|l| matches!(l.outcome, SessionOutcome::Aborted(_)))
                .count();
            let suspended = lines
                .iter()
                .filter(|l| matches!(l.outcome, SessionOutcome::Suspended(_)))
                .count();
            match b {
                Behavior::Complete { .. } => {
                    assert_eq!(
                        (completed, aborted, suspended),
                        (1, 0, 0),
                        "session {session} (Complete): {lines:?}"
                    );
                }
                Behavior::AbortDrop { .. } => {
                    // Parked on the drop, then rewritten by the reaper at
                    // drain time: one terminal abort, no stale Suspended.
                    assert_eq!(
                        (completed, aborted, suspended),
                        (0, 1, 0),
                        "session {session} (AbortDrop): {lines:?}"
                    );
                }
                Behavior::BadOpener => {
                    assert_eq!(
                        (completed, aborted, suspended),
                        (0, 1, 0),
                        "session {session} (BadOpener): {lines:?}"
                    );
                }
            }
        }
    });
}

/// Racing two Hellos on the *same* session id: however the race lands,
/// nothing leaks and the ledger accounts for both connections.
#[test]
fn duplicate_id_races_are_refused_or_serialized_never_leaked() {
    cases(6, "dup-race", |g: &mut Gen| {
        let frames = g.usize_in(0, 3);
        let server = Server::bind().expect("bind");
        let addr = server.addr();
        let outcomes = secmed_pool::scope(|s| {
            let handle = server.start(s);
            let racers: Vec<_> = (0..2)
                .map(|_| s.spawn(move || run_clean(addr, 77, frames)))
                .collect();
            let outcomes: Vec<Result<(), MedError>> = racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect();
            await_reclaim(&server);
            handle.shutdown();
            outcomes
        });
        let won = outcomes.iter().filter(|r| r.is_ok()).count();
        for r in &outcomes {
            if let Err(e) = r {
                assert!(
                    matches!(e, MedError::Fabric(m) if m.contains("DuplicateSession")),
                    "loser must see the typed duplicate refusal, got: {e}"
                );
            }
        }
        assert!(won >= 1, "at least one racer must complete");
        let ledger = server.summaries();
        let completed = ledger.iter().filter(|l| l.completed()).count();
        assert_eq!(completed, won, "one Completed line per winner: {ledger:?}");
        assert_eq!(
            ledger.len(),
            2,
            "both connections must be on the ledger: {ledger:?}"
        );
        assert_eq!(server.active_sessions(), 0, "table leaked");
    });
}

/// The `into_recorder` half-close regression: under load, every client
/// that said Goodbye is recorded `Completed` — the goodbye must survive
/// the client's teardown (write-side shutdown + drain, not an abrupt
/// close that can reset the connection).
#[test]
fn goodbyes_survive_teardown_under_load() {
    let server = Server::bind().expect("bind");
    let addr = server.addr();
    const CLIENTS: usize = 24;
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| s.spawn(move || run_clean(addr, i as u64 + 1, 3).expect("clean run")))
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
        await_reclaim(&server);
        handle.shutdown();
    });
    let ledger = server.summaries();
    assert_eq!(ledger.len(), CLIENTS, "{ledger:?}");
    let completed = ledger.iter().filter(|l| l.completed()).count();
    assert_eq!(
        completed, CLIENTS,
        "every clean client must be recorded Completed: {ledger:?}"
    );
    assert_eq!(server.active_sessions(), 0, "session table leaked");
}

/// Chaos-interrupted clients racing clean ones: resumes interleave with
/// admissions and teardowns, and the table still ends empty with every
/// session's final connection Completed.
#[test]
fn resumes_interleave_cleanly_with_other_sessions() {
    let config = ServerConfig {
        replay_window: 8,
        chaos: Some(ServerFaultPlan::for_seed(99)),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(config).expect("bind");
    let addr = server.addr();
    const CLIENTS: usize = 8;
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let session = i as u64 + 1;
                    let mut fabric = SocketFabric::connect_with(
                        addr,
                        session,
                        Default::default(),
                        secmed_core::ReconnectPolicy {
                            max_reconnects: 32,
                            base_backoff_ns: 50_000,
                            backoff_cap_ns: 2_000_000,
                            seed: session,
                        },
                    )
                    .expect("handshake");
                    let mut payload = Frame::Goodbye.encode_with_session(session);
                    payload[3] = 0x7f;
                    for _ in 0..12 {
                        let echo = fabric
                            .carry(&PartyId::Client, &PartyId::Mediator, &payload)
                            .expect("carry with resume");
                        assert_eq!(echo, payload);
                    }
                    fabric.into_recorder().expect("goodbye with resume")
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
        await_reclaim(&server);
        handle.shutdown();
    });
    assert_eq!(server.active_sessions(), 0, "table leaked");
    let ledger = server.summaries();
    let mut last = std::collections::BTreeMap::new();
    for line in &ledger {
        last.insert(line.session, line.outcome.clone());
    }
    assert_eq!(last.len(), CLIENTS);
    for (session, outcome) in &last {
        assert_eq!(
            *outcome,
            SessionOutcome::Completed,
            "session {session}: {outcome:?}"
        );
    }
}

//! Session-negotiation failure paths: version mismatch, duplicate
//! session ids, and clients that vanish mid-protocol.  The common
//! invariant is resource hygiene — every exit path reclaims the session
//! table entry and writes a ledger line with a typed outcome.

// These tests play misbehaving clients: they open raw sockets and
// hand-encode frames the socket fabric would never send.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::net::TcpStream;

use secmed_core::{DeliveryPolicy, MedError, SocketFabric};
use secmed_server::{Server, SessionOutcome};
use secmed_wire::{stream, Frame, SessionStatus, WIRE_VERSION};

/// Spins until the server's relay threads have reclaimed every session
/// table entry.  Reclaim happens a socket-read after the client drops, so
/// this is bounded in practice; the cap turns a server bug into a clean
/// panic instead of a hang.
fn await_reclaim(server: &Server) {
    for _ in 0..u64::MAX >> 20 {
        if server.active_sessions() == 0 {
            return;
        }
        std::hint::spin_loop();
    }
    panic!("server never reclaimed its session table entries");
}

/// A handshake whose `Hello` *body* advertises the wrong client version
/// is refused with the server's version in the NACK.  (The frame header
/// must stay well-formed — otherwise the server could not decode the
/// hello to answer it at all.)
#[test]
fn version_mismatch_is_refused_with_the_servers_version() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let mut socket = TcpStream::connect(addr).expect("connect");
        let hello = Frame::Hello {
            client_version: WIRE_VERSION + 1,
            max_attempts: 3,
            degrade_on_exhausted: false,
        };
        stream::write_blob(&mut socket, &hello.encode_with_session(7)).expect("send hello");
        let ack = stream::read_blob(&mut socket)
            .expect("read ack")
            .expect("server answered");
        let frame = Frame::decode_expecting_session(&ack, 7).expect("well-formed ack");
        assert_eq!(
            frame,
            Frame::HelloAck {
                status: SessionStatus::VersionMismatch(WIRE_VERSION)
            }
        );
        // The refusal is also the end of the conversation.
        assert!(stream::read_blob(&mut socket)
            .expect("clean close")
            .is_none());
        handle.shutdown();
    });
    let summaries = server.summaries();
    assert_eq!(summaries.len(), 1);
    assert_eq!(
        summaries[0].outcome,
        SessionOutcome::Rejected(SessionStatus::VersionMismatch(WIRE_VERSION))
    );
    assert_eq!(server.active_sessions(), 0);
}

/// A second `Hello` proposing a session id that is still live is refused
/// with `DuplicateSession`; once the first client drops, the id becomes
/// usable again — the table entry really was reclaimed, not leaked.
#[test]
fn duplicate_session_id_is_refused_while_live_and_reusable_after() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let first = SocketFabric::connect(addr, 7, DeliveryPolicy::default()).expect("handshake");
        assert_eq!(server.active_sessions(), 1);

        match SocketFabric::connect(addr, 7, DeliveryPolicy::default()) {
            Err(MedError::Fabric(msg)) => {
                assert!(
                    msg.contains("DuplicateSession"),
                    "unexpected refusal: {msg}"
                )
            }
            Err(other) => panic!("wrong error class for a duplicate: {other}"),
            Ok(_) => panic!("duplicate session must be refused"),
        }

        // Drop the first client without a Goodbye: an abrupt disconnect
        // must also release the id.
        drop(first);
        await_reclaim(&server);
        let again = SocketFabric::connect(addr, 7, DeliveryPolicy::default())
            .unwrap_or_else(|e| panic!("reclaimed id must be reusable: {e}"));
        drop(again);
        await_reclaim(&server);
        handle.shutdown();
    });
    assert_eq!(server.active_sessions(), 0);
}

/// A client that sends protocol traffic and then vanishes produces a
/// typed `Aborted` ledger line — with the relayed traffic accounted —
/// and no session-table leak.
#[test]
fn client_disconnect_mid_protocol_aborts_and_reclaims() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let mut socket = TcpStream::connect(addr).expect("connect");
        let hello = Frame::Hello {
            client_version: WIRE_VERSION,
            max_attempts: 3,
            degrade_on_exhausted: true,
        };
        stream::write_blob(&mut socket, &hello.encode_with_session(9)).expect("send hello");
        let ack = stream::read_blob(&mut socket)
            .expect("read ack")
            .expect("server answered");
        assert_eq!(
            Frame::decode_expecting_session(&ack, 9).expect("ack decodes"),
            Frame::HelloAck {
                status: SessionStatus::Accepted
            }
        );
        // One mid-protocol message (the relay echoes it back verbatim),
        // then the client dies without a Goodbye.
        let mut payload = Frame::Goodbye.encode_with_session(9);
        payload[3] = 0x7f; // an unknown kind: opaque protocol traffic to the relay
        stream::write_blob(&mut socket, &payload).expect("send frame");
        let echo = stream::read_blob(&mut socket)
            .expect("read echo")
            .expect("echoed");
        assert_eq!(echo, payload, "relay must echo traffic verbatim");
        drop(socket);

        await_reclaim(&server);
        handle.shutdown();
    });
    let summaries = server.summaries();
    assert_eq!(summaries.len(), 1);
    let s = &summaries[0];
    assert_eq!(s.session, 9);
    assert_eq!(s.frames, 1);
    assert!(s.bytes > 0);
    match &s.outcome {
        SessionOutcome::Aborted(msg) => {
            assert!(msg.contains("disconnected"), "unexpected reason: {msg}")
        }
        other => panic!("expected a typed abort, got {other:?}"),
    }
    assert_eq!(server.active_sessions(), 0);
}

/// A connection whose first frame is not a `Hello` is turned away with a
/// typed abort, not served.
#[test]
fn non_hello_opening_frame_is_a_typed_abort() {
    let server = Server::bind().expect("bind loopback");
    let addr = server.addr();
    secmed_pool::scope(|s| {
        let handle = server.start(s);
        let mut socket = TcpStream::connect(addr).expect("connect");
        stream::write_blob(&mut socket, &Frame::Goodbye.encode_with_session(3))
            .expect("send goodbye first");
        assert!(stream::read_blob(&mut socket)
            .expect("clean close")
            .is_none());
        handle.shutdown();
    });
    let summaries = server.summaries();
    assert_eq!(summaries.len(), 1);
    match &summaries[0].outcome {
        SessionOutcome::Aborted(msg) => {
            assert!(msg.contains("expected hello"), "unexpected reason: {msg}")
        }
        other => panic!("expected a typed abort, got {other:?}"),
    }
    assert_eq!(server.active_sessions(), 0);
}

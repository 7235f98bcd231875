//! The loopback-socket fabric: the same recorded delivery semantics as
//! the in-process [`Transport`], with every copy physically crossing a
//! `std::net::TcpStream` to a `secmed-server` process.
//!
//! The server is a *relay*: it validates the session header of each
//! message and echoes the bytes back verbatim.  The echoed copy is what
//! gets recorded and decoded, so if the server is faithful the log is
//! byte-for-byte identical to an in-process run with the same session id
//! — the equivalence the loopback suite asserts.  Fault injection happens
//! on the client side *before* the bytes hit the socket (the fabric
//! models an unreliable network between honest endpoints), so damaged
//! copies really do cross the wire and come back damaged.
//!
//! A connection opens with a `Hello`/`HelloAck` handshake (version
//! negotiation + per-connection delivery policy) and closes with
//! `Goodbye`.  Handshake frames are fabric metadata, not protocol
//! traffic: they are never recorded in the transport log, so the Table 1
//! views derived from the log are unchanged by the transport swap.
//!
//! # Reconnect-and-resume
//!
//! With a [`ReconnectPolicy`], a connection that dies mid-session is not
//! fatal: the fabric redials with capped exponential backoff (jitter
//! drawn from a seed-keyed DRBG, so the schedule is deterministic and
//! thread-count-independent), opens with `Resume { next_seq }`, and the
//! server replays any echo the client missed.  Both ends count relayed
//! blobs, so sequence numbers never appear inside protocol frames — the
//! recorded log of a resumed run is byte-identical to an uninterrupted
//! one, which is exactly the equivalence the resilience suite asserts.
//! A `ServerBusy` NACK at connect time surfaces as the retryable
//! [`MedError::Busy`]; with a reconnect policy the fabric backs off and
//! redials on its own.

// This module is the socket fabric, one of the places bytes may leave
// the process.
#![allow(clippy::disallowed_types)]

use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpStream};

use secmed_crypto::drbg::HmacDrbg;
use secmed_obs::metrics;
use secmed_wire::{stream, Frame, ResumeStatus, SessionStatus, WIRE_VERSION};

use super::{DeliveryPolicy, Fabric, OnExhausted, PartyId, Transport};
use crate::MedError;

/// Registry counter: redials attempted (resume and busy-retry).
const M_RECONNECTS: &str = "transport.resume.reconnects";
/// Registry counter: resumes the server accepted.
const M_RESUMED: &str = "transport.resume.resumed";
/// Registry counter: echoes recovered from the server's replay window.
const M_REPLAYED: &str = "transport.resume.replayed";
/// Registry counter: `ServerBusy` NACKs retried at connect time.
const M_BUSY_RETRIES: &str = "transport.resume.busy_retries";

fn io_err(what: &str, e: std::io::Error) -> MedError {
    MedError::Fabric(format!("{what}: {e}"))
}

/// Client-side reconnect discipline: how many redials a session may
/// spend, and how the backoff between them grows.
///
/// The backoff for attempt `k` is `min(base << k, cap)`, jittered into
/// `[delay/2, delay]` by a DRBG keyed on `(seed, session, k)` — a pure
/// function of the policy, never of thread timing, so chaos runs stay
/// byte-identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Redial budget per session; 0 disables reconnection entirely
    /// (any connection death is a terminal fabric error, as before).
    pub max_reconnects: u32,
    /// First backoff delay in nanoseconds.
    pub base_backoff_ns: u64,
    /// Ceiling on the exponential backoff.
    pub backoff_cap_ns: u64,
    /// Keys the jitter DRBG (together with the session id).
    pub seed: u64,
}

impl ReconnectPolicy {
    /// No reconnection: every connection death is terminal.
    pub fn none() -> Self {
        ReconnectPolicy {
            max_reconnects: 0,
            base_backoff_ns: 0,
            backoff_cap_ns: 1,
            seed: 0,
        }
    }

    /// A sane interactive default: a handful of redials, sub-second cap.
    pub fn standard(seed: u64) -> Self {
        ReconnectPolicy {
            max_reconnects: 8,
            base_backoff_ns: 200_000,
            backoff_cap_ns: 50_000_000,
            seed,
        }
    }

    /// Whether reconnection is enabled at all.
    pub fn enabled(&self) -> bool {
        self.max_reconnects > 0
    }

    /// The jittered backoff before redial attempt `attempt` (1-based).
    fn backoff_ns(&self, session: u64, attempt: u32) -> u64 {
        if self.base_backoff_ns == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let delay = self
            .base_backoff_ns
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap_ns.max(1));
        let floor = delay / 2;
        let span = delay - floor + 1;
        let label = format!("reconnect/{}/{}/{}", self.seed, session, attempt);
        let mut drbg = HmacDrbg::from_label(&label);
        let mut bytes = [0u8; 8];
        drbg.fill(&mut bytes);
        floor + u64::from_be_bytes(bytes) % span
    }
}

/// A [`Fabric`] carried over TCP connections to a `secmed-server`,
/// surviving connection deaths via the resume protocol when a
/// [`ReconnectPolicy`] allows it.
pub struct SocketFabric {
    recorder: Transport,
    socket: TcpStream,
    session: u64,
    addr: SocketAddr,
    reconnect: ReconnectPolicy,
    /// Request frames whose echo this side has fully received.
    next_seq: u64,
    /// Redials spent so far (shared budget for resume and busy-retry).
    reconnects_used: u32,
    /// Echoes replayed by the server after a resume, not yet consumed.
    replayed: VecDeque<Vec<u8>>,
}

impl SocketFabric {
    /// Connects without reconnection (see [`SocketFabric::connect_with`]).
    pub fn connect(
        addr: SocketAddr,
        session: u64,
        policy: DeliveryPolicy,
    ) -> Result<Self, MedError> {
        Self::connect_with(addr, session, policy, ReconnectPolicy::none())
    }

    /// Connects, performs the `Hello`/`HelloAck` handshake for `session`,
    /// and returns a fabric whose recorder threads that session id onto
    /// every frame.  The requested [`DeliveryPolicy`] is announced to the
    /// server and installed on the recorder.  A `ServerBusy` NACK is
    /// retried with backoff out of the reconnect budget; with the budget
    /// exhausted (or `reconnect` disabled) it surfaces as the retryable
    /// [`MedError::Busy`].
    pub fn connect_with(
        addr: SocketAddr,
        session: u64,
        policy: DeliveryPolicy,
        reconnect: ReconnectPolicy,
    ) -> Result<Self, MedError> {
        let mut reconnects_used = 0u32;
        let socket = loop {
            match Self::dial(addr, session, policy) {
                Ok(socket) => break socket,
                Err(MedError::Busy(m)) => {
                    if reconnects_used >= reconnect.max_reconnects {
                        return Err(MedError::Busy(m));
                    }
                    reconnects_used += 1;
                    metrics::incr(M_BUSY_RETRIES, 1);
                    metrics::incr(M_RECONNECTS, 1);
                    metrics::sleep_ns(reconnect.backoff_ns(session, reconnects_used));
                }
                Err(e) => return Err(e),
            }
        };
        let mut recorder = Transport::with_session(session);
        recorder.set_policy(policy);
        Ok(SocketFabric {
            recorder,
            socket,
            session,
            addr,
            reconnect,
            next_seq: 0,
            reconnects_used,
            replayed: VecDeque::new(),
        })
    }

    /// One dial + `Hello`/`HelloAck` exchange.
    // The handshake frames are fabric metadata the fabric encodes itself.
    #[allow(clippy::disallowed_methods)]
    fn dial(addr: SocketAddr, session: u64, policy: DeliveryPolicy) -> Result<TcpStream, MedError> {
        let mut socket = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        socket
            .set_nodelay(true)
            .map_err(|e| io_err("set_nodelay", e))?;
        let hello = Frame::Hello {
            client_version: WIRE_VERSION,
            max_attempts: policy.max_attempts,
            degrade_on_exhausted: policy.on_exhausted == OnExhausted::Degrade,
        };
        stream::write_blob(&mut socket, &hello.encode_with_session(session))
            .map_err(|e| io_err("send hello", e))?;
        let ack = stream::read_blob(&mut socket)
            .map_err(|e| io_err("read hello ack", e))?
            .ok_or_else(|| MedError::Fabric("server closed during handshake".into()))?;
        match Frame::decode_expecting_session(&ack, session).map_err(MedError::Wire)? {
            Frame::HelloAck {
                status: SessionStatus::Accepted,
            } => Ok(socket),
            Frame::HelloAck {
                status: SessionStatus::ServerBusy,
            } => Err(MedError::Busy(format!(
                "server refused session {session}: at admission limit or draining"
            ))),
            Frame::HelloAck { status } => Err(MedError::Fabric(format!(
                "server rejected session {session}: {status:?}"
            ))),
            other => Err(MedError::Fabric(format!(
                "expected HelloAck, got {}",
                other.name()
            ))),
        }
    }

    /// The negotiated session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Redials spent so far out of the reconnect budget.
    pub fn reconnects_used(&self) -> u32 {
        self.reconnects_used
    }

    /// One write + echo-read round trip on the current connection.
    fn try_carry(&mut self, bytes: &[u8]) -> Result<Vec<u8>, MedError> {
        stream::write_blob(&mut self.socket, bytes).map_err(|e| io_err("send", e))?;
        stream::read_blob(&mut self.socket)
            .map_err(|e| io_err("read echo", e))?
            .ok_or_else(|| MedError::Fabric("server closed mid-session".into()))
    }

    /// Redials and resumes the session after connection death `cause`.
    ///
    /// On success the socket is replaced and any echoes this side missed
    /// sit in `self.replayed`; the caller decides whether the pending
    /// request must be re-sent (replay gap 0) or was already relayed
    /// (its echo is the next replayed blob).  Refusals that cannot heal
    /// (`UnknownSession` after a server restart, `ReplayGone`) and an
    /// exhausted redial budget are terminal typed errors.
    // The `Resume` handshake frames are fabric metadata.
    #[allow(clippy::disallowed_methods)]
    fn resume(&mut self, cause: MedError) -> Result<(), MedError> {
        if !self.reconnect.enabled() {
            return Err(cause);
        }
        while self.reconnects_used < self.reconnect.max_reconnects {
            self.reconnects_used += 1;
            metrics::incr(M_RECONNECTS, 1);
            metrics::sleep_ns(
                self.reconnect
                    .backoff_ns(self.session, self.reconnects_used),
            );
            let mut socket = match TcpStream::connect(self.addr) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let _ = socket.set_nodelay(true);
            let resume = Frame::Resume {
                next_seq: self.next_seq,
            };
            if stream::write_blob(&mut socket, &resume.encode_with_session(self.session)).is_err() {
                continue;
            }
            let ack = match stream::read_blob(&mut socket) {
                Ok(Some(bytes)) => bytes,
                Ok(None) | Err(_) => continue,
            };
            let frame = match Frame::decode_expecting_session(&ack, self.session) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let (status, server_next_seq) = match frame {
                Frame::ResumeAck {
                    status,
                    server_next_seq,
                } => (status, server_next_seq),
                other => {
                    return Err(MedError::Fabric(format!(
                        "expected ResumeAck, got {}",
                        other.name()
                    )));
                }
            };
            match status {
                ResumeStatus::Resumed => {
                    if server_next_seq < self.next_seq {
                        return Err(MedError::Fabric(format!(
                            "resume desync: server at seq {server_next_seq}, client at {}",
                            self.next_seq
                        )));
                    }
                    // The missing echoes arrive immediately after the ack.
                    let gap = server_next_seq - self.next_seq;
                    let mut recovered = VecDeque::new();
                    let mut died = false;
                    for _ in 0..gap {
                        match stream::read_blob(&mut socket) {
                            Ok(Some(blob)) => recovered.push_back(blob),
                            Ok(None) | Err(_) => {
                                died = true;
                                break;
                            }
                        }
                    }
                    if died {
                        // The replay connection died too; the server
                        // re-parks and the next attempt starts clean.
                        continue;
                    }
                    metrics::incr(M_RESUMED, 1);
                    metrics::incr(M_REPLAYED, gap);
                    self.socket = socket;
                    self.replayed = recovered;
                    return Ok(());
                }
                // The server may not have noticed the old connection die
                // yet; transient, worth another redial.
                ResumeStatus::SessionLive => continue,
                ResumeStatus::UnknownSession => {
                    return Err(MedError::Fabric(format!(
                        "resume refused for session {}: unknown session \
                         (server restarted or session expired); original failure: {cause}",
                        self.session
                    )));
                }
                ResumeStatus::ReplayGone => {
                    return Err(MedError::Fabric(format!(
                        "resume refused for session {}: replay window exceeded; \
                         original failure: {cause}",
                        self.session
                    )));
                }
            }
        }
        Err(MedError::Fabric(format!(
            "reconnect budget exhausted after {} redials; original failure: {cause}",
            self.reconnect.max_reconnects
        )))
    }
}

impl Fabric for SocketFabric {
    fn recorder(&self) -> &Transport {
        &self.recorder
    }

    fn recorder_mut(&mut self) -> &mut Transport {
        &mut self.recorder
    }

    fn carry(&mut self, _from: &PartyId, _to: &PartyId, bytes: &[u8]) -> Result<Vec<u8>, MedError> {
        loop {
            // An echo recovered by a resume replay satisfies the pending
            // request: the server already relayed it.
            if let Some(echo) = self.replayed.pop_front() {
                self.next_seq += 1;
                return Ok(echo);
            }
            match self.try_carry(bytes) {
                Ok(echo) => {
                    self.next_seq += 1;
                    return Ok(echo);
                }
                // Connection death: resume, then either consume the
                // replayed echo (the request had been relayed) or loop
                // around and re-send it (it never arrived).
                Err(e) => self.resume(e)?,
            }
        }
    }

    // The closing `Goodbye` is fabric metadata.
    #[allow(clippy::disallowed_methods)]
    fn into_recorder(mut self) -> Result<Transport, MedError> {
        let goodbye = Frame::Goodbye.encode_with_session(self.session);
        if let Err(e) = stream::write_blob(&mut self.socket, &goodbye) {
            // One resume cycle so the ledger still records a clean close.
            self.resume(io_err("send goodbye", e))?;
            stream::write_blob(&mut self.socket, &goodbye)
                .map_err(|e| io_err("send goodbye", e))?;
        }
        // Half-close the write side so the goodbye travels with FIN, then
        // drain until the server's EOF: closing with unread data in the
        // receive buffer can reset the connection and destroy the goodbye
        // before the server reads it, mis-recording a clean client as
        // aborted.
        let _ = self.socket.shutdown(Shutdown::Write);
        while let Ok(Some(_)) = stream::read_blob(&mut self.socket) {}
        Ok(self.recorder)
    }
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The server is a process boundary: it owns the listening socket and
// peeks frame headers to validate sessions.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

//! `secmed-server` — the mediator as a persistent process.
//!
//! The paper's architecture (§2) is multi-party: client, mediator, and
//! autonomous sources exchange the Listing 2/3/4 messages over a real
//! network.  This crate hosts the mediation side of that conversation as
//! a long-lived TCP server: one accept loop, one relay thread per
//! connection (spawned through `secmed-pool`'s structured [`scope`]),
//! and a session table keyed by the session id every wire-v2 frame
//! carries in its header.
//!
//! # The relay contract
//!
//! A connection opens with a `Hello` (protocol version + the client's
//! `DeliveryPolicy`), is answered with a `HelloAck`, and then relays:
//! each framed blob the client sends is echoed back verbatim after the
//! server validates its *header* (magic, codec version, session id).
//! The echoed copy is the one the client-side fabric records and
//! decodes, so a faithful relay makes the socket run byte-identical to
//! an in-process run — the equivalence the loopback suite asserts.  Two
//! deliberate asymmetries:
//!
//! * blobs whose header does not parse are echoed *verbatim*: a
//!   chaos-damaged copy (flipped magic, truncated header) is legitimate
//!   modeled traffic, and the receiver's total decoder is the component
//!   responsible for rejecting it;
//! * blobs whose header parses but names a *different* session are a
//!   protocol violation, not line noise (the fault model never touches
//!   the session bytes): the server aborts the session.
//!
//! Frame *bodies* are never decoded here — the server learns exactly
//! what a wire observer learns (lengths, kinds, timing), keeping the
//! Table 1 leakage accounting intact and the primitive census clean.
//!
//! # The resilience layer
//!
//! Configured through [`ServerConfig`]:
//!
//! * **Reconnect-and-resume.**  With `replay_window > 0`, a connection
//!   that dies mid-session is *parked* instead of aborted: the server
//!   keeps the session's request sequence counter plus the last
//!   `replay_window` echoes.  A client that redials and opens with
//!   `Resume { next_seq }` adopts the parked state; the server answers
//!   `ResumeAck`, immediately replays every echo the client is missing,
//!   and the relay continues.  Sequence numbers are implicit — both ends
//!   count relayed blobs — so the frame bytes on the wire are unchanged
//!   and a resumed run stays byte-identical to an uninterrupted one.
//! * **Deadlines.**  Every relay stream carries a read timeout of
//!   `tick_ns`; a session idle past `idle_deadline_ns` is reaped into a
//!   typed `Aborted("idle deadline exceeded")` instead of pinning its
//!   thread.  Parked sessions expire on the same deadline.
//! * **Admission control.**  With `max_sessions > 0`, a `Hello` that
//!   would push the session table over the limit is refused with a
//!   [`SessionStatus::ServerBusy`] NACK — a typed, retryable signal.
//! * **Graceful drain.**  [`ServerHandle::shutdown`] stops admitting
//!   (late Hellos get the same `ServerBusy` NACK, never a silent drop),
//!   lets in-flight sessions finish, and gives up after
//!   `drain_deadline_ns`, aborting the stragglers.
//! * **Server-side chaos.**  A [`ServerFaultPlan`] injects connection
//!   kills, stalled echoes, partial writes, and a simulated restart
//!   (session state loss), every decision drawn from a DRBG keyed by
//!   `(seed, session, seq, incarnation)` so schedules are reproducible
//!   and thread-count-independent.
//!
//! All wall-clock use goes through the [`Clock`] in the config, so tests
//! drive deadlines with a manual clock and the determinism lint holds.
//!
//! [`scope`]: secmed_pool::scope

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use secmed_crypto::drbg::HmacDrbg;
use secmed_obs::metrics::{self, Clock, MonotonicClock};
use secmed_pool::Scope;
use secmed_wire::stream::{BlobRead, BlobReader};
use secmed_wire::{
    stream, Frame, FrameHeader, ResumeStatus, SessionStatus, WireError, WIRE_VERSION,
};

/// Registry counter: sessions admitted past the gate.
const M_ADMITTED: &str = "server.sessions.admitted";
/// Registry counter: Hellos and Resumes refused (busy, duplicate,
/// version, unknown/expired session).
const M_REFUSED: &str = "server.sessions.refused";
/// Registry counter: sessions reaped past a deadline (live or parked).
const M_REAPED: &str = "server.sessions.reaped";
/// Registry counter: parked sessions successfully adopted by a resume.
const M_RESUMED: &str = "server.sessions.resumed";

/// How a session ended, as the server saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The client said `Goodbye`; the session ran to completion.
    Completed,
    /// The connection died or violated the protocol mid-session; the
    /// message says what happened.  The session-table entry is reclaimed
    /// either way.
    Aborted(String),
    /// The handshake was refused; the status says why.
    Rejected(SessionStatus),
    /// The connection died mid-session and the session was parked for a
    /// later `Resume`.  If the resume never comes, the reaper rewrites
    /// this line into `Aborted`.
    Suspended(String),
    /// A `Resume` opener was refused; the status says why.
    ResumeRejected(ResumeStatus),
}

/// One line of the server's ledger: what a single connection did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// The session id the client proposed in its `Hello` header.
    pub session: u64,
    /// Framed blobs relayed (handshake frames excluded).
    pub frames: u64,
    /// Payload bytes relayed, request direction only.
    pub bytes: u64,
    /// How the session ended.
    pub outcome: SessionOutcome,
}

impl SessionSummary {
    /// Whether the session completed cleanly.
    pub fn completed(&self) -> bool {
        self.outcome == SessionOutcome::Completed
    }
}

/// Server-side fault injection, the mirror of the client fabric's
/// `FaultPlan`.  Every decision is drawn from a DRBG keyed by
/// `(seed, session, seq, incarnation)`, so the schedule is a pure
/// function of the plan and the (deterministic) traffic — identical at
/// every thread count, and different on every resume incarnation so a
/// killed frame is not killed forever.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFaultPlan {
    /// Seed for the per-event DRBG draws.
    pub seed: u64,
    /// Per-mille chance a frame's connection is killed before the echo.
    pub kill_per_mille: u16,
    /// Per-mille chance an echo is stalled by `stall_ns` first.
    pub stall_per_mille: u16,
    /// How long a stalled echo sleeps (through the config clock).
    pub stall_ns: u64,
    /// Per-mille chance the echo is cut off mid-write and the
    /// connection killed (the frame *was* relayed; resume replays it).
    pub partial_write_per_mille: u16,
    /// Simulated restart: at this request sequence number the server
    /// forgets the session entirely — a later `Resume` is answered
    /// `UnknownSession`, exactly as after a real process restart.
    pub restart_at_frame: Option<u64>,
}

impl ServerFaultPlan {
    /// A plan that injects nothing (but still seeds the DRBG keying).
    pub fn none(seed: u64) -> Self {
        ServerFaultPlan {
            seed,
            ..ServerFaultPlan::default()
        }
    }

    /// A moderate all-fault mix for chaos sweeps: occasional kills,
    /// short stalls, and rare partial writes — everything a resume can
    /// recover from (no simulated restart).
    pub fn for_seed(seed: u64) -> Self {
        ServerFaultPlan {
            seed,
            kill_per_mille: 60,
            stall_per_mille: 40,
            stall_ns: 200_000,
            partial_write_per_mille: 30,
            restart_at_frame: None,
        }
    }

    /// The three per-mille rolls (kill, stall, partial) for one event.
    fn rolls(&self, session: u64, seq: u64, incarnation: u64) -> [u16; 3] {
        let label = format!(
            "server-chaos/{}/{}/{}/{}",
            self.seed, session, seq, incarnation
        );
        let mut drbg = HmacDrbg::from_label(&label);
        let mut out = [0u16; 3];
        for slot in &mut out {
            let mut bytes = [0u8; 8];
            drbg.fill(&mut bytes);
            *slot = (u64::from_be_bytes(bytes) % 1000) as u16;
        }
        out
    }
}

/// Knobs for the resilience layer.  The default reproduces the original
/// relay exactly: no admission limit, no deadlines, no resume, no chaos.
#[derive(Clone)]
pub struct ServerConfig {
    /// Admission limit on session-table entries (live + parked);
    /// 0 = unlimited.  Over-limit Hellos get a `ServerBusy` NACK.
    pub max_sessions: usize,
    /// Reap a session (live or parked) idle this long; 0 = never.
    pub idle_deadline_ns: u64,
    /// Echoes retained per parked session for resume replay;
    /// 0 = resume disabled (disconnects abort, as before).
    pub replay_window: usize,
    /// How long `shutdown()` waits for in-flight sessions; 0 = forever.
    pub drain_deadline_ns: u64,
    /// Read-timeout granularity for relay streams and drain polling.
    pub tick_ns: u64,
    /// Server-side fault injection; `None` = faithful relay.
    pub chaos: Option<ServerFaultPlan>,
    /// The wall clock behind every deadline and sleep.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 0,
            idle_deadline_ns: 0,
            replay_window: 0,
            drain_deadline_ns: 2_000_000_000,
            tick_ns: 5_000_000,
            chaos: None,
            clock: Arc::new(MonotonicClock),
        }
    }
}

/// A parked session: the relay state a dead connection left behind,
/// waiting for a `Resume`.
struct Parked {
    /// The server's next expected request sequence number.
    next_seq: u64,
    /// The most recent echoes, oldest first: `(seq, blob)`.
    replay: VecDeque<(u64, Vec<u8>)>,
    /// When the session was parked (config clock), for the reaper.
    parked_at_ns: u64,
    /// Index of this session's `Suspended` ledger line, rewritten to
    /// `Aborted` if the session is reaped instead of resumed.
    ledger_idx: usize,
    /// Resume count so far; keys the chaos DRBG so a replayed sequence
    /// number draws fresh faults.
    incarnation: u64,
}

/// A session-table entry.
enum Entry {
    /// Attached to a live connection.
    Live,
    /// Awaiting resume.
    Parked(Parked),
}

/// Per-connection relay state.
struct RelayState {
    next_seq: u64,
    replay: VecDeque<(u64, Vec<u8>)>,
    incarnation: u64,
}

impl RelayState {
    fn fresh() -> Self {
        RelayState {
            next_seq: 0,
            replay: VecDeque::new(),
            incarnation: 0,
        }
    }

    /// Records an echo in the replay window (no-op when disabled).
    fn remember(&mut self, seq: u64, blob: Vec<u8>, window: usize) {
        if window == 0 {
            return;
        }
        self.replay.push_back((seq, blob));
        while self.replay.len() > window {
            self.replay.pop_front();
        }
    }
}

/// How a relay ended, deciding what happens to the table entry.
enum RelayEnd {
    /// Terminal: remove the entry, record the outcome.
    Done(SessionOutcome),
    /// Connection died but the session survives: park for resume.
    Park(String),
}

/// A bound-but-not-yet-serving mediation server.
///
/// [`Server::bind`] grabs a loopback port; [`Server::start`] (inside a
/// [`secmed_pool::scope`]) runs the accept loop and returns a
/// [`ServerHandle`] for shutdown.  After the scope joins, the
/// [`Server::summaries`] ledger holds every session the server saw.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    draining: AtomicBool,
    halt: AtomicBool,
    sessions: Mutex<BTreeMap<u64, Entry>>,
    summaries: Mutex<Vec<SessionSummary>>,
}

/// Borrowed control surface for a running [`Server`].
pub struct ServerHandle<'a> {
    server: &'a Server,
}

impl ServerHandle<'_> {
    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr
    }

    /// Starts a graceful drain: stop admitting (late Hellos are refused
    /// with `ServerBusy`, never silently dropped), let in-flight
    /// sessions finish, give up after the config's drain deadline.  The
    /// surrounding scope joins every thread.
    pub fn shutdown(self) {
        self.server.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection so it notices
        // the flag and switches to drain mode.
        let _ = TcpStream::connect(self.server.addr);
    }
}

/// Unpoisons a mutex: the protected data (a map and a ledger of plain
/// values) stays consistent even if a relay thread panicked mid-update.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Server {
    /// Binds an ephemeral loopback port with the default config.
    pub fn bind() -> std::io::Result<Server> {
        Server::bind_to("127.0.0.1:0")
    }

    /// Binds the given address (e.g. `127.0.0.1:7788`).
    pub fn bind_to(addr: &str) -> std::io::Result<Server> {
        Server::bind_to_with(addr, ServerConfig::default())
    }

    /// Binds an ephemeral loopback port with an explicit config.
    pub fn bind_with(config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_to_with("127.0.0.1:0", config)
    }

    /// Binds the given address with an explicit config.
    pub fn bind_to_with(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            config,
            draining: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            sessions: Mutex::new(BTreeMap::new()),
            summaries: Mutex::new(Vec::new()),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Spawns the accept loop on `scope` and returns the control handle.
    /// Each accepted connection gets its own relay thread on the same
    /// scope, so dropping out of the scope joins everything.
    pub fn start<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
    ) -> ServerHandle<'env> {
        scope.spawn(move || self.accept_loop(scope));
        ServerHandle { server: self }
    }

    /// The ledger of every session served so far (clone of the current
    /// state; complete once the serving scope has joined).
    pub fn summaries(&self) -> Vec<SessionSummary> {
        lock(&self.summaries).clone()
    }

    /// Session-table entries currently held — live connections plus
    /// parked sessions awaiting resume.  Zero once every client has
    /// disconnected and nothing is parked — the leak check the session
    /// tests pin down.
    pub fn active_sessions(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Table entries parked for resume (a subset of
    /// [`Server::active_sessions`]).
    pub fn parked_sessions(&self) -> usize {
        lock(&self.sessions)
            .values()
            .filter(|e| matches!(e, Entry::Parked(_)))
            .count()
    }

    fn live_count(&self) -> usize {
        lock(&self.sessions)
            .values()
            .filter(|e| matches!(e, Entry::Live))
            .count()
    }

    /// Reaps parked sessions idle past the deadline, rewriting their
    /// `Suspended` ledger lines into `Aborted("idle deadline exceeded")`.
    /// Returns how many were reaped.  Called from the accept loop, the
    /// resume path, and the drain loop; harnesses may call it directly.
    pub fn reap_idle(&self) -> usize {
        let idle = self.config.idle_deadline_ns;
        if idle == 0 {
            return 0;
        }
        let now = self.config.clock.now_ns();
        self.reap_parked_where(
            |p| now.saturating_sub(p.parked_at_ns) >= idle,
            "idle deadline exceeded",
        )
    }

    /// Removes parked entries matching `cond`, rewriting their ledger
    /// lines to `Aborted(reason)`.
    fn reap_parked_where(&self, cond: impl Fn(&Parked) -> bool, reason: &str) -> usize {
        let mut lines = Vec::new();
        {
            let mut tbl = lock(&self.sessions);
            let expired: Vec<u64> = tbl
                .iter()
                .filter_map(|(s, e)| match e {
                    Entry::Parked(p) if cond(p) => Some(*s),
                    _ => None,
                })
                .collect();
            for s in expired {
                if let Some(Entry::Parked(p)) = tbl.remove(&s) {
                    lines.push(p.ledger_idx);
                }
            }
        }
        let n = lines.len();
        if n > 0 {
            let mut led = lock(&self.summaries);
            for idx in lines {
                if let Some(line) = led.get_mut(idx) {
                    line.outcome = SessionOutcome::Aborted(reason.to_string());
                }
            }
            drop(led);
            metrics::incr(M_REAPED, n as u64);
        }
        n
    }

    fn accept_loop<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        let mut consecutive_errors = 0u32;
        while !self.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    consecutive_errors = 0;
                    // Served even if the draining flag flipped between the
                    // accept and this spawn: serve_connection answers the
                    // Hello with a ServerBusy NACK and writes a ledger
                    // line — a late client is refused, never dropped.
                    scope.spawn(move || self.serve_connection(stream));
                    self.reap_idle();
                }
                Err(_) => {
                    if self.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    // Transient accept errors (EMFILE, aborted handshakes)
                    // are survivable; back off so the loop cannot hot-spin,
                    // and give up if the listener is persistently gone.
                    consecutive_errors += 1;
                    if consecutive_errors > 64 {
                        return;
                    }
                    let shift = consecutive_errors.min(5);
                    let backoff = (self.config.tick_ns.max(1) << shift).min(250_000_000);
                    self.config.clock.sleep_ns(backoff);
                }
            }
        }
        self.drain(scope);
    }

    /// Drain mode: keep refusing stragglers, wait for live sessions to
    /// finish (bounded by the drain deadline), then abort the rest and
    /// reap everything parked.
    fn drain<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        let start = self.config.clock.now_ns();
        let _ = self.listener.set_nonblocking(true);
        loop {
            while let Ok((stream, _)) = self.listener.accept() {
                scope.spawn(move || self.serve_connection(stream));
            }
            self.reap_idle();
            if self.live_count() == 0 {
                break;
            }
            let deadline = self.config.drain_deadline_ns;
            if deadline > 0 && self.config.clock.now_ns().saturating_sub(start) >= deadline {
                break;
            }
            self.config.clock.sleep_ns(self.config.tick_ns.max(1));
        }
        // Out of time (or out of sessions): relay loops still running
        // abort at their next tick, and parked sessions can never be
        // resumed now — reap them all.
        self.halt.store(true, Ordering::SeqCst);
        self.reap_parked_where(|_| true, "server drained");
    }

    /// Runs one connection to completion.  Connections that never say
    /// anything (the shutdown wake-up, port probes) leave no trace;
    /// every connection that speaks leaves exactly one ledger line.
    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_nanos(self.config.tick_ns.max(1))));
        let opened_at = self.config.clock.now_ns();
        let mut reader = BlobReader::new();
        let opener = loop {
            match reader.step(&mut stream) {
                Ok(BlobRead::Blob(bytes)) => break bytes,
                Ok(BlobRead::Eof) | Err(_) => return,
                Ok(BlobRead::Timeout) => {
                    if self.halt.load(Ordering::SeqCst) {
                        return;
                    }
                    let idle = self.config.idle_deadline_ns;
                    if idle > 0 && self.config.clock.now_ns().saturating_sub(opened_at) >= idle {
                        return;
                    }
                }
            }
        };
        let (session, frame) = match Frame::decode_with_session(&opener) {
            Ok(pair) => pair,
            Err(e) => {
                // Can't even parse the opener: nothing to acknowledge.
                self.push_line(
                    0,
                    SessionOutcome::Aborted(format!("undecodable hello: {e}")),
                );
                return;
            }
        };
        match frame {
            Frame::Hello { client_version, .. } => {
                self.open_session(stream, session, client_version);
            }
            Frame::Resume { next_seq } => {
                self.resume_session(stream, session, next_seq);
            }
            other => {
                self.push_line(
                    session,
                    SessionOutcome::Aborted(format!("expected hello, got {}", other.name())),
                );
            }
        }
    }

    /// Appends a zero-traffic ledger line.
    fn push_line(&self, session: u64, outcome: SessionOutcome) {
        lock(&self.summaries).push(SessionSummary {
            session,
            frames: 0,
            bytes: 0,
            outcome,
        });
    }

    /// The `Hello` path: admission gate, ack, relay.
    fn open_session(&self, mut stream: TcpStream, session: u64, client_version: u8) {
        if client_version != WIRE_VERSION {
            let status = SessionStatus::VersionMismatch(WIRE_VERSION);
            self.refuse(&mut stream, session, status);
            metrics::incr(M_REFUSED, 1);
            self.push_line(session, SessionOutcome::Rejected(status));
            return;
        }
        // Admission is atomic with insertion: the capacity check and the
        // duplicate check see the same table state.
        let refused = {
            let mut tbl = lock(&self.sessions);
            if tbl.contains_key(&session) {
                Some(SessionStatus::DuplicateSession)
            } else if self.draining.load(Ordering::SeqCst)
                || (self.config.max_sessions > 0 && tbl.len() >= self.config.max_sessions)
            {
                Some(SessionStatus::ServerBusy)
            } else {
                tbl.insert(session, Entry::Live);
                None
            }
        };
        if let Some(status) = refused {
            self.refuse(&mut stream, session, status);
            metrics::incr(M_REFUSED, 1);
            self.push_line(session, SessionOutcome::Rejected(status));
            return;
        }
        metrics::incr(M_ADMITTED, 1);
        // From here on the table entry is owned by this connection and
        // must be reclaimed (or parked) on every exit path.
        let ack = Frame::HelloAck {
            status: SessionStatus::Accepted,
        };
        let mut summary = SessionSummary {
            session,
            frames: 0,
            bytes: 0,
            outcome: SessionOutcome::Completed,
        };
        let mut state = RelayState::fresh();
        let end = match stream::write_blob(&mut stream, &ack.encode_with_session(session)) {
            Err(e) => RelayEnd::Done(SessionOutcome::Aborted(format!("hello ack failed: {e}"))),
            Ok(()) => self.relay(&mut stream, session, &mut summary, &mut state),
        };
        self.conclude(summary, state, end);
    }

    /// The `Resume` path: verdict, ack, missing-echo replay, relay.
    fn resume_session(&self, mut stream: TcpStream, session: u64, client_next: u64) {
        self.reap_idle();
        let verdict: Result<Parked, ResumeStatus> = {
            let mut tbl = lock(&self.sessions);
            let check = if self.halt.load(Ordering::SeqCst) {
                // Past the drain deadline nothing can be adopted; by the
                // time the client retries, the reaper will have made this
                // literally true.
                Err(ResumeStatus::UnknownSession)
            } else {
                match tbl.get(&session) {
                    None => Err(ResumeStatus::UnknownSession),
                    Some(Entry::Live) => Err(ResumeStatus::SessionLive),
                    Some(Entry::Parked(p)) => {
                        let oldest = p.next_seq.saturating_sub(p.replay.len() as u64);
                        if client_next > p.next_seq || client_next < oldest {
                            Err(ResumeStatus::ReplayGone)
                        } else {
                            Ok(())
                        }
                    }
                }
            };
            match check {
                Err(status) => Err(status),
                Ok(()) => match tbl.insert(session, Entry::Live) {
                    Some(Entry::Parked(p)) => Ok(p),
                    other => {
                        // Unreachable (checked under the same lock), but
                        // stay total: restore and refuse.
                        if let Some(e) = other {
                            tbl.insert(session, e);
                        }
                        Err(ResumeStatus::UnknownSession)
                    }
                },
            }
        };
        let parked = match verdict {
            Err(status) => {
                let nack = Frame::ResumeAck {
                    status,
                    server_next_seq: 0,
                };
                let _ = stream::write_blob(&mut stream, &nack.encode_with_session(session));
                metrics::incr(M_REFUSED, 1);
                self.push_line(session, SessionOutcome::ResumeRejected(status));
                return;
            }
            Ok(p) => p,
        };
        let mut state = RelayState {
            next_seq: parked.next_seq,
            replay: parked.replay,
            incarnation: parked.incarnation + 1,
        };
        let mut summary = SessionSummary {
            session,
            frames: 0,
            bytes: 0,
            outcome: SessionOutcome::Completed,
        };
        let ack = Frame::ResumeAck {
            status: ResumeStatus::Resumed,
            server_next_seq: state.next_seq,
        };
        let end = match stream::write_blob(&mut stream, &ack.encode_with_session(session)) {
            Err(e) => RelayEnd::Park(format!("resume ack failed: {e}")),
            Ok(()) => {
                let mut replay_err = None;
                for (seq, blob) in state.replay.iter() {
                    if *seq >= client_next {
                        if let Err(e) = stream::write_blob(&mut stream, blob) {
                            replay_err = Some(e);
                            break;
                        }
                    }
                }
                match replay_err {
                    Some(e) => RelayEnd::Park(format!("resume replay failed: {e}")),
                    None => {
                        metrics::incr(M_RESUMED, 1);
                        self.relay(&mut stream, session, &mut summary, &mut state)
                    }
                }
            }
        };
        self.conclude(summary, state, end);
    }

    /// Settles a finished connection: removes or parks the table entry
    /// and writes the connection's ledger line.
    fn conclude(&self, mut summary: SessionSummary, state: RelayState, end: RelayEnd) {
        let session = summary.session;
        let end = match end {
            // Past the drain deadline a park would leak (the reaper has
            // already swept): abort instead.
            RelayEnd::Park(reason) if self.halt.load(Ordering::SeqCst) => {
                RelayEnd::Done(SessionOutcome::Aborted(reason))
            }
            other => other,
        };
        match end {
            RelayEnd::Done(outcome) => {
                lock(&self.sessions).remove(&session);
                summary.outcome = outcome;
                lock(&self.summaries).push(summary);
            }
            RelayEnd::Park(reason) => {
                summary.outcome = SessionOutcome::Suspended(reason);
                let idx = {
                    let mut led = lock(&self.summaries);
                    led.push(summary);
                    led.len() - 1
                };
                let parked = Entry::Parked(Parked {
                    next_seq: state.next_seq,
                    replay: state.replay,
                    parked_at_ns: self.config.clock.now_ns(),
                    ledger_idx: idx,
                    incarnation: state.incarnation,
                });
                lock(&self.sessions).insert(session, parked);
            }
        }
    }

    fn refuse(&self, stream: &mut TcpStream, session: u64, status: SessionStatus) {
        let nack = Frame::HelloAck { status };
        let _ = stream::write_blob(stream, &nack.encode_with_session(session));
    }

    /// Parks when resume is enabled, aborts otherwise.
    fn park_or(&self, reason: String) -> RelayEnd {
        if self.config.replay_window > 0 {
            RelayEnd::Park(reason)
        } else {
            RelayEnd::Done(SessionOutcome::Aborted(reason))
        }
    }

    /// Echoes framed blobs until `Goodbye`, disconnect, or a session
    /// violation, counting relayed traffic into `summary`.
    fn relay(
        &self,
        stream: &mut TcpStream,
        session: u64,
        summary: &mut SessionSummary,
        state: &mut RelayState,
    ) -> RelayEnd {
        let window = self.config.replay_window;
        let mut last_activity = self.config.clock.now_ns();
        let mut reader = BlobReader::new();
        loop {
            if self.halt.load(Ordering::SeqCst) {
                return RelayEnd::Done(SessionOutcome::Aborted(
                    "server drained before session completed".into(),
                ));
            }
            let blob = match reader.step(stream) {
                Ok(BlobRead::Blob(bytes)) => bytes,
                Ok(BlobRead::Eof) => {
                    return self.park_or("client disconnected mid-session".into());
                }
                Ok(BlobRead::Timeout) => {
                    let idle = self.config.idle_deadline_ns;
                    if idle > 0 && self.config.clock.now_ns().saturating_sub(last_activity) >= idle
                    {
                        metrics::incr(M_REAPED, 1);
                        return RelayEnd::Done(SessionOutcome::Aborted(
                            "idle deadline exceeded".into(),
                        ));
                    }
                    continue;
                }
                Err(e) => return self.park_or(format!("read failed: {e}")),
            };
            last_activity = self.config.clock.now_ns();
            match Frame::peek_header(&blob) {
                Ok(FrameHeader { session: named, .. }) if named != session => {
                    return RelayEnd::Done(SessionOutcome::Aborted(
                        WireError::UnknownSession(named).to_string(),
                    ));
                }
                Ok(header) if header.kind == Frame::Goodbye.kind() => {
                    // Fabric metadata: consumed, never echoed (the client
                    // is already gone by the time an echo would land).
                    return RelayEnd::Done(SessionOutcome::Completed);
                }
                // A parseable in-session frame or a chaos-damaged blob:
                // both are modeled traffic, echoed verbatim for the
                // client-side recorder to judge.
                Ok(_) | Err(_) => {
                    let seq = state.next_seq;
                    if let Some(plan) = &self.config.chaos {
                        if plan.restart_at_frame == Some(seq) {
                            // Simulated restart: all session state gone.
                            let _ = stream.shutdown(Shutdown::Both);
                            return RelayEnd::Done(SessionOutcome::Aborted(
                                "server restarted (session state lost)".into(),
                            ));
                        }
                        let [kill, stall, partial] = plan.rolls(session, seq, state.incarnation);
                        if plan.kill_per_mille > 0 && kill < plan.kill_per_mille {
                            let _ = stream.shutdown(Shutdown::Both);
                            return self.park_or("chaos: connection killed before echo".into());
                        }
                        if plan.stall_per_mille > 0 && stall < plan.stall_per_mille {
                            self.config.clock.sleep_ns(plan.stall_ns);
                        }
                        if plan.partial_write_per_mille > 0
                            && partial < plan.partial_write_per_mille
                        {
                            // The frame counts as relayed — the echo just
                            // never fully lands.  Resume replays it whole.
                            summary.frames += 1;
                            summary.bytes += blob.len() as u64;
                            let len = (blob.len() as u32).to_be_bytes();
                            let half = blob.get(..blob.len() / 2).unwrap_or(&[]);
                            let _ = stream.write_all(&len);
                            let _ = stream.write_all(half);
                            let _ = stream.flush();
                            let _ = stream.shutdown(Shutdown::Both);
                            state.remember(seq, blob, window);
                            state.next_seq += 1;
                            return self.park_or("chaos: partial echo write".into());
                        }
                    }
                    summary.frames += 1;
                    summary.bytes += blob.len() as u64;
                    let write = stream::write_blob(stream, &blob);
                    state.remember(seq, blob, window);
                    state.next_seq += 1;
                    if let Err(e) = write {
                        return self.park_or(format!("echo failed: {e}"));
                    }
                }
            }
        }
    }
}

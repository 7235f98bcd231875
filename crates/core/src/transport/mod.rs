//! The recorded message fabric.
//!
//! Parties exchange messages through a [`Fabric`]: the sender serializes,
//! the fabric records the bytes, and the receiver decodes from the
//! recorded bytes — there is no struct side channel.  The concrete
//! [`Transport`] recorder is the in-process implementation; the
//! [`socket::SocketFabric`] carries the same bytes over loopback TCP to a
//! `secmed-server` process and records the echoed copies, so both fabrics
//! produce byte-identical logs for the same seeded scenario.  The
//! recorder is the ground truth for:
//!
//! * the interaction-pattern analysis of Section 6 ("the client has to
//!   interact twice with the mediator", "the datasources have to interact
//!   twice"),
//! * communication-volume accounting in the benches (`Envelope::bytes()`
//!   is the encoded frame length, never an estimate),
//! * the leakage audit: a party's *view* is exactly the sequence of frames
//!   it received, and `audit::derive_views` recomputes Table 1 from the
//!   decoded log.
//!
//! # Fault injection
//!
//! The fabric can misbehave on purpose.  A [`FaultPlan`] installed via
//! `RunOptions` makes [`Fabric::deliver`] deterministically drop,
//! corrupt (header bit-flip), truncate, duplicate, or delay-by-reordering
//! frames on selected links ([`LinkMask`]), and can take a party down for
//! a span of delivery steps ([`Outage`]).  Decisions derive from an
//! HMAC-DRBG keyed by the plan seed and a global step counter, so the
//! same plan produces a byte-identical log at any thread count — the
//! determinism invariant extends to faulty runs.
//!
//! Every attempt is recorded: a failed copy stays in the log tagged with
//! its [`FaultKind`] and attempt number, so retransmissions are part of
//! the mediator's observable view and the Table 1 accounting stays
//! empirical under faults.  The [`DeliveryPolicy`] bounds how often a
//! sender retries before `deliver` returns a typed [`DeliveryFailure`].

pub mod socket;

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use secmed_crypto::drbg::HmacDrbg;
use secmed_obs::trace::FieldValue;

use crate::MedError;

pub use secmed_wire::{DasTable, Frame, PmPayloadSet, PolyCoeffs, TupleRef, WireError};

/// A protocol participant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartyId {
    /// The querying client.
    Client,
    /// The (untrusted) mediator.
    Mediator,
    /// A datasource by name.
    Source(String),
    /// The certification authority (preparatory phase only).
    Ca,
}

impl PartyId {
    /// Datasource convenience constructor.
    pub fn source(name: impl Into<String>) -> Self {
        PartyId::Source(name.into())
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyId::Client => write!(f, "client"),
            PartyId::Mediator => write!(f, "mediator"),
            PartyId::Source(s) => write!(f, "source:{s}"),
            PartyId::Ca => write!(f, "ca"),
        }
    }
}

/// What the fabric did to one recorded copy of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The copy was lost in flight; the receiver saw nothing.
    Dropped,
    /// A header bit was flipped; the receiver's decode rejects the copy.
    Corrupted,
    /// The copy was cut short; the receiver's decode rejects it.
    Truncated,
    /// A redundant copy delivered alongside an accepted one.
    Duplicated,
    /// The copy arrived, but reordered after later traffic.
    Delayed,
    /// A party was down for this delivery step.
    Unavailable,
}

impl FaultKind {
    /// Lowercase tag used in flow rendering and trace events.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::Dropped => "dropped",
            FaultKind::Corrupted => "corrupted",
            FaultKind::Truncated => "truncated",
            FaultKind::Duplicated => "duplicated",
            FaultKind::Delayed => "delayed",
            FaultKind::Unavailable => "unavailable",
        }
    }
}

/// One recorded message: an encoded frame in flight.
#[derive(Clone)]
pub struct Envelope {
    /// Sender.
    pub from: PartyId,
    /// Receiver.
    pub to: PartyId,
    /// Human-readable step label, e.g. `"L3.3 M_i"` for Listing 3 step 3.
    pub label: String,
    /// The encoded frame exactly as it crossed the fabric (for a corrupted
    /// or truncated copy: the damaged bytes the receiver actually saw).
    pub payload: Vec<u8>,
    /// Which delivery attempt produced this copy (1 = first try).
    pub attempt: u32,
    /// What the fabric did to this copy; `None` for an intact delivery.
    pub fault: Option<FaultKind>,
}

impl Envelope {
    /// Payload size in bytes — derived from the real encoded frame.
    pub fn bytes(&self) -> usize {
        self.payload.len()
    }

    /// Decodes the payload back into its typed frame.
    // The recorded copy is what the fabric carried; decoding it here is
    // the fabric running its own codec.
    #[allow(clippy::disallowed_methods)]
    pub fn frame(&self) -> Result<Frame, WireError> {
        Frame::decode(&self.payload)
    }

    /// Whether the receiver accepted this copy as the logical message.  A
    /// delayed copy still arrives (just reordered); every other fault kind
    /// marks a copy the receiver never used — fabric overhead.
    pub fn accepted(&self) -> bool {
        matches!(self.fault, None | Some(FaultKind::Delayed))
    }
}

/// One line per envelope: `sender → receiver [size B] label`, the format
/// `Transport::render_flow` stacks into the Figure 1/2 message flow.
/// Retransmissions and faulted copies are tagged visibly, e.g.
/// `label (attempt 2)` or `label [dropped]`.
impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} → {:<12} [{:>8} B]  {}",
            self.from.to_string(),
            self.to.to_string(),
            self.bytes(),
            self.label
        )?;
        if self.attempt > 1 {
            write!(f, " (attempt {})", self.attempt)?;
        }
        if let Some(k) = self.fault {
            write!(f, " [{}]", k.tag())?;
        }
        Ok(())
    }
}

/// `Debug` covers the full payload (as lowercase hex) plus the attempt and
/// fault tags, so a `{:?}` render of a transport log fingerprints every
/// byte that crossed the fabric *and* every fabric misbehaviour — the
/// determinism suites (clean and chaos) rely on this.
impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut hex = String::with_capacity(self.payload.len() * 2);
        for b in &self.payload {
            let _ = write!(hex, "{b:02x}");
        }
        f.debug_struct("Envelope")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("label", &self.label)
            .field("payload", &hex)
            .field("attempt", &self.attempt)
            .field("fault", &self.fault)
            .finish()
    }
}

/// Selects the links a [`FaultPlan`]'s random faults apply to.  `None`
/// matches any party on that side; `LinkMask::default()` matches every
/// link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkMask {
    /// Sender filter (`None` = any sender).
    pub from: Option<PartyId>,
    /// Receiver filter (`None` = any receiver).
    pub to: Option<PartyId>,
}

impl LinkMask {
    /// Whether a directed link matches this mask.
    pub fn matches(&self, from: &PartyId, to: &PartyId) -> bool {
        self.from.as_ref().is_none_or(|f| f == from) && self.to.as_ref().is_none_or(|t| t == to)
    }
}

/// Marks a party unavailable for a span of delivery steps.  The step
/// counter advances once per delivery *attempt*, so an outage of `steps`
/// consumes that many attempts fabric-wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outage {
    /// The party that is down.
    pub party: PartyId,
    /// First delivery step of the outage (0-based).
    pub from_step: u64,
    /// Number of consecutive steps the party stays down.
    pub steps: u64,
}

impl Outage {
    /// Whether the outage covers `step`.
    pub fn covers(&self, step: u64) -> bool {
        step >= self.from_step && step - self.from_step < self.steps
    }
}

/// A deterministic fault schedule for the fabric.
///
/// Rates are per-mille probabilities per delivery attempt, evaluated in
/// the fixed order drop → corrupt → truncate → duplicate → delay against
/// one seeded roll (so their sum should stay ≤ 1000; kinds past the cap
/// can never fire).  All randomness comes from an HMAC-DRBG keyed by
/// `seed` and the attempt's global step index — nothing depends on wall
/// clock, thread count, or scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed label for the per-step decision DRBG.
    pub seed: String,
    /// Per-mille chance a copy is dropped.
    pub drop_per_mille: u16,
    /// Per-mille chance a header bit is flipped.
    pub corrupt_per_mille: u16,
    /// Per-mille chance a copy is truncated.
    pub truncate_per_mille: u16,
    /// Per-mille chance a copy is duplicated.
    pub duplicate_per_mille: u16,
    /// Per-mille chance a copy is delayed past later traffic.
    pub delay_per_mille: u16,
    /// Links the random faults apply to (empty = all links).
    pub links: Vec<LinkMask>,
    /// Party outages, by delivery-step span.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// A plan that injects nothing — by contract, runs with a zero plan
    /// installed are byte-identical to runs with no plan at all.
    pub fn none(seed: impl Into<String>) -> Self {
        FaultPlan {
            seed: seed.into(),
            ..Default::default()
        }
    }

    /// Whether this plan can never inject a fault.
    pub fn is_zero(&self) -> bool {
        self.drop_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.truncate_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.delay_per_mille == 0
            && self.outages.is_empty()
    }

    fn party_down(&self, party: &PartyId, step: u64) -> bool {
        self.outages
            .iter()
            .any(|o| &o.party == party && o.covers(step))
    }

    fn link_selected(&self, from: &PartyId, to: &PartyId) -> bool {
        self.links.is_empty() || self.links.iter().any(|m| m.matches(from, to))
    }
}

/// What a driver does when a delivery exhausts its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnExhausted {
    /// Propagate the [`DeliveryFailure`]; the engine reports `Aborted`.
    #[default]
    Abort,
    /// Drivers substitute a documented partial input (empty set, fallback
    /// query) and the run completes with a `Degraded` outcome.
    Degrade,
}

/// Bounded-retry policy for [`Fabric::deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryPolicy {
    /// Total attempts per logical message (≥ 1; the first send counts).
    pub max_attempts: u32,
    /// What drivers do once the attempts are spent.
    pub on_exhausted: OnExhausted,
}

impl Default for DeliveryPolicy {
    fn default() -> Self {
        DeliveryPolicy {
            max_attempts: 3,
            on_exhausted: OnExhausted::Abort,
        }
    }
}

/// Why a single delivery attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryError {
    /// The fabric lost the copy.
    Dropped,
    /// The sender was down for this step; nothing left its stack.
    SenderUnavailable,
    /// The receiver was down for this step.
    ReceiverUnavailable,
    /// The copy arrived damaged and the receiver's total decode rejected
    /// it.
    Undecodable(WireError),
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryError::Dropped => write!(f, "dropped by the fabric"),
            DeliveryError::SenderUnavailable => write!(f, "sender unavailable"),
            DeliveryError::ReceiverUnavailable => write!(f, "receiver unavailable"),
            DeliveryError::Undecodable(e) => write!(f, "undecodable frame: {e}"),
        }
    }
}

/// A logical message that stayed undelivered after every allowed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// Sender of the failed message.
    pub from: PartyId,
    /// Intended receiver.
    pub to: PartyId,
    /// Protocol step label of the message.
    pub label: String,
    /// Attempts made (= the policy's `max_attempts`).
    pub attempts: u32,
    /// The failure of the final attempt.
    pub last: DeliveryError,
}

impl fmt::Display for DeliveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} → {} undelivered after {} attempt(s): {}",
            self.label, self.from, self.to, self.attempts, self.last
        )
    }
}

impl std::error::Error for DeliveryFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.last {
            DeliveryError::Undecodable(e) => Some(e),
            _ => None,
        }
    }
}

/// The per-attempt decision the injector reaches before any bytes move.
enum Verdict {
    Clean,
    Drop,
    Corrupt { byte: usize, bit: u8 },
    Truncate { keep: usize },
    Duplicate,
    Delay,
    SenderDown,
    ReceiverDown,
}

impl Verdict {
    /// The fault this verdict injects (`None` for a clean delivery).
    fn fault_kind(&self) -> Option<FaultKind> {
        match self {
            Verdict::Clean => None,
            Verdict::Drop => Some(FaultKind::Dropped),
            Verdict::Corrupt { .. } => Some(FaultKind::Corrupted),
            Verdict::Truncate { .. } => Some(FaultKind::Truncated),
            Verdict::Duplicate => Some(FaultKind::Duplicated),
            Verdict::Delay => Some(FaultKind::Delayed),
            Verdict::SenderDown => Some(FaultKind::Unavailable),
            Verdict::ReceiverDown => Some(FaultKind::Unavailable),
        }
    }

    /// The bytes that physically cross the fabric under this verdict:
    /// the clean copy, a damaged copy, or nothing at all (drops and
    /// outages never leave the sender's stack).
    fn transit(&self, encoded: &[u8]) -> Option<Vec<u8>> {
        match self {
            Verdict::Clean | Verdict::Duplicate | Verdict::Delay => Some(encoded.to_vec()),
            Verdict::Corrupt { byte, bit } => {
                let mut damaged = encoded.to_vec();
                if let Some(b) = damaged.get_mut(*byte) {
                    *b ^= 1 << bit;
                }
                Some(damaged)
            }
            Verdict::Truncate { keep } => Some(encoded.get(..*keep).unwrap_or(encoded).to_vec()),
            Verdict::Drop | Verdict::SenderDown | Verdict::ReceiverDown => None,
        }
    }
}

/// Header byte offsets a corruption may hit: magic (0-1), version (2), and
/// the four length bytes (12-15).  The kind byte (3) is deliberately
/// skipped — without a MAC on the body, only header damage is *guaranteed*
/// to be rejected by the total decoder, which keeps "corrupted ⇒ receiver
/// noticed" an invariant instead of a probability.  The session bytes
/// (4-11) are skipped for the same reason: the decoder ignores them, and a
/// flip there would otherwise fabricate a wrong-session frame the server
/// relay could mistake for a protocol violation.
const CORRUPT_TARGETS: [usize; 7] = [0, 1, 2, 12, 13, 14, 15];

/// A uniform draw in `[0, bound)` by rejection sampling (no modulo bias),
/// mirroring `secmed_testkit::Gen::u64_below`.
fn draw_below(rng: &mut HmacDrbg, bound: u64) -> u64 {
    let zone = u64::MAX - u64::MAX % bound;
    loop {
        let mut b = [0u8; 8];
        rng.fill(&mut b);
        let v = u64::from_be_bytes(b);
        if v < zone {
            return v % bound;
        }
    }
}

/// The in-process message fabric with full recording, bounded retry, and
/// deterministic fault injection.  Also the recording core of every other
/// [`Fabric`] implementation: the socket fabric wraps one of these and
/// funnels all accounting through it.
#[derive(Default)]
pub struct Transport {
    log: Vec<Envelope>,
    /// Delayed copies waiting to surface after the next recorded envelope.
    delayed: Vec<Envelope>,
    policy: DeliveryPolicy,
    plan: Option<FaultPlan>,
    /// Global delivery-attempt counter; the sole input (with the plan
    /// seed) to every fault decision.
    step: u64,
    retries: u64,
    /// Session id threaded into every frame header (0 = in-process run).
    session: u64,
}

/// `Debug` renders only the log and the retry counter: the log hex is the
/// determinism fingerprint, and the installed plan/policy are inputs, not
/// observations — a zero-fault plan must leave reports byte-identical to
/// no plan at all.
impl fmt::Debug for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transport")
            .field("log", &self.log)
            .field("retries", &self.retries)
            .finish()
    }
}

impl Transport {
    /// A fresh, empty fabric (default policy, no fault plan, session 0).
    pub fn new() -> Self {
        Transport::default()
    }

    /// A fresh fabric whose frames carry the given session id — what a
    /// loopback-equivalence check uses to make the in-process log
    /// byte-identical to a socket session's.
    pub fn with_session(session: u64) -> Self {
        Transport {
            session,
            ..Transport::default()
        }
    }

    /// The session id threaded into every frame this fabric encodes.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sets the bounded-retry policy.
    pub fn set_policy(&mut self, policy: DeliveryPolicy) {
        self.policy = policy;
    }

    /// The active delivery policy.
    pub fn policy(&self) -> DeliveryPolicy {
        self.policy
    }

    /// Installs a fault plan; subsequent deliveries roll against it.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// Records an already-encoded frame as an intact first-attempt copy,
    /// so unit tests can build a log without a protocol run; every program
    /// path records through [`Fabric::deliver`].
    #[cfg(test)]
    fn send(&mut self, from: PartyId, to: PartyId, label: impl Into<String>, payload: Vec<u8>) {
        self.record(from, to, &label.into(), payload, 1, None);
    }

    /// Phase 1 of a delivery attempt: advance the step counter, roll the
    /// fault verdict, and emit its trace event.  The caller then carries
    /// the (possibly damaged) bytes and hands the result to
    /// [`Transport::conclude`].
    fn stage(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        label: &str,
        len: usize,
        attempt: u32,
    ) -> Verdict {
        let step = self.step;
        self.step += 1;
        let verdict = self.verdict(step, from, to, len);
        if let Some(kind) = verdict.fault_kind() {
            self.fault_event(kind, label, step, attempt);
        }
        verdict
    }

    /// Phase 2 of a delivery attempt: record what crossed the fabric and
    /// decode what (if anything) the receiver accepted.  `arrived` is the
    /// carried copy (`None` when nothing left the sender); `sent` is the
    /// sender's canonical encoding, logged for copies that never crossed.
    // The receiver's decode of the carried copy is the fabric boundary.
    #[allow(clippy::too_many_arguments, clippy::disallowed_methods)]
    fn conclude(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        label: &str,
        sent: &[u8],
        arrived: Option<Vec<u8>>,
        verdict: &Verdict,
        attempt: u32,
    ) -> Result<Frame, DeliveryError> {
        let arrived = arrived.unwrap_or_else(|| sent.to_vec());
        match verdict {
            Verdict::Clean => {
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    arrived.clone(),
                    attempt,
                    None,
                );
                // The copy just recorded is what the fabric carried, so the
                // receiver's decode runs directly over those bytes.
                Frame::decode(&arrived).map_err(DeliveryError::Undecodable)
            }
            Verdict::Duplicate => {
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    arrived.clone(),
                    attempt,
                    None,
                );
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    arrived.clone(),
                    attempt,
                    Some(FaultKind::Duplicated),
                );
                Frame::decode(&arrived).map_err(DeliveryError::Undecodable)
            }
            Verdict::Delay => {
                // The copy arrives, but surfaces in the log only after the
                // next recorded envelope — a real reordering an observer
                // folding over the log will see.
                self.delayed.push(Envelope {
                    from: from.clone(),
                    to: to.clone(),
                    label: label.to_string(),
                    payload: arrived.clone(),
                    attempt,
                    fault: Some(FaultKind::Delayed),
                });
                Frame::decode(&arrived).map_err(DeliveryError::Undecodable)
            }
            Verdict::Drop => {
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    sent.to_vec(),
                    attempt,
                    Some(FaultKind::Dropped),
                );
                Err(DeliveryError::Dropped)
            }
            Verdict::Corrupt { .. } | Verdict::Truncate { .. } => {
                let decode = Frame::decode(&arrived);
                let kind = if matches!(verdict, Verdict::Corrupt { .. }) {
                    FaultKind::Corrupted
                } else {
                    FaultKind::Truncated
                };
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    arrived,
                    attempt,
                    Some(kind),
                );
                match decode {
                    // Unreachable for header damage (the targets guarantee
                    // rejection), but the model stays honest: a copy that
                    // decodes is a copy the receiver accepted.
                    Ok(f) => Ok(f),
                    Err(e) => Err(DeliveryError::Undecodable(e)),
                }
            }
            Verdict::SenderDown => {
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    sent.to_vec(),
                    attempt,
                    Some(FaultKind::Unavailable),
                );
                Err(DeliveryError::SenderUnavailable)
            }
            Verdict::ReceiverDown => {
                self.record(
                    from.clone(),
                    to.clone(),
                    label,
                    sent.to_vec(),
                    attempt,
                    Some(FaultKind::Unavailable),
                );
                Err(DeliveryError::ReceiverUnavailable)
            }
        }
    }

    /// Rolls the fault verdict for one attempt.  Outages trump random
    /// faults; random faults respect the plan's link masks; all draws come
    /// from a DRBG keyed by `(plan.seed, step)` alone.
    fn verdict(&self, step: u64, from: &PartyId, to: &PartyId, len: usize) -> Verdict {
        let Some(plan) = &self.plan else {
            return Verdict::Clean;
        };
        if plan.is_zero() {
            return Verdict::Clean;
        }
        if plan.party_down(from, step) {
            return Verdict::SenderDown;
        }
        if plan.party_down(to, step) {
            return Verdict::ReceiverDown;
        }
        if !plan.link_selected(from, to) {
            return Verdict::Clean;
        }
        let mut rng = HmacDrbg::from_label(&format!("{}/step/{}", plan.seed, step));
        let roll = draw_below(&mut rng, 1000);
        let mut edge = u64::from(plan.drop_per_mille);
        if roll < edge {
            return Verdict::Drop;
        }
        edge += u64::from(plan.corrupt_per_mille);
        if roll < edge {
            // Frames are always ≥ the 16-byte header, but `len` is checked
            // anyway so an exotic payload degrades to a drop, not a panic.
            if len < 16 {
                return Verdict::Drop;
            }
            let byte = CORRUPT_TARGETS[draw_below(&mut rng, CORRUPT_TARGETS.len() as u64) as usize];
            let bit = draw_below(&mut rng, 8) as u8;
            return Verdict::Corrupt { byte, bit };
        }
        edge += u64::from(plan.truncate_per_mille);
        if roll < edge {
            if len == 0 {
                return Verdict::Drop;
            }
            let keep = draw_below(&mut rng, len as u64) as usize;
            return Verdict::Truncate { keep };
        }
        edge += u64::from(plan.duplicate_per_mille);
        if roll < edge {
            return Verdict::Duplicate;
        }
        edge += u64::from(plan.delay_per_mille);
        if roll < edge {
            return Verdict::Delay;
        }
        Verdict::Clean
    }

    fn fault_event(&self, kind: FaultKind, label: &str, step: u64, attempt: u32) {
        secmed_obs::trace::event_with(
            "transport.fault",
            [
                ("kind", FieldValue::from(kind.tag())),
                ("label", FieldValue::from(label)),
                ("step", FieldValue::from(step)),
                ("attempt", FieldValue::from(attempt as u64)),
            ],
        );
    }

    /// Appends one copy to the log, then surfaces any delayed copies —
    /// which is exactly what makes a delay a *reordering*.
    fn record(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &str,
        payload: Vec<u8>,
        attempt: u32,
        fault: Option<FaultKind>,
    ) {
        self.log.push(Envelope {
            from,
            to,
            label: label.to_string(),
            payload,
            attempt,
            fault,
        });
        if !self.delayed.is_empty() {
            self.log.append(&mut self.delayed);
        }
    }

    /// Surfaces delayed copies still in flight (the engine calls this when
    /// a run ends, so a delay on the final message is not silently lost).
    pub fn flush_delayed(&mut self) {
        if !self.delayed.is_empty() {
            self.log.append(&mut self.delayed);
        }
    }

    /// The full log, in order.
    pub fn log(&self) -> &[Envelope] {
        &self.log
    }

    /// Decodes every recorded envelope, in order.  This is the transcript
    /// the leakage audit runs over for clean logs; a damaged copy surfaces
    /// the receiver-side [`WireError`].  Fault-tolerant consumers use
    /// `audit::effective_frames` instead.
    pub fn decode_log(&self) -> Result<Vec<(PartyId, PartyId, Frame)>, WireError> {
        self.log
            .iter()
            .map(|e| Ok((e.from.clone(), e.to.clone(), e.frame()?)))
            .collect()
    }

    /// Number of messages (every recorded copy, retransmissions included).
    pub fn message_count(&self) -> usize {
        self.log.len()
    }

    /// Total bytes moved (every recorded copy, retransmissions included).
    pub fn total_bytes(&self) -> usize {
        self.log.iter().map(Envelope::bytes).sum()
    }

    /// Retransmissions executed: attempts beyond the first, across all
    /// deliveries.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Fabric overhead: `(messages, bytes)` of recorded copies the
    /// receiver never accepted (failed attempts and duplicate copies) —
    /// what retrying cost on the wire.
    pub fn overhead(&self) -> (usize, usize) {
        self.log
            .iter()
            .filter(|e| !e.accepted())
            .fold((0, 0), |(m, b), e| (m + 1, b + e.bytes()))
    }

    /// This fabric's account as deterministic counts, computed from its
    /// own log alone, sorted by name: frame/byte/retry/overhead totals,
    /// per-fault-kind counts and bytes per directed link
    /// (`transport.link.<from>-><to>.bytes`).  Every value is a count, so
    /// accounts sum exactly across plan nodes and across runs, and a pure
    /// function of the scenario seed, so the result is safe inside the
    /// byte-identical `RunReport` fingerprint.
    pub fn run_metrics(&self) -> Vec<(String, u64)> {
        let (om, ob) = self.overhead();
        let mut out = vec![
            ("transport.frames".to_string(), self.log.len() as u64),
            ("transport.bytes".to_string(), self.total_bytes() as u64),
            ("transport.retries".to_string(), self.retries),
            ("transport.overhead_frames".to_string(), om as u64),
            ("transport.overhead_bytes".to_string(), ob as u64),
        ];
        let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
        let mut links: BTreeMap<(&PartyId, &PartyId), u64> = BTreeMap::new();
        for e in &self.log {
            if let Some(kind) = e.fault {
                *faults.entry(kind.tag()).or_insert(0) += 1;
            }
            *links.entry((&e.from, &e.to)).or_insert(0) += e.bytes() as u64;
        }
        out.extend(
            faults
                .into_iter()
                .map(|(tag, n)| (format!("transport.fault.{tag}"), n)),
        );
        out.extend(
            links
                .into_iter()
                .map(|((from, to), n)| (format!("transport.link.{from}->{to}.bytes"), n)),
        );
        out.sort();
        out
    }

    /// Messages on one directed link.
    pub fn link(&self, from: &PartyId, to: &PartyId) -> Vec<&Envelope> {
        self.log
            .iter()
            .filter(|e| &e.from == from && &e.to == to)
            .collect()
    }

    /// Number of *interactions* of a party: maximal runs of consecutive
    /// envelopes it sends (a burst of messages in one protocol step counts
    /// as one interaction) — the unit of the paper's "interacts twice".
    pub fn interactions_of(&self, party: &PartyId) -> usize {
        let mut count = 0;
        let mut in_run = false;
        for e in &self.log {
            if &e.from == party {
                if !in_run {
                    count += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        count
    }

    /// Bytes received by a party (the size of its view, damaged and
    /// duplicate copies included — they crossed the fabric towards it).
    pub fn bytes_received_by(&self, party: &PartyId) -> usize {
        self.log
            .iter()
            .filter(|e| &e.to == party)
            .map(Envelope::bytes)
            .sum()
    }

    /// Renders the flow as an indented trace (used by the quickstart
    /// example to regenerate Figure 1/2's message flow): one
    /// [`Envelope`] `Display` line per message, sizes taken from the real
    /// encoded frames, retried copies tagged `(attempt N)`.
    pub fn render_flow(&self) -> String {
        // Display adds a handful of punctuation to the two party names and
        // the label; 64 covers the fixed-width columns comfortably.
        let estimate: usize = self
            .log
            .iter()
            .map(|e| 64 + e.label.len() + e.from.to_string().len() + e.to.to_string().len())
            .sum();
        let mut out = String::with_capacity(estimate);
        for e in &self.log {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

/// A message fabric: something that can move encoded frames between
/// parties while funneling every copy through a recording [`Transport`].
///
/// The engine, the three protocol drivers, the leakage audit, and the
/// chaos suite are all generic over this trait.  Implementations differ
/// only in [`Fabric::carry`] — how bytes physically move:
///
/// * [`Transport`] is the in-process fabric (carry is the identity);
/// * [`socket::SocketFabric`] writes each copy to a loopback TCP
///   connection and records the `secmed-server` echo.
///
/// Fault injection, retry, byte accounting, and log recording live in the
/// shared recorder, so the same seeded scenario produces a byte-identical
/// log over every fabric — the property the loopback equivalence suite
/// asserts.
pub trait Fabric {
    /// The recording core (log, policy, fault plan, session id).
    fn recorder(&self) -> &Transport;

    /// Mutable access to the recording core.
    fn recorder_mut(&mut self) -> &mut Transport;

    /// Physically moves one (possibly fault-damaged) copy from sender to
    /// receiver and returns the bytes the receiver holds.  For a faithful
    /// fabric the result equals the input; an infrastructure failure (a
    /// torn socket, a server-side session violation) is a [`MedError`],
    /// not a modeled [`FaultKind`].
    fn carry(&mut self, from: &PartyId, to: &PartyId, bytes: &[u8]) -> Result<Vec<u8>, MedError>;

    /// Tears the fabric down (socket: `Goodbye` + disconnect) and returns
    /// the recorder with the complete log.
    fn into_recorder(self) -> Result<Transport, MedError>
    where
        Self: Sized;

    /// Sends a typed frame and hands the receiver its *decoded copy of
    /// the carried bytes* — the only way protocol data crosses a party
    /// boundary.  Encoding happens on the sender's side, the recorder
    /// keeps the canonical bytes, and the receiver sees exactly what a
    /// network peer would see.
    ///
    /// Under an installed [`FaultPlan`] each attempt may be dropped,
    /// damaged, duplicated, or delayed; the sender retries up to the
    /// policy's `max_attempts`, every attempt is recorded, and exhaustion
    /// returns [`MedError::Delivery`].
    fn deliver(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: impl Into<String>,
        frame: &Frame,
    ) -> Result<Frame, MedError>
    where
        Self: Sized,
    {
        deliver_over(self, from, to, &label.into(), frame)
    }

    /// Sets the bounded-retry policy on the recorder.
    fn set_policy(&mut self, policy: DeliveryPolicy) {
        self.recorder_mut().set_policy(policy);
    }

    /// The active delivery policy.
    fn policy(&self) -> DeliveryPolicy {
        self.recorder().policy()
    }

    /// Whether drivers should degrade (rather than abort) on an exhausted
    /// delivery — the only fault-layer question a protocol driver asks.
    fn degrade_on_exhausted(&self) -> bool {
        self.recorder().policy().on_exhausted == OnExhausted::Degrade
    }

    /// Installs a fault plan; subsequent deliveries roll against it.
    fn install_faults(&mut self, plan: FaultPlan) {
        self.recorder_mut().install_faults(plan);
    }

    /// Surfaces delayed copies still in flight (the engine calls this
    /// when a run ends, so a delay on the final message is not silently
    /// lost).
    fn flush_delayed(&mut self) {
        self.recorder_mut().flush_delayed();
    }
}

/// The in-process fabric: bytes "cross" by staying exactly where they
/// are.
impl Fabric for Transport {
    fn recorder(&self) -> &Transport {
        self
    }

    fn recorder_mut(&mut self) -> &mut Transport {
        self
    }

    fn carry(&mut self, _from: &PartyId, _to: &PartyId, bytes: &[u8]) -> Result<Vec<u8>, MedError> {
        Ok(bytes.to_vec())
    }

    fn into_recorder(self) -> Result<Transport, MedError> {
        Ok(self)
    }
}

/// The shared delivery loop behind [`Fabric::deliver`]: encode once, then
/// per attempt roll the verdict on the recorder, carry the surviving copy
/// over the fabric, and record/decode the result.  Lives as a free
/// function so the borrow of the recorder never overlaps the borrow of
/// the fabric's carry path.
// The sender's encode is the fabric boundary.
#[allow(clippy::disallowed_methods)]
fn deliver_over<F: Fabric>(
    fabric: &mut F,
    from: PartyId,
    to: PartyId,
    label: &str,
    frame: &Frame,
) -> Result<Frame, MedError> {
    let encoded = frame.encode_with_session(fabric.recorder().session());
    let max = fabric.recorder().policy().max_attempts.max(1);
    let mut last = DeliveryError::Dropped;
    for attempt in 1..=max {
        if attempt > 1 {
            fabric.recorder_mut().retries += 1;
        }
        let verdict = fabric
            .recorder_mut()
            .stage(&from, &to, label, encoded.len(), attempt);
        let arrived = match verdict.transit(&encoded) {
            Some(bytes) => Some(fabric.carry(&from, &to, &bytes)?),
            None => None,
        };
        match fabric
            .recorder_mut()
            .conclude(&from, &to, label, &encoded, arrived, &verdict, attempt)
        {
            Ok(frame) => return Ok(frame),
            Err(e) => last = e,
        }
    }
    secmed_obs::trace::event_with(
        "transport.exhausted",
        [
            ("label", FieldValue::from(label)),
            ("attempts", FieldValue::from(max as u64)),
            ("last", FieldValue::from(last.to_string())),
        ],
    );
    Err(MedError::Delivery(DeliveryFailure {
        from,
        to,
        label: label.to_string(),
        attempts: max,
        last,
    }))
}

// The fabric's tests build, corrupt and decode frames by hand.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use secmed_das::IndexValue;

    fn payload(n: usize) -> Vec<u8> {
        vec![0xAB; n]
    }

    fn t() -> Transport {
        let mut t = Transport::new();
        t.send(PartyId::Client, PartyId::Mediator, "query", payload(100));
        t.send(PartyId::Mediator, PartyId::source("s1"), "q1", payload(50));
        t.send(PartyId::Mediator, PartyId::source("s2"), "q2", payload(50));
        t.send(PartyId::source("s1"), PartyId::Mediator, "r1", payload(500));
        t.send(PartyId::source("s2"), PartyId::Mediator, "r2", payload(700));
        t.send(PartyId::Mediator, PartyId::Client, "result", payload(900));
        t
    }

    /// A plan whose single fault kind fires on every attempt.
    fn always(kind: FaultKind) -> FaultPlan {
        let mut p = FaultPlan::none("always");
        match kind {
            FaultKind::Dropped => p.drop_per_mille = 1000,
            FaultKind::Corrupted => p.corrupt_per_mille = 1000,
            FaultKind::Truncated => p.truncate_per_mille = 1000,
            FaultKind::Duplicated => p.duplicate_per_mille = 1000,
            FaultKind::Delayed => p.delay_per_mille = 1000,
            FaultKind::Unavailable => unreachable!("use outages"),
        }
        p
    }

    fn query_frame() -> Frame {
        Frame::DasServerQuery {
            pairs: vec![(IndexValue(1), IndexValue(2))],
        }
    }

    #[test]
    fn accounting() {
        let t = t();
        assert_eq!(t.message_count(), 6);
        assert_eq!(t.total_bytes(), 2300);
        assert_eq!(t.bytes_received_by(&PartyId::Mediator), 1300);
        assert_eq!(t.link(&PartyId::Mediator, &PartyId::Client).len(), 1);
    }

    #[test]
    fn interactions_group_bursts() {
        let t = t();
        // Mediator sends twice: the (q1,q2) burst and the final result.
        assert_eq!(t.interactions_of(&PartyId::Mediator), 2);
        assert_eq!(t.interactions_of(&PartyId::Client), 1);
        assert_eq!(t.interactions_of(&PartyId::source("s1")), 1);
    }

    #[test]
    fn interactions_of_empty_log_is_zero() {
        let t = Transport::new();
        assert_eq!(t.interactions_of(&PartyId::Client), 0);
        assert_eq!(t.interactions_of(&PartyId::Mediator), 0);
    }

    #[test]
    fn interactions_of_single_party_log_is_one_run() {
        let mut t = Transport::new();
        for i in 0..4 {
            t.send(
                PartyId::Client,
                PartyId::Mediator,
                format!("m{i}"),
                payload(8),
            );
        }
        // Four consecutive sends by one party are a single interaction;
        // parties that never sent have none.
        assert_eq!(t.interactions_of(&PartyId::Client), 1);
        assert_eq!(t.interactions_of(&PartyId::Mediator), 0);
    }

    #[test]
    fn interactions_of_counts_interleaved_bursts() {
        let mut t = Transport::new();
        let a = PartyId::source("a");
        let b = PartyId::source("b");
        // A A | B | A — two bursts for A, one for B.
        t.send(a.clone(), PartyId::Mediator, "a1", payload(8));
        t.send(a.clone(), PartyId::Mediator, "a2", payload(8));
        t.send(b.clone(), PartyId::Mediator, "b1", payload(8));
        t.send(a.clone(), PartyId::Mediator, "a3", payload(8));
        assert_eq!(t.interactions_of(&a), 2);
        assert_eq!(t.interactions_of(&b), 1);
    }

    #[test]
    fn render_contains_labels() {
        let flow = t().render_flow();
        assert!(flow.contains("query"));
        assert!(flow.contains("source:s1"));
    }

    #[test]
    fn render_flow_is_stacked_envelope_display() {
        let t = t();
        let lines: Vec<String> = t.log().iter().map(|e| e.to_string()).collect();
        assert_eq!(t.render_flow(), format!("{}\n", lines.join("\n")));
    }

    #[test]
    fn envelope_bytes_is_payload_length() {
        let e = Envelope {
            from: PartyId::Client,
            to: PartyId::Mediator,
            label: "x".into(),
            payload: vec![1, 2, 3],
            attempt: 1,
            fault: None,
        };
        assert_eq!(e.bytes(), 3);
        assert!(format!("{e:?}").contains("010203"), "hex payload in Debug");
    }

    #[test]
    fn deliver_round_trips_through_recorded_bytes() {
        let mut t = Transport::new();
        let frame = query_frame();
        let received = t
            .deliver(PartyId::Client, PartyId::Mediator, "L2.5 q_S", &frame)
            .unwrap();
        assert_eq!(received, frame);
        assert_eq!(t.message_count(), 1);
        assert_eq!(t.total_bytes(), frame.encode().len());
        let decoded = t.decode_log().unwrap();
        assert_eq!(decoded[0].2, frame);
    }

    #[test]
    fn decode_log_surfaces_wire_error_for_corrupted_envelope() {
        let mut t = Transport::new();
        t.deliver(PartyId::Client, PartyId::Mediator, "ok", &query_frame())
            .unwrap();
        // Hand-corrupt the recorded copy's magic byte.
        t.log[0].payload[0] ^= 0xFF;
        assert!(t.decode_log().is_err());
        assert!(t.log[0].frame().is_err());
    }

    #[test]
    fn dropped_frames_are_recorded_and_retried() {
        let mut t = Transport::new();
        let mut plan = always(FaultKind::Dropped);
        plan.drop_per_mille = 400; // fails sometimes, succeeds within retries
        plan.seed = "retry".into();
        t.install_faults(plan);
        t.set_policy(DeliveryPolicy {
            max_attempts: 10,
            on_exhausted: OnExhausted::Abort,
        });
        let frame = query_frame();
        for i in 0..20 {
            t.deliver(PartyId::Client, PartyId::Mediator, format!("m{i}"), &frame)
                .unwrap();
        }
        let dropped = t.log().iter().filter(|e| !e.accepted()).count();
        assert!(dropped > 0, "a 40% drop rate over 20 messages must fire");
        assert_eq!(t.retries() as usize, dropped, "every drop forced a retry");
        let (om, ob) = t.overhead();
        assert_eq!(om, dropped);
        assert_eq!(ob, dropped * frame.encode().len());
        // Accepted copies still decode; accounting covers all copies.
        assert_eq!(t.message_count(), 20 + dropped);
    }

    #[test]
    fn exhausted_delivery_returns_typed_failure() {
        let mut t = Transport::new();
        t.install_faults(always(FaultKind::Dropped));
        t.set_policy(DeliveryPolicy {
            max_attempts: 3,
            on_exhausted: OnExhausted::Abort,
        });
        let err = t
            .deliver(PartyId::Client, PartyId::Mediator, "doomed", &query_frame())
            .unwrap_err();
        let MedError::Delivery(f) = err else {
            panic!("expected a delivery failure, got {err:?}");
        };
        assert_eq!(f.attempts, 3);
        assert_eq!(f.last, DeliveryError::Dropped);
        assert_eq!(f.label, "doomed");
        assert_eq!(t.message_count(), 3, "every failed attempt is recorded");
        assert!(t.log().iter().all(|e| e.fault == Some(FaultKind::Dropped)));
        assert_eq!(t.log()[2].attempt, 3);
    }

    #[test]
    fn corrupted_copies_never_decode() {
        let mut t = Transport::new();
        t.install_faults(always(FaultKind::Corrupted));
        t.set_policy(DeliveryPolicy {
            max_attempts: 2,
            on_exhausted: OnExhausted::Abort,
        });
        let err = t
            .deliver(PartyId::Client, PartyId::Mediator, "bits", &query_frame())
            .unwrap_err();
        let MedError::Delivery(f) = err else {
            panic!("expected a delivery failure");
        };
        assert!(matches!(f.last, DeliveryError::Undecodable(_)));
        for e in t.log() {
            assert_eq!(e.fault, Some(FaultKind::Corrupted));
            assert!(e.frame().is_err(), "header damage must be rejected");
        }
    }

    #[test]
    fn truncated_copies_are_shorter_and_rejected() {
        let mut t = Transport::new();
        t.install_faults(always(FaultKind::Truncated));
        t.set_policy(DeliveryPolicy {
            max_attempts: 1,
            on_exhausted: OnExhausted::Abort,
        });
        let frame = query_frame();
        let full = frame.encode().len();
        assert!(t
            .deliver(PartyId::Client, PartyId::Mediator, "cut", &frame)
            .is_err());
        assert_eq!(t.message_count(), 1);
        assert!(t.log()[0].bytes() < full);
        assert!(t.log()[0].frame().is_err());
    }

    #[test]
    fn duplicated_copies_double_the_wire_not_the_message() {
        let mut t = Transport::new();
        t.install_faults(always(FaultKind::Duplicated));
        let frame = query_frame();
        let got = t
            .deliver(PartyId::Client, PartyId::Mediator, "dup", &frame)
            .unwrap();
        assert_eq!(got, frame, "the receiver still gets one logical message");
        assert_eq!(t.message_count(), 2);
        assert!(t.log()[0].accepted());
        assert_eq!(t.log()[1].fault, Some(FaultKind::Duplicated));
        assert_eq!(t.overhead(), (1, frame.encode().len()));
        assert_eq!(t.retries(), 0);
    }

    #[test]
    fn delayed_copies_reorder_behind_later_traffic() {
        let mut t = Transport::new();
        let mut plan = always(FaultKind::Delayed);
        plan.seed = "delay-first".into();
        t.install_faults(plan);
        let frame = query_frame();
        let got = t
            .deliver(PartyId::Client, PartyId::Mediator, "first", &frame)
            .unwrap();
        assert_eq!(got, frame, "a delayed frame still arrives");
        assert_eq!(t.message_count(), 0, "in flight until later traffic");
        // Disable faults and send a second message: the delayed copy
        // surfaces *after* it.
        t.plan = None;
        t.deliver(PartyId::Client, PartyId::Mediator, "second", &frame)
            .unwrap();
        assert_eq!(t.message_count(), 2);
        assert_eq!(t.log()[0].label, "second");
        assert_eq!(t.log()[1].label, "first");
        assert_eq!(t.log()[1].fault, Some(FaultKind::Delayed));
        assert!(t.log()[1].accepted(), "delayed copies were received");
    }

    #[test]
    fn flush_delayed_surfaces_trailing_copies() {
        let mut t = Transport::new();
        t.install_faults(always(FaultKind::Delayed));
        t.deliver(PartyId::Client, PartyId::Mediator, "tail", &query_frame())
            .unwrap();
        assert_eq!(t.message_count(), 0);
        t.flush_delayed();
        assert_eq!(t.message_count(), 1);
        assert_eq!(t.log()[0].label, "tail");
    }

    #[test]
    fn outage_fails_both_directions_and_expires() {
        let mut t = Transport::new();
        let mut plan = FaultPlan::none("outage");
        plan.outages.push(Outage {
            party: PartyId::source("s1"),
            from_step: 0,
            steps: 2,
        });
        t.install_faults(plan);
        t.set_policy(DeliveryPolicy {
            max_attempts: 1,
            on_exhausted: OnExhausted::Abort,
        });
        let frame = query_frame();
        // Step 0: s1 as sender is down.
        let err = t
            .deliver(PartyId::source("s1"), PartyId::Mediator, "up", &frame)
            .unwrap_err();
        let MedError::Delivery(f) = err else {
            panic!("expected failure")
        };
        assert_eq!(f.last, DeliveryError::SenderUnavailable);
        // Step 1: s1 as receiver is down.
        let err = t
            .deliver(PartyId::Mediator, PartyId::source("s1"), "down", &frame)
            .unwrap_err();
        let MedError::Delivery(f) = err else {
            panic!("expected failure")
        };
        assert_eq!(f.last, DeliveryError::ReceiverUnavailable);
        // Step 2: the outage is over.
        assert!(t
            .deliver(PartyId::Mediator, PartyId::source("s1"), "ok", &frame)
            .is_ok());
        assert!(t.log()[..2]
            .iter()
            .all(|e| e.fault == Some(FaultKind::Unavailable)));
    }

    #[test]
    fn link_masks_confine_faults() {
        let mut t = Transport::new();
        let mut plan = always(FaultKind::Dropped);
        plan.links.push(LinkMask {
            from: Some(PartyId::Client),
            to: None,
        });
        t.install_faults(plan);
        t.set_policy(DeliveryPolicy {
            max_attempts: 1,
            on_exhausted: OnExhausted::Abort,
        });
        let frame = query_frame();
        assert!(t
            .deliver(PartyId::Client, PartyId::Mediator, "masked", &frame)
            .is_err());
        assert!(t
            .deliver(PartyId::Mediator, PartyId::Client, "other way", &frame)
            .is_ok());
    }

    #[test]
    fn same_seed_same_faults_regardless_of_history_shape() {
        let run = || {
            let mut t = Transport::new();
            let mut plan = FaultPlan::none("fingerprint");
            plan.drop_per_mille = 300;
            plan.duplicate_per_mille = 200;
            plan.delay_per_mille = 150;
            t.install_faults(plan);
            let frame = query_frame();
            for i in 0..12 {
                let _ = t.deliver(PartyId::Client, PartyId::Mediator, format!("m{i}"), &frame);
            }
            t.flush_delayed();
            format!("{:?}", t.log())
        };
        assert_eq!(
            run(),
            run(),
            "the fault schedule is a pure function of the seed"
        );
    }

    #[test]
    fn zero_plan_is_indistinguishable_from_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut t = Transport::new();
            if let Some(p) = plan {
                t.install_faults(p);
            }
            let frame = query_frame();
            for i in 0..5 {
                t.deliver(PartyId::Client, PartyId::Mediator, format!("m{i}"), &frame)
                    .unwrap();
            }
            format!("{t:?}")
        };
        assert_eq!(run(None), run(Some(FaultPlan::none("zero"))));
    }

    #[test]
    fn render_flow_tags_retried_and_faulted_envelopes() {
        let mut t = Transport::new();
        let mut plan = FaultPlan::none("flow");
        plan.drop_per_mille = 500;
        t.install_faults(plan);
        t.set_policy(DeliveryPolicy {
            max_attempts: 8,
            on_exhausted: OnExhausted::Abort,
        });
        let frame = query_frame();
        for i in 0..10 {
            t.deliver(PartyId::Client, PartyId::Mediator, format!("m{i}"), &frame)
                .unwrap();
        }
        assert!(t.retries() > 0, "a 50% drop rate over 10 messages retries");
        let flow = t.render_flow();
        assert!(
            flow.contains("(attempt 2)"),
            "retried envelopes are tagged visibly:\n{flow}"
        );
        assert!(flow.contains("[dropped]"), "faulted copies are tagged");
        // Clean copies carry no tag.
        let clean_line = t
            .log()
            .iter()
            .find(|e| e.attempt == 1 && e.fault.is_none())
            .unwrap()
            .to_string();
        assert!(!clean_line.contains("attempt"));
        assert!(!clean_line.contains("[dropped]"));
    }

    #[test]
    fn delivery_failure_display_names_the_step() {
        let f = DeliveryFailure {
            from: PartyId::Client,
            to: PartyId::Mediator,
            label: "L1.1 query".into(),
            attempts: 3,
            last: DeliveryError::Dropped,
        };
        let s = f.to_string();
        assert!(s.contains("L1.1 query"));
        assert!(s.contains("3 attempt"));
        assert!(s.contains("dropped"));
    }

    #[test]
    fn party_display() {
        assert_eq!(PartyId::Client.to_string(), "client");
        assert_eq!(PartyId::source("x").to_string(), "source:x");
    }
}

//! Canonical wire format for every cross-party protocol message.
//!
//! The paper's Table 1 describes what the mediator and the client *observe*
//! during a run.  Observation is only meaningful over a concrete transcript,
//! so every message of Listings 2, 3 and 4 (and the request phase of
//! Listing 1) is encoded here into a versioned, length-prefixed byte frame
//! before it crosses a party boundary.  Parties communicate exclusively in
//! these bytes; the leakage audit and the transport byte accounting are
//! computed from decoded frames, never from hand-estimated sizes.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := magic version kind session len body
//! magic   := 0x53 0x4D                  ("SM")
//! version := u8                         (currently 2)
//! kind    := u8                         (one tag per Frame variant)
//! session := u64 be                     (session id, 0 = in-process run)
//! len     := u32 be                     (body length in bytes)
//! body    := kind-specific fields, in declaration order
//! ```
//!
//! All integers are big-endian.  Variable-length fields (byte strings,
//! UTF-8 strings, magnitudes) carry a `u32` length prefix; sequences carry
//! a `u32` element count.  Decoding is *total*: every malformed input
//! returns a typed [`WireError`], the body must be consumed exactly, and
//! trailing bytes are rejected.
//!
//! # Session layer
//!
//! Version 2 threads a session id through every header so one mediator
//! process can multiplex concurrent client connections.  A connection
//! opens with [`Frame::Hello`] (version negotiation plus the client's
//! requested delivery policy), the server answers [`Frame::HelloAck`]
//! with a [`SessionStatus`], and [`Frame::Goodbye`] closes the session
//! cleanly.  The [`stream`] module frames whole encoded messages over any
//! `io::Read`/`io::Write` pair (the socket fabric's carry path).

#![forbid(unsafe_code)]
// This crate is the frame codec's home: its own calls to the codec entry
// points are the one place clippy.toml's codec ban does not apply.
#![allow(clippy::disallowed_methods)]

mod bytesio;
mod frame;
pub mod stream;

pub use frame::{
    DasTable, Frame, FrameHeader, PmPayloadSet, PolyCoeffs, ResumeStatus, SessionStatus, TupleRef,
};

use std::fmt;

/// Wire format version emitted and accepted by this build.
pub const WIRE_VERSION: u8 = 2;

/// The two magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"SM";

/// Typed decode failure.  Decoding never panics; every malformed input
/// maps onto one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a declared field.
    Truncated,
    /// The first two bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte does not name a known frame.
    BadKind(u8),
    /// The body (or the whole input) has bytes past the declared end.
    TrailingBytes,
    /// A field-level invariant failed (bad UTF-8, bad tag, bad shape).
    Malformed(&'static str),
    /// A frame named a session id the receiver has no record of.
    UnknownSession(u64),
    /// An embedded ciphertext failed its own codec or validity check.
    Crypto(secmed_crypto::CryptoError),
    /// An embedded DAS structure failed its own codec.
    Das(secmed_das::DasError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame body"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::UnknownSession(s) => write!(f, "unknown session id {s}"),
            WireError::Crypto(e) => write!(f, "embedded ciphertext: {e}"),
            WireError::Das(e) => write!(f, "embedded DAS structure: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<secmed_crypto::CryptoError> for WireError {
    fn from(e: secmed_crypto::CryptoError) -> Self {
        WireError::Crypto(e)
    }
}

impl From<secmed_das::DasError> for WireError {
    fn from(e: secmed_das::DasError) -> Self {
        WireError::Das(e)
    }
}

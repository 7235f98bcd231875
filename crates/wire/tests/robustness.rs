//! Decoder robustness: `Frame::decode` is total.  Whatever a hostile or
//! corrupted fabric delivers, decoding returns a typed [`WireError`] —
//! it never panics, never over-allocates, and never silently accepts a
//! mangled header.

// These tests drive the decoder directly with hostile input.
#![allow(clippy::disallowed_methods)]

mod common;

use secmed_testkit::cases;
use secmed_wire::{Frame, WireError, WIRE_VERSION};

/// Every strict prefix of a valid encoding fails to decode.
#[test]
fn truncation_at_every_offset_is_an_error() {
    for frame in common::sample_frames() {
        let encoded = frame.encode();
        for len in 0..encoded.len() {
            assert!(
                Frame::decode(&encoded[..len]).is_err(),
                "{}: prefix of {len}/{} bytes decoded",
                frame.name(),
                encoded.len()
            );
        }
    }
}

#[test]
fn bad_magic_version_and_kind_are_typed_errors() {
    for frame in common::sample_frames() {
        let encoded = frame.encode();

        let mut bad_magic = encoded.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(WireError::BadMagic)
        ));

        let mut bad_version = encoded.clone();
        bad_version[2] = WIRE_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(WireError::BadVersion(v)) if v == WIRE_VERSION + 1
        ));

        let mut bad_kind = encoded.clone();
        bad_kind[3] = 0xee;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(WireError::BadKind(0xee))
        ));
    }
}

#[test]
fn oversized_length_prefix_and_trailing_bytes_are_errors() {
    for frame in common::sample_frames() {
        let mut oversized = frame.encode();
        // The body-length prefix lives at bytes 12..16; claiming 4 GiB − 1
        // of body must fail as truncated, not preallocate.
        oversized[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(WireError::Truncated)
        ));

        let mut trailing = frame.encode();
        trailing.push(0x00);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(WireError::TrailingBytes)
        ));
    }
}

/// Seeded fuzzing: random single-bit flips anywhere in a valid encoding
/// either decode to *some* frame or return an error — the call itself
/// must be total.  Flips inside variable-length counts are the classic
/// preallocation trap; `decode` caps its buffers, so this also bounds
/// memory.
#[test]
fn random_bit_flips_never_panic() {
    let frames = common::sample_frames();
    cases(256, "wire/bit-flips", |g| {
        let frame = g.choose(&frames);
        let mut encoded = frame.encode();
        let flips = g.usize_in(1, 8);
        for _ in 0..flips {
            let byte = g.usize_in(0, encoded.len() - 1);
            let bit = g.u8() % 8;
            encoded[byte] ^= 1 << bit;
        }
        // Total: returns Ok or Err, never panics.  If it decodes, the
        // result must re-encode without panicking either.
        if let Ok(decoded) = Frame::decode(&encoded) {
            let _ = decoded.encode();
        }
    });
}

/// Seeded fuzzing on raw garbage: arbitrary byte strings (including ones
/// that start with a valid header) never panic the decoder.
#[test]
fn random_garbage_never_panics() {
    cases(256, "wire/garbage", |g| {
        let mut bytes = g.bytes_in(0, 200);
        // Half the time, graft a plausible header on the front so the
        // fuzz reaches the body decoders instead of dying at the magic.
        if g.bool() && bytes.len() >= 4 {
            bytes[0] = b'S';
            bytes[1] = b'M';
            bytes[2] = WIRE_VERSION;
        }
        let _ = Frame::decode(&bytes);
        let _ = Frame::decode_with_session(&bytes);
        let _ = Frame::peek_header(&bytes);
    });
}

/// Session-layer failure paths are typed errors, never panics: a hello
/// whose *header* speaks the wrong version, a frame naming a session the
/// receiver never opened, and truncated hellos at every length.
#[test]
fn session_failures_are_typed_errors() {
    let hello = Frame::Hello {
        client_version: WIRE_VERSION,
        max_attempts: 3,
        degrade_on_exhausted: false,
    };
    let encoded = hello.encode_with_session(42);

    // Bad version byte: rejected before the session layer ever sees it.
    let mut bad_version = encoded.clone();
    bad_version[2] = WIRE_VERSION + 1;
    assert!(matches!(
        Frame::decode_expecting_session(&bad_version, 42),
        Err(WireError::BadVersion(v)) if v == WIRE_VERSION + 1
    ));

    // Unknown session id: the typed error carries the id the frame named.
    assert!(matches!(
        Frame::decode_expecting_session(&encoded, 7),
        Err(WireError::UnknownSession(42))
    ));
    assert!(matches!(
        Frame::decode_expecting_session(&encoded, 42),
        Ok(Frame::Hello { .. })
    ));

    // Truncated hello: every strict prefix is an error, never a panic.
    for len in 0..encoded.len() {
        assert!(
            Frame::decode_expecting_session(&encoded[..len], 42).is_err(),
            "hello prefix of {len} bytes decoded"
        );
    }
}

/// Seeded fuzzing on the session path: mangled hellos either decode or
/// fail typed, and `decode_expecting_session` agrees with `peek_header`
/// about which session a frame names.
#[test]
fn mangled_hellos_never_panic() {
    cases(256, "wire/hello-fuzz", |g| {
        let hello = Frame::Hello {
            client_version: g.u8(),
            max_attempts: g.u32(),
            degrade_on_exhausted: g.bool(),
        };
        let mut encoded = hello.encode_with_session(g.u64());
        let flips = g.usize_in(0, 4);
        for _ in 0..flips {
            let byte = g.usize_in(0, encoded.len() - 1);
            encoded[byte] ^= 1 << (g.u8() % 8);
        }
        let expected = g.u64();
        match Frame::decode_expecting_session(&encoded, expected) {
            Ok(_) => {
                let h = Frame::peek_header(&encoded).expect("decoded frame has a header");
                assert_eq!(h.session, expected);
            }
            Err(WireError::UnknownSession(named)) => {
                let h = Frame::peek_header(&encoded).expect("typed session error has a header");
                assert_eq!(h.session, named);
                assert_ne!(named, expected);
            }
            Err(_) => {}
        }
    });
}

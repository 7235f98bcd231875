//! Golden wire vectors: one committed hex dump per frame type.
//!
//! These tests pin the codec: any change to the byte layout — field
//! order, length prefixes, version, kind bytes — fails `encoding_matches_
//! the_committed_golden_vector` until the vectors are regenerated on
//! purpose (run with `WIRE_BLESS=1` to rewrite them) and the
//! [`secmed_wire::WIRE_VERSION`] is bumped.

// These tests pin the codec, so they call it directly.
#![allow(clippy::disallowed_methods)]

mod common;

use std::fs;
use std::path::PathBuf;

use secmed_wire::Frame;

fn vector_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/vectors")
        .join(format!("{name}.hex"))
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            out.push('\n');
        }
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(compact.len().is_multiple_of(2), "odd hex digit count");
    (0..compact.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&compact[i..i + 2], 16).expect("hex digit"))
        .collect()
}

#[test]
fn every_frame_type_has_a_vector_and_round_trips() {
    let frames = common::sample_frames();
    // One sample per variant, with pairwise-distinct names.
    let mut names: Vec<&str> = frames.iter().map(|f| f.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), frames.len(), "duplicate frame names");

    for frame in &frames {
        let encoded = frame.encode();
        let decoded = Frame::decode(&encoded)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", frame.name()));
        assert_eq!(&decoded, frame, "{}: round trip", frame.name());
    }
}

#[test]
fn encoding_matches_the_committed_golden_vector() {
    let bless = std::env::var_os("WIRE_BLESS").is_some();
    for frame in common::sample_frames() {
        let name = frame.name();
        let path = vector_path(name);
        let encoded = frame.encode();
        if bless {
            fs::write(&path, to_hex(&encoded)).expect("write vector");
            continue;
        }
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden vector {}: {e}", path.display()));
        let expected = from_hex(&committed);
        assert_eq!(
            encoded, expected,
            "{name}: wire encoding drifted from the committed vector; if the \
             change is intentional, bump WIRE_VERSION and regenerate with \
             WIRE_BLESS=1"
        );
        // The committed bytes themselves decode back to the same frame.
        assert_eq!(
            Frame::decode(&expected).expect("vector decodes"),
            frame,
            "{name}"
        );
    }
}

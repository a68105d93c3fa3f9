//! The `AllToAllOutput` codec, held to what the netsim codecs are held to:
//! encode → decode → re-encode is byte-identical, every strict prefix is
//! rejected, a flipped byte never panics — and the bytes are the ones
//! snapshot format 5 has always written.

use bdclique_bits::BitVec;
use bdclique_core::AllToAllOutput;
use bdclique_snapshot::{Dec, Enc};
use proptest::prelude::*;

/// An output of `n` nodes and `b`-bit beliefs with slot `(v, u)` present
/// where `keep` says so, its content derived from the slot.
fn output(n: usize, b: usize, keep: impl Fn(usize, usize) -> bool) -> AllToAllOutput {
    let mut out = AllToAllOutput::empty(n, b);
    for v in 0..n {
        for u in 0..n {
            if keep(v, u) {
                out.set(v, u, BitVec::from_fn(b, |i| (i + v * u) % 2 == 0));
            }
        }
    }
    out
}

fn encode(out: &AllToAllOutput) -> Vec<u8> {
    let mut enc = Enc::new();
    out.snapshot(&mut enc);
    enc.into_bytes()
}

/// Decodes with full-consumption checking, as the real restore path does.
fn decode(bytes: &[u8], b: usize) -> Result<AllToAllOutput, String> {
    let mut dec = Dec::new(bytes);
    let out = AllToAllOutput::restore(&mut dec, b).map_err(|e| e.to_string())?;
    dec.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

/// FNV-1a over an encoding: pins bytes without spelling them out.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

proptest! {
    #[test]
    fn output_roundtrip_is_byte_identical(
        n in 1usize..9,
        b in 0usize..70,
        mask in any::<u64>(),
    ) {
        let out = output(n, b, |v, u| mask >> ((v * n + u) % 64) & 1 == 1);
        let bytes = encode(&out);
        let restored = decode(&bytes, b).expect("well-formed encoding");
        prop_assert_eq!(&restored, &out);
        prop_assert_eq!(encode(&restored), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn output_truncations_are_rejected(
        n in 1usize..7,
        b in 0usize..20,
        mask in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode(&output(n, b, |v, u| mask >> ((v * n + u) % 64) & 1 == 1));
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(decode(&bytes[..cut], b).is_err(), "prefix of {} bytes decoded", cut);
    }

    /// Totality, not detection: the decoder returns `Ok` or `Err`. A flipped
    /// node count is bounded by the input itself (each slot takes a byte),
    /// so no flip can make the decoder allocate more than a few bits per
    /// input byte.
    #[test]
    fn output_corruption_never_panics(
        n in 1usize..7,
        b in 0usize..20,
        mask in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode(&output(n, b, |v, u| mask >> ((v * n + u) % 64) & 1 == 1));
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let _ = decode(&bytes, b);
    }
}

/// The encoding is pinned: it is part of snapshot format 5, so a change to
/// the value is a format change and needs a `VERSION` bump, whatever backs
/// the output.
#[test]
fn output_encoding_is_pinned() {
    let bytes = encode(&output(5, 3, |v, u| (v + 2 * u) % 3 != 0));
    assert_eq!(bytes.len(), 177);
    assert_eq!(fnv1a(&bytes), 0xcb93_fd4a_b7c7_e892);
}

/// A present belief of any width but `b` is corrupt, and so is a node
/// count whose `n²` slots overflow or outnumber the bytes left (the
/// headers live at known offsets: `n` in bytes 0..8, slot (0, 0)'s flag at
/// byte 8 and its length in bytes 9..17).
#[test]
fn output_header_corruption_is_detected() {
    let b = 3;
    let bytes = encode(&output(4, b, |_, _| true));
    assert!(decode(&bytes, b).is_ok());
    assert!(
        decode(&bytes, b + 1).is_err(),
        "a 3-bit belief read as 4 bits"
    );
    assert!(
        decode(&bytes, b - 1).is_err(),
        "a 3-bit belief read as 2 bits"
    );
    let mut wide = bytes.clone();
    wide[9] = 2;
    assert!(
        decode(&wide, b).is_err(),
        "a 2-bit belief in a 3-bit output"
    );
    for n in [5u64, 1 << 20, 1 << 32, u64::MAX] {
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&n.to_le_bytes());
        assert!(decode(&bad, b).is_err(), "n = {n} accepted");
    }
    assert!(decode(&[], b).is_err());
}

//! Property tests for the netsim snapshot codecs: every public codec
//! round-trips (encode → decode → re-encode is **byte-identical**, the
//! invariant the checkpoint subsystem's re-snapshot identity rests on),
//! and malformed input — truncation at any byte, corrupted headers — is
//! rejected with an error, never a panic or a silently wrong value.

use bdclique_bits::BitVec;
use bdclique_netsim::{Adversary, Delivery, Network, SeedStream, Topology};
use bdclique_snapshot::{Dec, Enc};
use proptest::prelude::*;

mod common;

/// Deterministic frame content derived from the slot and length.
fn payload(from: usize, to: usize, len: usize) -> BitVec {
    BitVec::from_fn(len, |i| (i * 11 + from * 5 + to * 3) % 7 < 3)
}

/// One fault-free round delivering the frames of an op list. With `dense`
/// the round's traffic is moved onto the dense store first, so the
/// delivery is the dense matrix whatever the number of ops; without, the
/// load factor decides (per-receiver inboxes below the switch).
fn build_delivery(
    n: usize,
    bandwidth: usize,
    dense: bool,
    ops: &[(usize, usize, usize)],
) -> Delivery {
    let mut net = Network::new(n, bandwidth, 0.0, Adversary::none());
    let mut t = net.traffic();
    if dense {
        common::densify(&mut t);
    }
    for &(from, to, len) in ops {
        let (from, to) = (from % n, to % n);
        if from != to {
            t.send(from, to, payload(from, to, 1 + len % bandwidth));
        }
    }
    net.exchange(t)
}

/// Encodes a value through its `snapshot` hook.
fn encode(f: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut enc = Enc::new();
    f(&mut enc);
    enc.into_bytes()
}

/// Decodes with full-consumption checking, as the real restore path does.
fn decode_delivery(bytes: &[u8]) -> Result<Delivery, String> {
    let mut dec = Dec::new(bytes);
    let d = Delivery::restore(&mut dec).map_err(|e| e.to_string())?;
    dec.finish().map_err(|e| e.to_string())?;
    Ok(d)
}

/// The node count a delivery encoding announces (its first eight bytes).
fn announced_n(bytes: &[u8]) -> u64 {
    let mut dec = Dec::new(bytes);
    dec.get_u64().expect("an eight-byte header")
}

proptest! {
    /// A delivery round-trips byte-identically on both representations
    /// (the tag byte makes re-encoding representation-exact), with every
    /// inbox intact.
    #[test]
    fn delivery_roundtrip_is_byte_identical(
        n in 2usize..12,
        bandwidth in 4usize..24,
        dense in any::<bool>(),
        ops in prop::collection::vec((0usize..12, 0usize..12, 0usize..24), 0..32),
    ) {
        let d = build_delivery(n, bandwidth, dense, &ops);
        let bytes = encode(|e| d.snapshot(e));
        let restored = decode_delivery(&bytes).expect("well-formed encoding");
        prop_assert_eq!(&restored, &d);
        let again = encode(|e| restored.snapshot(e));
        prop_assert_eq!(bytes, again, "re-encode must be byte-identical");
    }

    /// Every strict prefix of a delivery encoding is rejected, on both
    /// representations — a torn checkpoint write can never restore as a
    /// shorter-but-valid state. (The atomic rename in the bench layer
    /// prevents torn files; this guarantees defense in depth if one appears
    /// anyway.)
    #[test]
    fn delivery_truncations_are_rejected(
        n in 2usize..8,
        dense in any::<bool>(),
        ops in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let d = build_delivery(n, 9, dense, &ops);
        let bytes = encode(|e| d.snapshot(e));
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(
            decode_delivery(&bytes[..cut]).is_err(),
            "prefix of {} bytes decoded", cut
        );
    }

    /// Single-byte corruption never panics, on both representations. The
    /// property asserted is totality, not detection: the decoder must
    /// return `Ok` or `Err`, never crash.
    #[test]
    fn delivery_corruption_never_panics(
        n in 2usize..8,
        dense in any::<bool>(),
        ops in prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 1..12),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let d = build_delivery(n, 9, dense, &ops);
        let mut bytes = encode(|e| d.snapshot(e));
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // A flipped node count inside the decoder's ceiling is a legal
        // header: a dense delivery then allocates its grid for real,
        // n²·(1 + 4 + 9) bits for these 9-bit frames — 29 MB at n = 4096,
        // 470 MB at n = 16384. Out-of-range counts are still fed in.
        let n_flipped = announced_n(&bytes);
        prop_assume!(n_flipped <= 4096 || n_flipped > 1 << 17);
        let _ = decode_delivery(&bytes); // must return, not panic
    }

    /// Topologies round-trip byte-identically across every generator,
    /// including the compact clique representation.
    #[test]
    fn topology_roundtrip_is_byte_identical(
        pick in 0usize..4,
        n_exp in 3u32..6,
        seed in 0u64..100,
    ) {
        let n = 1usize << n_exp;
        let topo = match pick {
            0 => Topology::complete(n),
            1 => Topology::random_regular(n, 4, seed),
            2 => Topology::hypercube(n),
            _ => Topology::ring(n),
        };
        let bytes = encode(|e| topo.snapshot(e));
        let mut dec = Dec::new(&bytes);
        let restored = Topology::restore(&mut dec).expect("well-formed");
        dec.finish().expect("fully consumed");
        prop_assert_eq!(restored.n(), topo.n());
        prop_assert_eq!(restored.edge_count(), topo.edge_count());
        prop_assert_eq!(restored.is_complete(), topo.is_complete());
        let again = encode(|e| restored.snapshot(e));
        prop_assert_eq!(bytes, again);
    }

    /// Truncated topology encodings are rejected.
    #[test]
    fn topology_truncations_are_rejected(n in 4usize..24, cut_frac in 0.0f64..1.0) {
        let topo = Topology::random_regular(2 * (n / 2), 2, 3);
        let bytes = encode(|e| topo.snapshot(e));
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let mut dec = Dec::new(&bytes[..cut]);
        let result = Topology::restore(&mut dec).and_then(|_| dec.finish());
        prop_assert!(result.is_err(), "prefix of {} bytes decoded", cut);
    }

    /// `SeedStream::from_state` is the exact inverse of `seed()` — fork
    /// cursors serialize as one u64 and resume producing the identical
    /// stream, the property every resumed trial's seeding rests on.
    #[test]
    fn seed_stream_state_roundtrip(root in any::<u64>(), forks in prop::collection::vec(0u64..1000, 0..8)) {
        let mut stream = SeedStream::new(root);
        for &f in &forks {
            stream = stream.fork_u64(f);
        }
        let resumed = SeedStream::from_state(stream.seed());
        prop_assert_eq!(resumed.seed(), stream.seed());
        // The resumed cursor continues identically, not just compares equal.
        prop_assert_eq!(
            resumed.fork("next").seed(),
            stream.fork("next").seed()
        );
        prop_assert_eq!(resumed.fork_u64(7).seed(), stream.fork_u64(7).seed());
    }
}

/// FNV-1a over an encoding: pins bytes without spelling them out.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Six frames of widths 9, 0, 4, 1, 7 and 9 on twelve nodes: below the
/// switch unless the round is moved onto the dense store first.
fn pinned_delivery(dense: bool) -> Delivery {
    let (n, bandwidth) = (12, 9);
    let mut net = Network::new(n, bandwidth, 0.0, Adversary::none());
    let mut t = net.traffic();
    if dense {
        common::densify(&mut t);
    }
    for (from, to, len) in [
        (0, 1, 9),
        (1, 0, 0),
        (2, 11, 4),
        (7, 1, 1),
        (11, 10, 7),
        (3, 4, 9),
    ] {
        t.send(
            from,
            to,
            BitVec::from_fn(len, |i| (i * 5 + from + 2 * to) % 3 == 1),
        );
    }
    net.exchange(t)
}

/// Both delivery encodings are pinned: they are part of snapshot format 5,
/// so a change to either value is a format change and needs a `VERSION`
/// bump, whatever backs the dense store.
#[test]
fn delivery_encodings_are_pinned() {
    for (dense, tag, len, fnv) in [
        (false, 1, 184, 0x3662_f6cc_bda1_1f99),
        (true, 0, 120, 0x62b6_aac1_a838_fc77),
    ] {
        let bytes = encode(|e| pinned_delivery(dense).snapshot(e));
        assert_eq!(bytes[8], tag, "dense = {dense}: representation tag");
        assert_eq!(bytes.len(), len, "dense = {dense}");
        assert_eq!(fnv1a(&bytes), fnv, "dense = {dense}");
    }
}

/// Corrupting the node-count header or the representation tag of a
/// delivery encoding is caught by validation (pinned cases — the headers
/// live at known offsets: `n` in bytes 0..8, the tag at byte 8).
#[test]
fn delivery_header_corruption_is_detected() {
    let d = build_delivery(4, 9, false, &[(0, 1, 3), (2, 3, 5)]);
    let bytes = encode(|e| d.snapshot(e));
    assert_eq!(announced_n(&bytes), 4);
    // A node count below two or past the ceiling: rejected by the explicit
    // range check, before anything is allocated.
    for n in [0u64, 1, (1 << 17) + 1, u64::MAX] {
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&n.to_le_bytes());
        assert!(decode_delivery(&bad).is_err(), "n = {n} accepted");
    }
    // An unknown representation tag.
    let mut bad = bytes.clone();
    bad[8] = 2;
    assert!(decode_delivery(&bad).is_err(), "tag 2 accepted");
    // Empty input and a lone header byte are truncations.
    assert!(decode_delivery(&[]).is_err());
    assert!(decode_delivery(&bytes[..1]).is_err());
}

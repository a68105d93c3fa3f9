//! Property-based tests: decode∘corrupt∘encode identities within radius.

use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, CodeError, ReedSolomon, SymbolCode};
use proptest::prelude::*;

/// Strategy: a message of `k` symbols over an alphabet of size `2^bits`.
fn msg_strategy(k: usize, bits: u32) -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..(1 << bits), k)
}

/// A damaged codeword of an `[n, k]` code over GF(2^8): `f` erasures and
/// `e` errors at the head of a random permutation of the positions.
#[derive(Debug)]
struct Damaged {
    rs: ReedSolomon,
    e: usize,
    f: usize,
    msg: Vec<u16>,
    /// The codeword with the errors applied; erased positions hold garbage.
    recv: Vec<u16>,
    eras: Vec<bool>,
    /// Where the received word, erasures zeroed as the decoder zeroes them,
    /// differs from the codeword: every error, and every erased position
    /// whose true symbol is nonzero. Ascending.
    damaged: Vec<usize>,
}

/// Strategy: a word of the `[n, k]` code with `f ∈ 0..=2t` erasures and `e`
/// errors, `e` drawn by `errors(slack)` from the `slack = ⌊(2t − f)/2⌋`
/// errors the erasures leave room for.
fn damaged(
    n: usize,
    k: usize,
    errors: fn(usize, usize) -> usize,
) -> impl Strategy<Value = Damaged> {
    let two_t = n - k;
    (
        msg_strategy(k, 8),
        prop::collection::vec(any::<u64>(), n),
        0..=two_t,
        any::<usize>(),
        prop::collection::vec(1u16..256, n),
    )
        .prop_map(move |(msg, keys, f, pick, garbage)| {
            // A uniformly random order of the positions.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&p| (keys[p], p));
            let rs = ReedSolomon::new(8, n, k).unwrap();
            let cw = rs.encode(&msg).unwrap();
            let e = errors((two_t - f) / 2, pick).min(n - f);
            let (mut recv, mut eras) = (cw.clone(), vec![false; n]);
            let mut damaged = Vec::new();
            for &p in &order[..f] {
                eras[p] = true;
                recv[p] = garbage[p] & 0xff;
                if cw[p] != 0 {
                    damaged.push(p);
                }
            }
            for &p in &order[f..f + e] {
                recv[p] ^= garbage[p];
                damaged.push(p);
            }
            damaged.sort_unstable();
            Damaged {
                rs,
                e,
                f,
                msg,
                recv,
                eras,
                damaged,
            }
        })
}

/// No errors: Berlekamp–Massey never updates the locator and the decoder
/// reads the roots off the erasure list.
fn no_errors(_slack: usize, _pick: usize) -> usize {
    0
}

/// At least one error whenever the erasures leave room for one: the
/// searched path. (At `f ≥ 2t − 1` there is no room and the word is
/// erasure-only.)
fn some_errors(slack: usize, pick: usize) -> usize {
    if slack == 0 {
        0
    } else {
        1 + pick % slack
    }
}

/// One to four errors more than the erasures leave room for.
fn too_many_errors(slack: usize, pick: usize) -> usize {
    slack + 1 + pick % 4
}

/// Within the radius the decoder returns the message and reports exactly
/// the damaged positions.
fn assert_corrects(word: &Damaged) -> Result<(), TestCaseError> {
    let (msg, mut corrected) = word.rs.decode_detailed(&word.recv, &word.eras).unwrap();
    corrected.sort_unstable();
    prop_assert_eq!(&msg, &word.msg);
    prop_assert_eq!(&corrected, &word.damaged);
    Ok(())
}

/// Past the radius the decoder is never silently wrong: it refuses, or it
/// returns a message whose codeword is within the budget of the *received*
/// word — `e′` disagreements outside the erasures with `2e′ + f ≤ 2t`.
fn assert_refuses_or_stays_in_budget(word: &Damaged) -> Result<(), TestCaseError> {
    let (rs, f) = (&word.rs, word.f);
    prop_assert!(
        2 * word.e + f >= rs.distance(),
        "the case is inside the radius"
    );
    match rs.decode(&word.recv, &word.eras) {
        Err(CodeError::TooManyErrors { .. }) => {}
        Err(other) => prop_assert!(false, "unexpected error {}", other),
        Ok(msg) => {
            let cw = rs.encode(&msg).unwrap();
            let off = (0..cw.len())
                .filter(|&p| !word.eras[p] && cw[p] != word.recv[p])
                .count();
            prop_assert!(
                2 * off + f < rs.distance(),
                "accepted a word {} errors and {} erasures away",
                off,
                f
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cover-free router's shape on `hypercube-matchings`, `[128, 75]`,
    /// on the erasure-only path, on the searched path, and past the radius.
    #[test]
    fn rs_128_75_erasures_only(word in damaged(128, 75, no_errors)) {
        assert_corrects(&word)?;
    }

    #[test]
    fn rs_128_75_errors_and_erasures(word in damaged(128, 75, some_errors)) {
        assert_corrects(&word)?;
    }

    #[test]
    fn rs_128_75_past_the_radius(word in damaged(128, 75, too_many_errors)) {
        assert_refuses_or_stays_in_budget(&word)?;
    }

    /// The unit router's shape on the `sqrt` workloads, `[255, 237]`.
    #[test]
    fn rs_255_237_erasures_only(word in damaged(255, 237, no_errors)) {
        assert_corrects(&word)?;
    }

    #[test]
    fn rs_255_237_errors_and_erasures(word in damaged(255, 237, some_errors)) {
        assert_corrects(&word)?;
    }

    #[test]
    fn rs_255_237_past_the_radius(word in damaged(255, 237, too_many_errors)) {
        assert_refuses_or_stays_in_budget(&word)?;
    }

    #[test]
    fn rs_corrects_any_pattern_within_2e_plus_f(
        msg in msg_strategy(8, 8),
        // positions 0..16 with roles: 0 = clean, 1 = error, 2 = erasure
        roles in prop::collection::vec(0u8..3, 16),
        garbage in prop::collection::vec(1u16..256, 16),
    ) {
        let rs = ReedSolomon::new(8, 16, 8).unwrap();
        let cw = rs.encode(&msg).unwrap();
        let mut recv = cw.clone();
        let mut eras = vec![false; 16];
        let mut e = 0usize;
        let mut f = 0usize;
        for i in 0..16 {
            match roles[i] {
                1 if 2 * (e + 1) + f <= 8 => {
                    recv[i] ^= garbage[i];
                    e += 1;
                }
                2 if 2 * e + (f + 1) <= 8 => {
                    recv[i] = garbage[i] & 0xff;
                    eras[i] = true;
                    f += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(rs.decode(&recv, &eras).unwrap(), msg);
    }

    #[test]
    fn rs_bitcode_roundtrip(bools in prop::collection::vec(any::<bool>(), 1..64)) {
        let rs = ReedSolomon::new(8, 16, 8).unwrap();
        let bits = BitVec::from_bools(&bools);
        let cw = rs.encode_bits(&bits).unwrap();
        let out = rs.decode_bits(&cw, &[false; 16], bits.len()).unwrap();
        prop_assert_eq!(out, bits);
    }

    #[test]
    fn rs_distance_between_codewords(
        m1 in msg_strategy(5, 4),
        m2 in msg_strategy(5, 4),
    ) {
        prop_assume!(m1 != m2);
        let rs = ReedSolomon::new(4, 15, 5).unwrap();
        let c1 = rs.encode(&m1).unwrap();
        let c2 = rs.encode(&m2).unwrap();
        let dist = c1.iter().zip(&c2).filter(|(a, b)| a != b).count();
        prop_assert!(dist >= rs.distance(), "distance {} < {}", dist, rs.distance());
    }
}

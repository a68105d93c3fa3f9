//! Property-based tests: decode∘corrupt∘encode identities within radius.

use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon, SymbolCode};
use proptest::prelude::*;

/// Strategy: a message of `k` symbols over an alphabet of size `2^bits`.
fn msg_strategy(k: usize, bits: u32) -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..(1 << bits), k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

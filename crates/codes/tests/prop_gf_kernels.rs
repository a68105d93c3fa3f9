//! Property tests pinning the compiled batch kernels (`mul_slice`, `axpy`,
//! `dot`, `poly_eval`, `poly_eval_many`) to the scalar `Gf` operations for every field
//! GF(2^m), m ∈ 1..=16 — including zero operands (the branchless sentinel
//! paths) and the `axpy` accumulate contract.

use bdclique_codes::Gf;
use proptest::prelude::*;

/// Strategy: a symbol vector over GF(2^m) with zeros injected (indices
/// divisible by `zero_stride` are forced to zero so the sentinel paths are
/// always exercised, whatever the random draw).
fn syms(m: u32, len: usize) -> impl Strategy<Value = Vec<u16>> {
    let order = (1u32 << m) - 1;
    prop::collection::vec(0u16..=(order as u16), len).prop_map(|mut v| {
        for (i, s) in v.iter_mut().enumerate() {
            if i % 5 == 0 {
                *s = 0;
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `mul_slice(dst, c)` is the scalar map `dst[i] = mul(dst[i], c)`,
    /// for every field size and for `c = 0` (the all-zero result).
    #[test]
    fn mul_slice_matches_scalar(
        m in 1u32..=16,
        data in syms(16, 33),
        c_raw in any::<u16>(),
    ) {
        let gf = Gf::new(m);
        let mask = ((1u32 << m) - 1) as u16;
        let c = c_raw & mask;
        let data: Vec<u16> = data.iter().map(|&s| s & mask).collect();
        for c in [c, 0, 1] {
            let mut dst = data.clone();
            gf.mul_slice(&mut dst, c);
            let expect: Vec<u16> = data.iter().map(|&s| gf.mul(s, c)).collect();
            prop_assert_eq!(dst, expect, "m = {}, c = {}", m, c);
        }
    }

    /// `axpy(dst, c, src)` is the scalar accumulate
    /// `dst[i] ^= mul(c, src[i])`; `c = 0` leaves `dst` untouched, and a
    /// double application cancels (GF(2^m) addition is xor).
    #[test]
    fn axpy_matches_scalar_and_cancels(
        m in 1u32..=16,
        a in syms(16, 29),
        b in syms(16, 29),
        c_raw in any::<u16>(),
    ) {
        let gf = Gf::new(m);
        let mask = ((1u32 << m) - 1) as u16;
        let c = c_raw & mask;
        let a: Vec<u16> = a.iter().map(|&s| s & mask).collect();
        let b: Vec<u16> = b.iter().map(|&s| s & mask).collect();

        let mut dst = a.clone();
        gf.axpy(&mut dst, c, &b);
        let expect: Vec<u16> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x ^ gf.mul(c, y))
            .collect();
        prop_assert_eq!(&dst, &expect, "m = {}, c = {}", m, c);

        // Accumulate contract: applying the same axpy again restores `a`.
        gf.axpy(&mut dst, c, &b);
        prop_assert_eq!(&dst, &a);

        // c = 0 is a no-op on any dst, including one holding zeros.
        let mut dst = a.clone();
        gf.axpy(&mut dst, 0, &b);
        prop_assert_eq!(&dst, &a);
    }

    /// `dot(a, b)` is the scalar sum of products.
    #[test]
    fn dot_matches_scalar(
        m in 1u32..=16,
        a in syms(16, 21),
        b in syms(16, 21),
    ) {
        let gf = Gf::new(m);
        let mask = ((1u32 << m) - 1) as u16;
        let a: Vec<u16> = a.iter().map(|&s| s & mask).collect();
        let b: Vec<u16> = b.iter().map(|&s| s & mask).collect();
        let expect = a
            .iter()
            .zip(&b)
            .fold(0u16, |acc, (&x, &y)| acc ^ gf.mul(x, y));
        prop_assert_eq!(gf.dot(&a, &b), expect, "m = {}", m);
    }

    /// Horner evaluation matches the naive power-sum definition, zero
    /// points and zero coefficients included.
    #[test]
    fn poly_eval_matches_power_sum(
        m in 1u32..=16,
        coeffs in syms(16, 17),
        x_raw in any::<u16>(),
    ) {
        let gf = Gf::new(m);
        let mask = ((1u32 << m) - 1) as u16;
        let coeffs: Vec<u16> = coeffs.iter().map(|&s| s & mask).collect();
        for x in [x_raw & mask, 0, 1] {
            let expect = coeffs
                .iter()
                .enumerate()
                .fold(0u16, |acc, (i, &c)| acc ^ gf.mul(c, gf.pow(x, i as u32)));
            prop_assert_eq!(gf.poly_eval(&coeffs, x), expect, "m = {}, x = {}", m, x);
        }
    }

    /// The multi-point kernel is `poly_eval` at every point, in order — in
    /// all sixteen fields (full-table and log/exp paths), for point counts on both
    /// sides of every lane width, with `x = 0`, `x = 1` and a repeated
    /// point among them, and for the empty polynomial and the empty point
    /// list.
    #[test]
    fn poly_eval_many_matches_poly_eval(
        coeffs in syms(16, 17),
        points in prop::collection::vec(any::<u16>(), 0..40),
        take in 0usize..=17,
    ) {
        for m in 1u32..=16 {
            let gf = Gf::new(m);
            let mask = ((1u32 << m) - 1) as u16;
            let coeffs: Vec<u16> = coeffs[..take].iter().map(|&s| s & mask).collect();
            let mut xs: Vec<u16> = points.iter().map(|&x| x & mask).collect();
            if let Some(&first) = xs.first() {
                xs.extend([0, 1, first]);
            }
            let expect: Vec<u16> = xs.iter().map(|&x| gf.poly_eval(&coeffs, x)).collect();
            prop_assert_eq!(gf.poly_eval_many(&coeffs, &xs), expect, "m = {}", m);
            prop_assert_eq!(gf.poly_eval_many(&coeffs, &[]), Vec::<u16>::new());
        }
    }

    /// Scalar zero-operand identities hold in every field: the branchless
    /// table/sentinel paths agree with the mathematical definition.
    #[test]
    fn zero_operand_identities(m in 1u32..=16, s_raw in any::<u16>()) {
        let gf = Gf::new(m);
        let mask = ((1u32 << m) - 1) as u16;
        let s = s_raw & mask;
        prop_assert_eq!(gf.mul(0, s), 0);
        prop_assert_eq!(gf.mul(s, 0), 0);
        prop_assert_eq!(gf.mul(1, s), s);
        prop_assert_eq!(gf.pow(s, 0), 1);
        if s != 0 {
            prop_assert_eq!(gf.mul(s, gf.inv(s).unwrap()), 1);
        }
    }
}

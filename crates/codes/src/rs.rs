//! Systematic Reed–Solomon codes with errors-and-erasures decoding.
//!
//! The resilient super-message routing scheme (Theorem 4.1) encodes every
//! super-message with a constant-rate, constant-distance code and scatters
//! one codeword symbol per node. Positions suppressed by the
//! `InLoad`/`OutLoad` = 1 filters are *known* to the receiver and are treated
//! as erasures, which doubles their correction efficiency: the decoder
//! corrects any pattern of `e` errors and `f` erasures with `2e + f < n-k+1`.

use crate::error::CodeError;
use crate::gf::Gf;
use crate::traits::SymbolCode;

/// A systematic Reed–Solomon code `[n, k]` over GF(2^m).
///
/// The codeword layout is *message first*: symbols `0..k` are the message,
/// symbols `k..n` are parity. Decoding is Berlekamp–Massey with the
/// Forney-style erasure initialization, correcting `e` errors plus `f`
/// erasures whenever `2e + f ≤ n - k`.
///
/// # Examples
///
/// ```
/// use bdclique_codes::{ReedSolomon, SymbolCode};
///
/// let rs = ReedSolomon::new(8, 16, 8).unwrap();
/// let msg: Vec<u16> = (0..8).collect();
/// let mut cw = rs.encode(&msg).unwrap();
/// cw[0] ^= 0xff; // error
/// cw[5] ^= 0x0f; // error
/// let erasures = vec![false; 16];
/// assert_eq!(rs.decode(&cw, &erasures).unwrap(), msg);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: Gf,
    n: usize,
    k: usize,
    /// The generator polynomial `g(x) = ∏_{j=1}^{n−k} (x − α^j)` without its
    /// (monic) leading term — the LFSR feedback taps used by the systematic
    /// encoder.
    gen_taps: Vec<u16>,
    /// `alpha^1 ..= alpha^(n−k)`, the points the syndromes are evaluated at.
    syndrome_points: Vec<u16>,
}

impl ReedSolomon {
    /// Builds an `[n, k]` Reed–Solomon code over GF(2^m).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LengthMismatch`] when `k == 0`, `k >= n`, or
    /// `n > 2^m - 1` (the maximum Reed–Solomon length for the field).
    pub fn new(m: u32, n: usize, k: usize) -> Result<Self, CodeError> {
        let gf = Gf::new(m);
        if k == 0 || k >= n || n > gf.order() as usize {
            return Err(CodeError::LengthMismatch {
                expected: gf.order() as usize,
                actual: n,
            });
        }
        // g(x) = prod_{j=1}^{n-k} (x - alpha^j)
        let mut generator = vec![1u16];
        for j in 1..=(n - k) as u32 {
            generator = gf.poly_mul(&generator, &[gf.alpha_pow(j), 1]);
        }
        let gen_taps = generator[..n - k].to_vec();
        let syndrome_points = (1..=(n - k) as u32).map(|j| gf.alpha_pow(j)).collect();
        Ok(Self {
            gf,
            n,
            k,
            gen_taps,
            syndrome_points,
        })
    }

    /// The underlying field.
    pub fn field(&self) -> &Gf {
        &self.gf
    }

    /// Chien search: the positions `i ∈ 0..n`, ascending, whose inverse
    /// locator `X_i^{-1} = alpha^{-i}` is a root of `lambda`.
    /// Incremental stepping: term d holds lambda_d·alpha^{-d·i}; moving
    /// i → i+1 multiplies term d by the fixed factor alpha^{-d}, so each
    /// position costs deg(lambda) products and one xor-fold — no
    /// per-position inversion or Horner call.
    fn chien_search(&self, lambda: &[u16]) -> Vec<usize> {
        let gf = &self.gf;
        let mut positions = Vec::with_capacity(lambda.len() - 1);
        let mut terms: Vec<u16> = lambda.to_vec();
        let steps: Vec<u16> = (0..lambda.len() as u32)
            .map(|d| gf.inv(gf.alpha_pow(d)).expect("alpha powers are nonzero"))
            .collect();
        if let Some((table, shift)) = gf.full_mul_table() {
            // m ≤ 8: one hoisted table row per step factor — the inner
            // update is a pure lookup chain.
            let rows: Vec<&[u16]> = steps
                .iter()
                .map(|&s| &table[(s as usize) << shift..])
                .collect();
            for i in 0..self.n {
                if terms.iter().fold(0u16, |acc, &t| acc ^ t) == 0 {
                    positions.push(i);
                }
                for (t, row) in terms.iter_mut().zip(&rows).skip(1) {
                    *t = row[*t as usize];
                }
            }
        } else {
            for i in 0..self.n {
                if terms.iter().fold(0u16, |acc, &t| acc ^ t) == 0 {
                    positions.push(i);
                }
                for (t, &s) in terms.iter_mut().zip(&steps).skip(1) {
                    *t = gf.mul(*t, s);
                }
            }
        }
        positions
    }

    /// Decodes and also reports which positions were corrected.
    ///
    /// Returns `(message, corrected_positions)`.
    ///
    /// The stages, and the [`Gf`] kernel each runs on — none of them a serial
    /// chain of dependent table loads:
    ///
    /// 1. **Syndromes** `S_j = word(alpha^j)`, erased symbols zeroed: all
    ///    `2t` Horner chains together, [`Gf::poly_eval_many`]. All zero ends
    ///    the decode.
    /// 2. **Locator**: the erasure locator `Gamma`, then Berlekamp–Massey
    ///    from it over the remaining `2t − f` syndromes.
    /// 3. **Roots**: if no discrepancy ever updated the locator it is still
    ///    `Gamma`, which the decoder built as `∏ (1 + X_i x)` over the
    ///    erased positions — its roots *are* the erasure list and nothing
    ///    is searched; that is every word whose only damage is known
    ///    erasures. Otherwise a Chien search over all `n` positions, whose
    ///    root count must equal the locator's degree.
    /// 4. **Magnitudes** (Forney): `Omega` and `lambda'` at all `ν` roots,
    ///    one [`Gf::poly_eval_many`] pass each.
    /// 5. **Checks**, on every path whichever way the roots were found: the
    ///    corrections' own syndromes — power sums of a sparse word, straight
    ///    off the exp table — must equal the received word's in all `2t`
    ///    places, i.e. the corrected word is a codeword; and the
    ///    corrections that landed on non-erased positions must satisfy
    ///    `2e + f ≤ 2t`. A word past the radius therefore fails or decodes
    ///    to a codeword within the budget of the received word — never to
    ///    anything else.
    ///
    /// # Errors
    ///
    /// Same as [`SymbolCode::decode`].
    pub fn decode_detailed(
        &self,
        received: &[u16],
        erasures: &[bool],
    ) -> Result<(Vec<u16>, Vec<usize>), CodeError> {
        if received.len() != self.n {
            return Err(CodeError::LengthMismatch {
                expected: self.n,
                actual: received.len(),
            });
        }
        if erasures.len() != self.n {
            return Err(CodeError::LengthMismatch {
                expected: self.n,
                actual: erasures.len(),
            });
        }
        if received.iter().fold(0u16, |acc, &s| acc | s) as u32 >= self.gf.size() {
            let &value = received
                .iter()
                .find(|&&s| s as u32 >= self.gf.size())
                .expect("fold saw an out-of-range bit");
            return Err(CodeError::SymbolOutOfRange {
                value,
                alphabet: self.gf.size(),
            });
        }
        let gf = &self.gf;
        let two_t = self.n - self.k;

        // Convert the public (message-first) layout into coefficient order:
        // the codeword polynomial has parity in coefficients 0..two_t and
        // the message in coefficients two_t..n. Position i then has locator
        // X_i = alpha^i.
        let to_coeff = |pub_pos: usize| {
            if pub_pos < self.k {
                pub_pos + two_t
            } else {
                pub_pos - self.k
            }
        };
        let to_public = |coeff_pos: usize| {
            if coeff_pos < two_t {
                coeff_pos + self.k
            } else {
                coeff_pos - two_t
            }
        };
        let mut word = vec![0u16; self.n];
        let mut eras_coeff = vec![false; self.n];
        for (pub_pos, &sym) in received.iter().enumerate() {
            word[to_coeff(pub_pos)] = sym;
            eras_coeff[to_coeff(pub_pos)] = erasures[pub_pos];
        }
        let erased: Vec<usize> = (0..self.n).filter(|&i| eras_coeff[i]).collect();
        let f = erased.len();
        if f > two_t {
            return Err(CodeError::TooManyErrors {
                context: "more erasures than parity symbols",
            });
        }
        for &i in &erased {
            word[i] = 0;
        }

        // S_j = word(alpha^j) for j = 1..=n-k; stored 0-indexed.
        let synd = gf.poly_eval_many(&word, &self.syndrome_points);
        if synd.iter().all(|&s| s == 0) {
            // Already a codeword (erasure corrections are all zero).
            return Ok((word[two_t..].to_vec(), vec![]));
        }

        // Erasure locator Gamma(x) = prod (1 - X_i x); char 2 => (1 + X_i x).
        let mut lambda = vec![0u16; two_t + 2];
        lambda[0] = 1;
        let mut deg_lambda = 0usize;
        for &pos in &erased {
            let x_i = gf.alpha_pow(pos as u32);
            // lambda *= (1 + X_i x)
            for d in (0..=deg_lambda).rev() {
                let add = gf.mul(lambda[d], x_i);
                lambda[d + 1] ^= add;
            }
            deg_lambda += 1;
        }

        // Berlekamp–Massey with erasure initialization.
        let mut b = lambda.clone();
        let mut el = f;
        let mut lambda_is_gamma = true;
        for r in (f + 1)..=two_t {
            // discrepancy = sum_i lambda[i] * S_{r-i} (S is 1-indexed).
            let mut discr = 0u16;
            for i in 0..=deg_lambda.min(r - 1) {
                discr ^= gf.mul(lambda[i], synd[r - 1 - i]);
            }
            if discr == 0 {
                // b *= x
                b.rotate_right(1);
                b[0] = 0;
            } else {
                // T = lambda - discr * x * b
                lambda_is_gamma = false;
                let mut t = lambda.clone();
                let blen = b.len() - 1;
                gf.axpy(&mut t[1..], discr, &b[..blen]);
                if 2 * el < r + f {
                    el = r + f - el;
                    let dinv = gf.inv(discr).expect("nonzero discrepancy");
                    b = lambda.clone();
                    gf.mul_slice(&mut b, dinv);
                    lambda = t;
                } else {
                    lambda = t;
                    b.rotate_right(1);
                    b[0] = 0;
                }
                deg_lambda = lambda.iter().rposition(|&c| c != 0).unwrap_or(0);
            }
        }

        let nu = deg_lambda;
        if nu > two_t {
            return Err(CodeError::TooManyErrors {
                context: "locator degree exceeds parity budget",
            });
        }

        // The roots of lambda among {X_i^{-1}} for i in 0..n, ascending in i.
        let positions = if lambda_is_gamma {
            // No discrepancy ever updated the locator: it is still Gamma,
            // whose roots are the erased positions by construction.
            erased.clone()
        } else {
            self.chien_search(&lambda[..=nu])
        };
        if positions.len() != nu {
            return Err(CodeError::TooManyErrors {
                context: "locator roots do not match degree",
            });
        }

        // Omega(x) = S(x) * lambda(x) mod x^{2t}, with S(x) = sum S_j x^{j-1}.
        let mut omega = vec![0u16; two_t];
        for (i, &li) in lambda.iter().enumerate().take(nu + 1).take(two_t) {
            if li == 0 {
                continue;
            }
            gf.axpy(&mut omega[i..], li, &synd[..two_t - i]);
        }
        let lambda_deriv = gf.poly_derivative(&lambda[..=nu]);

        // Forney: e_i = Omega(X_i^{-1}) / lambda'(X_i^{-1}), both sums at
        // all nu roots in one multi-point pass each.
        let x_invs: Vec<u16> = positions
            .iter()
            .map(|&pos| gf.inv(gf.alpha_pow(pos as u32)).expect("nonzero"))
            .collect();
        let nums = gf.poly_eval_many(&omega, &x_invs);
        let dens = gf.poly_eval_many(&lambda_deriv, &x_invs);
        let mut corrected = Vec::new();
        let mut magnitudes = Vec::new();
        let mut locators = Vec::new();
        for ((&pos, &num), &den) in positions.iter().zip(&nums).zip(&dens) {
            let Some(e) = gf.div(num, den) else {
                return Err(CodeError::TooManyErrors {
                    context: "Forney denominator vanished",
                });
            };
            if e != 0 {
                word[pos] ^= e;
                corrected.push(pos);
                magnitudes.push(e);
                locators.push(gf.alpha_pow(pos as u32));
            }
        }

        // Verify: the corrected word must be a codeword and the number of
        // non-erasure corrections must be within capacity. Syndromes are
        // linear, so instead of a second full pass over the word, the
        // applied corrections must reproduce the original syndromes exactly:
        // S_j = sum over corrections of e·alpha^{j·pos}.
        if gf.power_sums(&magnitudes, &locators, two_t) != synd {
            return Err(CodeError::TooManyErrors {
                context: "post-correction syndromes nonzero",
            });
        }
        let genuine_errors = corrected.iter().filter(|p| !eras_coeff[**p]).count();
        if 2 * genuine_errors + f > two_t {
            return Err(CodeError::TooManyErrors {
                context: "corrections exceed 2e+f budget",
            });
        }
        let corrected_public = corrected.into_iter().map(to_public).collect();
        Ok((word[two_t..].to_vec(), corrected_public))
    }
}

impl SymbolCode for ReedSolomon {
    fn message_len(&self) -> usize {
        self.k
    }

    fn codeword_len(&self) -> usize {
        self.n
    }

    fn symbol_bits(&self) -> u32 {
        self.gf.m()
    }

    fn distance(&self) -> usize {
        self.n - self.k + 1
    }

    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError> {
        if msg.len() != self.k {
            return Err(CodeError::LengthMismatch {
                expected: self.k,
                actual: msg.len(),
            });
        }
        // OR-fold range check: one vectorizable pass, offender located only
        // on the (cold) error path.
        if msg.iter().fold(0u16, |acc, &s| acc | s) as u32 >= self.gf.size() {
            let &value = msg
                .iter()
                .find(|&&s| s as u32 >= self.gf.size())
                .expect("fold saw an out-of-range bit");
            return Err(CodeError::SymbolOutOfRange {
                value,
                alphabet: self.gf.size(),
            });
        }
        // Codeword polynomial layout: low coefficients 0..n-k are parity
        // (= m(x)·x^{n-k} mod g), coefficients n-k..n are the message
        // (systematic). Run the division as an LFSR over the generator's
        // feedback taps — one shift plus one axpy per message symbol, no
        // intermediate polynomial allocations.
        let two_t = self.n - self.k;
        let mut parity = vec![0u16; two_t];
        if let Some((table, shift)) = self.gf.full_mul_table() {
            // m ≤ 8: the feedback products are one table row per symbol;
            // fuse the shift and the tap xor into a single backward sweep.
            for &sym in msg.iter().rev() {
                let fb = (sym ^ parity[two_t - 1]) as usize;
                let row = &table[fb << shift..];
                for i in (1..two_t).rev() {
                    parity[i] = parity[i - 1] ^ row[self.gen_taps[i] as usize];
                }
                parity[0] = row[self.gen_taps[0] as usize];
            }
        } else {
            for &sym in msg.iter().rev() {
                let fb = sym ^ parity[two_t - 1];
                parity.copy_within(..two_t - 1, 1);
                parity[0] = 0;
                self.gf.axpy(&mut parity, fb, &self.gen_taps);
            }
        }
        // Present message-first, parity in coefficient order.
        let mut out = Vec::with_capacity(self.n);
        out.extend_from_slice(msg);
        out.extend_from_slice(&parity);
        Ok(out)
    }

    fn decode(&self, received: &[u16], erasures: &[bool]) -> Result<Vec<u16>, CodeError> {
        self.decode_detailed(received, erasures).map(|(msg, _)| msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn roundtrip_case(m: u32, n: usize, k: usize, errors: &[usize], erasures: &[usize]) {
        let rs = ReedSolomon::new(m, n, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64((m as u64) << 32 | (n as u64) << 16 | k as u64);
        let msg: Vec<u16> = (0..k)
            .map(|_| rng.gen_range(0..rs.field().size()) as u16)
            .collect();
        let cw = rs.encode(&msg).unwrap();
        let mut recv = cw.clone();
        let mut eras = vec![false; n];
        for &p in errors {
            let mut delta = 0;
            while delta == 0 {
                delta = rng.gen_range(1..rs.field().size()) as u16;
            }
            recv[p] ^= delta;
        }
        for &p in erasures {
            eras[p] = true;
            recv[p] = rng.gen_range(0..rs.field().size()) as u16; // garbage
        }
        let decoded = rs
            .decode(&recv, &eras)
            .unwrap_or_else(|e| panic!("decode failed for e={errors:?}, f={erasures:?}: {e}"));
        assert_eq!(decoded, msg, "e={errors:?}, f={erasures:?}");
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(8, 12, 5).unwrap();
        let msg = vec![10, 20, 30, 40, 50];
        let cw = rs.encode(&msg).unwrap();
        assert_eq!(&cw[..5], msg.as_slice());
        assert_eq!(cw.len(), 12);
    }

    #[test]
    fn clean_word_decodes() {
        roundtrip_case(8, 20, 10, &[], &[]);
    }

    #[test]
    fn corrects_up_to_capacity_errors() {
        // [16, 8]: t = 4.
        roundtrip_case(8, 16, 8, &[0], &[]);
        roundtrip_case(8, 16, 8, &[0, 15], &[]);
        roundtrip_case(8, 16, 8, &[1, 7, 9], &[]);
        roundtrip_case(8, 16, 8, &[0, 3, 8, 12], &[]);
    }

    #[test]
    fn corrects_erasures_only() {
        // [16, 8]: up to 8 erasures.
        roundtrip_case(8, 16, 8, &[], &[0, 1, 2, 3, 4, 5, 6, 7]);
        roundtrip_case(8, 16, 8, &[], &[9]);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        // 2e + f <= 8.
        roundtrip_case(8, 16, 8, &[0], &[5, 6, 7, 8, 9, 10]); // 2+6=8
        roundtrip_case(8, 16, 8, &[2, 11], &[4, 5, 6, 7]); // 4+4=8
        roundtrip_case(8, 16, 8, &[1, 6, 13], &[0, 15]); // 6+2=8
    }

    #[test]
    fn exhaustive_small_code_budget_sweep() {
        // RS[15, 5] over GF(16): 2e + f <= 10.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for e in 0..=5usize {
            for f in 0..=(10 - 2 * e) {
                for _ in 0..20 {
                    let mut positions: Vec<usize> = (0..15).collect();
                    for i in (1..positions.len()).rev() {
                        positions.swap(i, rng.gen_range(0..=i));
                    }
                    let errs: Vec<usize> = positions[..e].to_vec();
                    let ers: Vec<usize> = positions[e..e + f].to_vec();
                    roundtrip_case(4, 15, 5, &errs, &ers);
                }
            }
        }
    }

    #[test]
    fn beyond_capacity_is_detected_or_wrong_but_flagged() {
        let rs = ReedSolomon::new(8, 16, 8).unwrap();
        let msg: Vec<u16> = (0..8).collect();
        let cw = rs.encode(&msg).unwrap();
        let mut recv = cw.clone();
        for r in &mut recv[..6] {
            *r ^= 0x33; // 6 errors > t = 4
        }
        let eras = vec![false; 16];
        match rs.decode(&recv, &eras) {
            // Either an explicit failure…
            Err(CodeError::TooManyErrors { .. }) => {}
            // …or a miscorrection to a *valid* codeword (unavoidable for any
            // bounded-distance decoder); it must differ from the original.
            Ok(m) => assert_ne!(m, msg),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(4, 16, 4).is_err()); // n > 2^4 - 1
        assert!(ReedSolomon::new(8, 10, 10).is_err()); // k == n
        assert!(ReedSolomon::new(8, 10, 0).is_err());
    }

    #[test]
    fn decode_detailed_reports_positions() {
        let rs = ReedSolomon::new(8, 16, 8).unwrap();
        let msg: Vec<u16> = (10..18).collect();
        let cw = rs.encode(&msg).unwrap();
        let mut recv = cw.clone();
        recv[3] ^= 1;
        recv[12] ^= 7;
        let (m, pos) = rs.decode_detailed(&recv, &[false; 16]).unwrap();
        assert_eq!(m, msg);
        let mut pos = pos;
        pos.sort_unstable();
        assert_eq!(pos, vec![3, 12]);
    }

    #[test]
    fn large_field_large_block() {
        // [255, 191] over GF(256): t = 32.
        let rs = ReedSolomon::new(8, 255, 191).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let msg: Vec<u16> = (0..191).map(|_| rng.gen_range(0..256)).collect();
        let cw = rs.encode(&msg).unwrap();
        let mut recv = cw.clone();
        for p in (0..255).step_by(8).take(32) {
            recv[p] ^= 0x5a;
        }
        assert_eq!(rs.decode(&recv, &vec![false; 255]).unwrap(), msg);
    }
}

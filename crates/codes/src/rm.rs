//! Bivariate Reed–Muller locally decodable code with line queries.
//!
//! This is the production LDC standing in for the
//! Kopparty–Meir–Ron-Zewi–Saraf code of Lemma 2.2: that code's
//! subpolynomial query count only pays off asymptotically, while the
//! compiler needs nothing but a non-adaptive `(q, δ, ε)`-LDC, which
//! Reed–Muller line queries give at simulation scale. The message is interpreted as the evaluations of a
//! bivariate polynomial `f` of total degree ≤ `d` on the *principal lattice*
//! `{(x_i, y_j) : i + j ≤ d}`; the codeword is the evaluation of `f` on the
//! whole plane GF(q)². Decoding position `p` queries the `q` points of
//! `lines` random lines through `p` and Berlekamp–Welch-decodes each
//! restricted univariate polynomial, then majority-votes `f(p)`.
//!
//! Properties (for field size `q = 2^m`, degree `d`):
//!
//! * message length `(d+1)(d+2)/2` symbols, codeword length `q²` symbols,
//! * relative distance `1 - d/q` (Schwartz–Zippel),
//! * query complexity `lines · q`, non-adaptive,
//! * each line tolerates `⌊(q - d - 1)/2⌋` corrupted points; the majority
//!   over `lines` lines amplifies the success probability exactly as the
//!   paper's `LDCDecode` requires.

use crate::error::CodeError;
use crate::gf::Gf;
use crate::ldc::Ldc;
use crate::linalg::{berlekamp_welch, invert_matrix};
use bdclique_hash::SharedRandomness;

/// Bivariate Reed–Muller LDC over GF(2^m).
///
/// # Examples
///
/// ```
/// use bdclique_codes::{RmLdc, Ldc};
/// use bdclique_hash::SharedRandomness;
/// use bdclique_bits::BitVec;
///
/// let ldc = RmLdc::new(4, 5, 3).unwrap(); // GF(16), degree 5, 3 lines
/// let msg: Vec<u16> = (0..ldc.message_len() as u16).map(|i| i % 16).collect();
/// let cw = ldc.encode(&msg).unwrap();
/// let shared = SharedRandomness::from_bits(&BitVec::zeros(64));
/// let qs = ldc.decode_indices(7, &shared);
/// let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
/// assert_eq!(ldc.local_decode(7, &answers, &shared).unwrap(), msg[7]);
/// ```
#[derive(Debug, Clone)]
pub struct RmLdc {
    gf: Gf,
    q: usize,
    d: usize,
    lines: usize,
    /// Grid points (x, y) with x + y ≤ d (as integer indices into the field).
    grid: Vec<(u16, u16)>,
    /// Maps grid values to polynomial coefficients: `coeffs = basis_inv · values`.
    basis_inv: Vec<Vec<u16>>,
    /// Monomial exponents aligned with coefficient order.
    monomials: Vec<(u32, u32)>,
}

impl RmLdc {
    /// Builds a bivariate Reed–Muller LDC over GF(2^m) with total degree `d`
    /// and `lines`-fold line amplification.
    ///
    /// # Errors
    ///
    /// Rejects `d + 1 > q` (no distance left), `lines == 0`, and degenerate
    /// parameter combinations where unique line decoding is impossible
    /// (`q < d + 1`).
    pub fn new(m: u32, d: usize, lines: usize) -> Result<Self, CodeError> {
        let gf = Gf::new(m);
        let q = gf.size() as usize;
        if d + 1 >= q || lines == 0 {
            return Err(CodeError::LengthMismatch {
                expected: q - 1,
                actual: d + 1,
            });
        }
        let mut grid = Vec::new();
        let mut monomials = Vec::new();
        for a in 0..=d {
            for b in 0..=(d - a) {
                grid.push((a as u16, b as u16));
                monomials.push((a as u32, b as u32));
            }
        }
        let k = grid.len();
        // Evaluation matrix of the monomial basis on the grid.
        let matrix: Vec<Vec<u16>> = grid
            .iter()
            .map(|&(x, y)| {
                monomials
                    .iter()
                    .map(|&(a, b)| gf.mul(gf.pow(x, a), gf.pow(y, b)))
                    .collect()
            })
            .collect();
        let basis_inv = invert_matrix(&gf, &matrix).ok_or(CodeError::TooManyErrors {
            context: "principal lattice not unisolvent (internal)",
        })?;
        debug_assert_eq!(basis_inv.len(), k);
        Ok(Self {
            gf,
            q,
            d,
            lines,
            grid,
            basis_inv,
            monomials,
        })
    }

    /// The field size `q = 2^m`.
    pub fn field_size(&self) -> usize {
        self.q
    }

    /// The polynomial degree bound `d`.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// Number of errors a single line decode tolerates.
    pub fn line_error_capacity(&self) -> usize {
        (self.q - self.d - 1) / 2
    }

    fn position(&self, x: u16, y: u16) -> usize {
        x as usize * self.q + y as usize
    }

    /// The `lines` random directions used to decode `index` (deterministic
    /// in `(index, shared)` — the non-adaptivity of Definition 4).
    fn directions(&self, index: usize, shared: &SharedRandomness) -> Vec<(u16, u16)> {
        let samples = shared.uniform_samples(
            &format!("rmldc/{index}"),
            self.lines,
            (self.q * self.q - 1) as u64,
        );
        samples
            .into_iter()
            .map(|s| {
                let s = s as usize + 1; // skip (0,0)
                ((s / self.q) as u16, (s % self.q) as u16)
            })
            .collect()
    }
}

impl Ldc for RmLdc {
    fn message_len(&self) -> usize {
        self.grid.len()
    }

    fn codeword_len(&self) -> usize {
        self.q * self.q
    }

    fn symbol_bits(&self) -> u32 {
        self.gf.m()
    }

    fn query_count(&self) -> usize {
        self.lines * self.q
    }

    fn tolerated_fraction(&self) -> f64 {
        // A random line point is uniform over the plane, so a δ-corrupted
        // codeword yields ~δq corrupted points per line; line decoding
        // absorbs (q-d-1)/2 of them. Conservative design threshold:
        (self.line_error_capacity() as f64 / self.q as f64) / 2.0
    }

    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError> {
        let k = self.grid.len();
        if msg.len() != k {
            return Err(CodeError::LengthMismatch {
                expected: k,
                actual: msg.len(),
            });
        }
        for &s in msg {
            if s as u32 >= self.gf.size() {
                return Err(CodeError::SymbolOutOfRange {
                    value: s,
                    alphabet: self.gf.size(),
                });
            }
        }
        // coeffs = basis_inv · msg
        let coeffs: Vec<u16> = self
            .basis_inv
            .iter()
            .map(|row| self.gf.dot(row, msg))
            .collect();
        // Evaluate everywhere: for each x, collapse to a univariate poly in y.
        let mut out = vec![0u16; self.codeword_len()];
        let mut xpow = vec![0u16; self.d + 1];
        for xi in 0..self.q as u16 {
            // Powers of xi up to the degree bound, one table mul each.
            xpow[0] = 1;
            for a in 1..=self.d {
                xpow[a] = self.gf.mul(xpow[a - 1], xi);
            }
            // g_b(x) = sum_a coeff_{a,b} x^a for each y-degree b.
            let mut uni = vec![0u16; self.d + 1];
            for ((a, b), &c) in self.monomials.iter().zip(&coeffs) {
                uni[*b as usize] ^= self.gf.mul(c, xpow[*a as usize]);
            }
            for yi in 0..self.q as u16 {
                out[self.position(xi, yi)] = self.gf.poly_eval(&uni, yi);
            }
        }
        Ok(out)
    }

    fn decode_indices(&self, index: usize, shared: &SharedRandomness) -> Vec<usize> {
        assert!(
            index < self.grid.len(),
            "message index {index} out of range {}",
            self.grid.len()
        );
        let (px, py) = self.grid[index];
        let mut out = Vec::with_capacity(self.query_count());
        for (dx, dy) in self.directions(index, shared) {
            for t in 0..self.q as u16 {
                let x = self.gf.add(px, self.gf.mul(t, dx));
                let y = self.gf.add(py, self.gf.mul(t, dy));
                out.push(self.position(x, y));
            }
        }
        out
    }

    fn local_decode(
        &self,
        index: usize,
        answers: &[u16],
        _shared: &SharedRandomness,
    ) -> Result<u16, CodeError> {
        if answers.len() != self.query_count() {
            return Err(CodeError::LengthMismatch {
                expected: self.query_count(),
                actual: answers.len(),
            });
        }
        let ts: Vec<u16> = (0..self.q as u16).collect();
        let e_max = self.line_error_capacity();
        let mut votes: Vec<(u16, usize)> = Vec::new();
        for line in 0..self.lines {
            let ys = &answers[line * self.q..(line + 1) * self.q];
            if let Some(g) = berlekamp_welch(&self.gf, &ts, ys, self.d, e_max) {
                // f(p) = g(0) = constant coefficient.
                let v = g[0];
                match votes.iter_mut().find(|(val, _)| *val == v) {
                    Some((_, c)) => *c += 1,
                    None => votes.push((v, 1)),
                }
            }
        }
        let _ = index;
        votes.sort_by_key(|v| std::cmp::Reverse(v.1));
        match votes.first() {
            Some(&(v, c)) if 2 * c > self.lines => Ok(v),
            Some(_) => Err(CodeError::NoMajority),
            None => Err(CodeError::TooManyErrors {
                context: "all line decodings failed",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_bits::BitVec;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn shared(tag: u64) -> SharedRandomness {
        let mut rng = ChaCha8Rng::seed_from_u64(tag);
        SharedRandomness::from_bits(&SharedRandomness::generate(&mut rng))
    }

    fn sample_msg(ldc: &RmLdc, seed: u64) -> Vec<u16> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..ldc.message_len())
            .map(|_| rng.gen_range(0..ldc.field_size()) as u16)
            .collect()
    }

    #[test]
    fn parameters_line_up() {
        let ldc = RmLdc::new(4, 5, 3).unwrap();
        assert_eq!(ldc.field_size(), 16);
        assert_eq!(ldc.message_len(), 21); // (5+1)(5+2)/2
        assert_eq!(ldc.codeword_len(), 256);
        assert_eq!(ldc.query_count(), 48);
        assert_eq!(ldc.line_error_capacity(), 5);
    }

    #[test]
    fn encoding_is_systematic_on_the_grid() {
        // Codeword restricted to grid positions equals the message.
        let ldc = RmLdc::new(4, 4, 1).unwrap();
        let msg = sample_msg(&ldc, 1);
        let cw = ldc.encode(&msg).unwrap();
        for (i, &(x, y)) in ldc.grid.iter().enumerate() {
            assert_eq!(cw[ldc.position(x, y)], msg[i], "grid point {i}");
        }
    }

    #[test]
    fn clean_local_decoding_recovers_every_index() {
        let ldc = RmLdc::new(4, 5, 3).unwrap();
        let msg = sample_msg(&ldc, 2);
        let cw = ldc.encode(&msg).unwrap();
        let sh = shared(1);
        for (i, &want) in msg.iter().enumerate() {
            let qs = ldc.decode_indices(i, &sh);
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            assert_eq!(
                ldc.local_decode(i, &answers, &sh).unwrap(),
                want,
                "index {i}"
            );
        }
    }

    #[test]
    fn survives_random_corruption_below_threshold() {
        let ldc = RmLdc::new(4, 5, 5).unwrap();
        let msg = sample_msg(&ldc, 3);
        let mut cw = ldc.encode(&msg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = cw.len();
        // 8% corruption (threshold fraction is ~15%).
        for _ in 0..(n * 8 / 100) {
            let p = rng.gen_range(0..n);
            cw[p] = rng.gen_range(0..16);
        }
        let sh = shared(2);
        let mut ok = 0;
        for (i, &want) in msg.iter().enumerate() {
            let qs = ldc.decode_indices(i, &sh);
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            if ldc.local_decode(i, &answers, &sh) == Ok(want) {
                ok += 1;
            }
        }
        assert!(
            ok * 10 >= ldc.message_len() * 9,
            "only {ok}/{} indices decoded",
            ldc.message_len()
        );
    }

    #[test]
    fn survives_adversarial_row_wipe() {
        // Corrupt entire rows of the plane (a "concentrated" adversary):
        // random lines still mostly avoid them.
        let ldc = RmLdc::new(4, 3, 5).unwrap();
        let msg = sample_msg(&ldc, 5);
        let mut cw = ldc.encode(&msg).unwrap();
        let q = ldc.field_size();
        for x in [13usize, 14] {
            for y in 0..q {
                cw[x * q + y] ^= 0xf; // wipe two full rows (12.5% of the word)
            }
        }
        let sh = shared(3);
        let mut ok = 0;
        for (i, &want) in msg.iter().enumerate() {
            let qs = ldc.decode_indices(i, &sh);
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            if ldc.local_decode(i, &answers, &sh) == Ok(want) {
                ok += 1;
            }
        }
        assert!(
            ok * 10 >= ldc.message_len() * 9,
            "only {ok}/{} indices decoded",
            ldc.message_len()
        );
    }

    #[test]
    fn nonadaptive_queries_are_reproducible() {
        let ldc = RmLdc::new(3, 2, 2).unwrap();
        let sh = shared(6);
        assert_eq!(ldc.decode_indices(0, &sh), ldc.decode_indices(0, &sh));
        let wire = BitVec::from_fn(128, |i| i % 5 == 0);
        let a = SharedRandomness::from_bits(&wire);
        let b = SharedRandomness::from_bits(&wire);
        assert_eq!(ldc.decode_indices(3, &a), ldc.decode_indices(3, &b));
    }

    #[test]
    fn distance_soundness_spot_check() {
        // Two different messages must yield codewords at relative distance
        // >= 1 - d/q.
        let ldc = RmLdc::new(4, 3, 1).unwrap();
        let m1 = sample_msg(&ldc, 10);
        let mut m2 = m1.clone();
        m2[0] ^= 1;
        let c1 = ldc.encode(&m1).unwrap();
        let c2 = ldc.encode(&m2).unwrap();
        let diff = c1.iter().zip(&c2).filter(|(a, b)| a != b).count();
        let min = ldc.codeword_len() - ldc.degree() * ldc.field_size();
        assert!(diff >= min, "distance {diff} < {min}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(RmLdc::new(3, 7, 1).is_err()); // d+1 >= q
        assert!(RmLdc::new(4, 3, 0).is_err()); // no lines
    }

    #[test]
    fn larger_field_smoke() {
        let ldc = RmLdc::new(5, 7, 3).unwrap(); // GF(32), 1024-symbol codeword
        let msg = sample_msg(&ldc, 11);
        let cw = ldc.encode(&msg).unwrap();
        let sh = shared(7);
        for i in [0usize, 5, ldc.message_len() - 1] {
            let qs = ldc.decode_indices(i, &sh);
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            assert_eq!(ldc.local_decode(i, &answers, &sh).unwrap(), msg[i]);
        }
    }
}

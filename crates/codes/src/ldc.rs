//! Locally decodable codes: the `(q, δ, ε)`-LDC interface of Definition 4.
//!
//! The adaptive compiler (Theorem 5.5) is *parametric in the LDC*: it only
//! needs the non-adaptive `DecodeIndices(i, R)` / `LDCDecode(x, i, R)`
//! interface. This module defines that interface ([`Ldc`]) and a 2-query
//! Hadamard instantiation for unit-test scale; [`crate::RmLdc`] provides the
//! production instantiation (Reed–Muller line queries in place of the
//! paper's Kopparty–Meir–Ron-Zewi–Saraf code).

use crate::error::CodeError;
use bdclique_hash::SharedRandomness;

/// A non-adaptive locally decodable code over `symbol_bits`-bit symbols.
///
/// Mirrors Definition 4 of the paper: `decode_indices(i, R)` names the
/// positions `LDCDecode` will query for message index `i` under shared
/// randomness `R` — *without* looking at the codeword (non-adaptivity),
/// which is what lets a node fetch one set of `q` helpers and reuse them
/// across many codewords (Figure 1).
pub trait Ldc {
    /// Message length in symbols.
    fn message_len(&self) -> usize;
    /// Codeword length in symbols.
    fn codeword_len(&self) -> usize;
    /// Bits per symbol.
    fn symbol_bits(&self) -> u32;
    /// Number of queries `q` issued per decoded index.
    fn query_count(&self) -> usize;
    /// Fraction of adversarially corrupted codeword positions the local
    /// decoder is designed to tolerate (the `δ/2` of Definition 4).
    fn tolerated_fraction(&self) -> f64;

    /// Encodes a full message.
    ///
    /// # Errors
    ///
    /// Input-shape errors as in [`crate::SymbolCode::encode`].
    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError>;

    /// The codeword positions queried to decode message index `i` under
    /// shared randomness `shared` (the paper's `DecodeIndices(i, R)`).
    ///
    /// Always returns exactly [`Self::query_count`] positions; positions may
    /// repeat across (but not within) query groups.
    fn decode_indices(&self, index: usize, shared: &SharedRandomness) -> Vec<usize>;

    /// Locally decodes message index `i` from the answers to
    /// [`Self::decode_indices`] (same order), using the same randomness.
    ///
    /// # Errors
    ///
    /// [`CodeError::NoMajority`] / [`CodeError::TooManyErrors`] when the
    /// answers are too corrupted.
    fn local_decode(
        &self,
        index: usize,
        answers: &[u16],
        shared: &SharedRandomness,
    ) -> Result<u16, CodeError>;
}

/// The Hadamard code with 2-query local decoding, amplified by repetition.
///
/// Message: `k` bits; codeword: `2^k` bits, position `s` holding the inner
/// product `⟨m, s⟩`. Decoding bit `i` XORs positions `s` and `s ⊕ e_i` for a
/// random mask `s`, repeated `reps` times with majority voting. Exponential
/// length restricts it to unit-test scale (`k ≤ 20`), exactly the regime the
/// paper's Lemma 2.2 LDC is *not* needed for.
///
/// # Examples
///
/// ```
/// use bdclique_codes::{HadamardLdc, Ldc};
/// use bdclique_hash::SharedRandomness;
/// use bdclique_bits::BitVec;
///
/// let ldc = HadamardLdc::new(8, 5).unwrap();
/// let msg = vec![1, 0, 1, 1, 0, 0, 1, 0];
/// let cw = ldc.encode(&msg).unwrap();
/// let shared = SharedRandomness::from_bits(&BitVec::zeros(64));
/// let qs = ldc.decode_indices(2, &shared);
/// let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
/// assert_eq!(ldc.local_decode(2, &answers, &shared).unwrap(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HadamardLdc {
    k: usize,
    reps: usize,
}

impl HadamardLdc {
    /// Builds a Hadamard LDC for `k`-bit messages with `reps`-fold query
    /// amplification.
    ///
    /// # Errors
    ///
    /// Rejects `k == 0`, `k > 20` (codeword would exceed 2^20 bits), or
    /// `reps == 0`.
    pub fn new(k: usize, reps: usize) -> Result<Self, CodeError> {
        if k == 0 || k > 20 {
            return Err(CodeError::LengthMismatch {
                expected: 20,
                actual: k,
            });
        }
        if reps == 0 {
            return Err(CodeError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        }
        Ok(Self { k, reps })
    }
}

impl Ldc for HadamardLdc {
    fn message_len(&self) -> usize {
        self.k
    }

    fn codeword_len(&self) -> usize {
        1 << self.k
    }

    fn symbol_bits(&self) -> u32 {
        1
    }

    fn query_count(&self) -> usize {
        2 * self.reps
    }

    fn tolerated_fraction(&self) -> f64 {
        // Each query is uniform; a δ-corrupted word flips a vote with
        // probability ≤ 2δ. Majority amplification wants 2δ < 1/2.
        0.125
    }

    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError> {
        if msg.len() != self.k {
            return Err(CodeError::LengthMismatch {
                expected: self.k,
                actual: msg.len(),
            });
        }
        let mut m = 0u32;
        for (i, &b) in msg.iter().enumerate() {
            if b > 1 {
                return Err(CodeError::SymbolOutOfRange {
                    value: b,
                    alphabet: 2,
                });
            }
            m |= (b as u32) << i;
        }
        Ok((0..self.codeword_len())
            .map(|s| ((m & s as u32).count_ones() & 1) as u16)
            .collect())
    }

    fn decode_indices(&self, index: usize, shared: &SharedRandomness) -> Vec<usize> {
        assert!(
            index < self.k,
            "message index {index} out of range {}",
            self.k
        );
        let masks = shared.uniform_samples(
            &format!("hadamard/{index}"),
            self.reps,
            self.codeword_len() as u64,
        );
        let mut out = Vec::with_capacity(2 * self.reps);
        for s in masks {
            let s = s as usize;
            out.push(s);
            out.push(s ^ (1 << index));
        }
        out
    }

    fn local_decode(
        &self,
        index: usize,
        answers: &[u16],
        _shared: &SharedRandomness,
    ) -> Result<u16, CodeError> {
        if answers.len() != 2 * self.reps {
            return Err(CodeError::LengthMismatch {
                expected: 2 * self.reps,
                actual: answers.len(),
            });
        }
        let _ = index;
        let mut ones = 0usize;
        for pair in answers.chunks(2) {
            if (pair[0] ^ pair[1]) & 1 == 1 {
                ones += 1;
            }
        }
        let zeros = self.reps - ones;
        if ones == zeros {
            return Err(CodeError::NoMajority);
        }
        Ok(u16::from(ones > zeros))
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

    #[test]
    fn encode_is_linear_inner_product() {
        let ldc = HadamardLdc::new(4, 1).unwrap();
        let cw = ldc.encode(&[1, 1, 0, 0]).unwrap();
        assert_eq!(cw.len(), 16);
        assert_eq!(cw[0], 0); // <m, 0> = 0
        assert_eq!(cw[0b0011], 0); // two overlapping ones
        assert_eq!(cw[0b0001], 1);
    }

    #[test]
    fn decodes_clean_codeword() {
        let ldc = HadamardLdc::new(8, 3).unwrap();
        let msg = vec![1, 0, 0, 1, 1, 0, 1, 0];
        let cw = ldc.encode(&msg).unwrap();
        let sh = shared(1);
        for i in 0..8 {
            let qs = ldc.decode_indices(i, &sh);
            assert_eq!(qs.len(), ldc.query_count());
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            assert_eq!(ldc.local_decode(i, &answers, &sh).unwrap(), msg[i]);
        }
    }

    #[test]
    fn survives_random_corruption_below_threshold() {
        let ldc = HadamardLdc::new(10, 15).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let msg: Vec<u16> = (0..10).map(|_| rng.gen_range(0..2)).collect();
        let mut cw = ldc.encode(&msg).unwrap();
        let n = cw.len();
        for _ in 0..(n / 10) {
            let p = rng.gen_range(0..n);
            cw[p] ^= 1; // ~10% corruption
        }
        let sh = shared(2);
        let mut ok = 0;
        for i in 0..10 {
            let qs = ldc.decode_indices(i, &sh);
            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
            if ldc.local_decode(i, &answers, &sh) == Ok(msg[i]) {
                ok += 1;
            }
        }
        assert!(ok >= 9, "only {ok}/10 indices decoded");
    }

    #[test]
    fn query_positions_are_nonadaptive_and_deterministic() {
        let ldc = HadamardLdc::new(6, 4).unwrap();
        let sh = shared(3);
        assert_eq!(ldc.decode_indices(3, &sh), ldc.decode_indices(3, &sh));
        // Different shared randomness gives different queries.
        assert_ne!(
            ldc.decode_indices(3, &sh),
            ldc.decode_indices(3, &shared(4))
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(HadamardLdc::new(0, 1).is_err());
        assert!(HadamardLdc::new(21, 1).is_err());
        assert!(HadamardLdc::new(4, 0).is_err());
    }

    #[test]
    fn shared_randomness_is_bitvec_serializable() {
        // The protocol broadcasts R3 as a bit string; check the pathway.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let wire: BitVec = SharedRandomness::generate(&mut rng);
        let a = SharedRandomness::from_bits(&wire);
        let b = SharedRandomness::from_bits(&wire);
        let ldc = HadamardLdc::new(5, 2).unwrap();
        assert_eq!(ldc.decode_indices(1, &a), ldc.decode_indices(1, &b));
    }
}

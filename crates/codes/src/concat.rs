//! Justesen-style concatenated binary code: Reed–Solomon outer over
//! GF(2^8), extended-Hamming `[8,4,4]` inner.
//!
//! Lemma 2.1 of the paper invokes the Justesen code — a binary code with
//! constant rate and constant relative distance. Justesen's specific inner
//! ensemble only pays off asymptotically; this concatenation is the same
//! object class at simulation scale: rate `k_o / (2 n_o)` and design
//! distance `4 (n_o - k_o + 1)` bits.

use crate::error::CodeError;
use crate::hamming::HammingCode;
use crate::rs::ReedSolomon;
use crate::traits::SymbolCode;

/// A binary concatenated code: outer `[n_o, k_o]` Reed–Solomon over GF(2^8),
/// inner extended Hamming `[8,4,4]` applied to each nibble.
///
/// * message length: `8 k_o` bits
/// * codeword length: `16 n_o` bits
/// * decoding: per-nibble ML inner decode (ambiguity or ≥ 2 erased bits
///   escalates the outer byte to an erasure), then Reed–Solomon
///   errors-and-erasures.
///
/// # Examples
///
/// ```
/// use bdclique_codes::{ConcatenatedCode, SymbolCode};
///
/// let code = ConcatenatedCode::new(16, 8).unwrap();
/// let msg: Vec<u16> = (0..64).map(|i| (i % 2) as u16).collect();
/// let mut cw = code.encode(&msg).unwrap();
/// for i in 0..12 { cw[i * 16] ^= 1; } // scattered bit errors
/// assert_eq!(code.decode(&cw, &vec![false; cw.len()]).unwrap(), msg);
/// ```
#[derive(Debug, Clone)]
pub struct ConcatenatedCode {
    outer: ReedSolomon,
    inner: HammingCode,
    outer_n: usize,
    outer_k: usize,
}

impl ConcatenatedCode {
    /// Builds the concatenated code with outer parameters `[n_o, k_o]`.
    ///
    /// # Errors
    ///
    /// Propagates outer-code parameter validation (`k_o < n_o ≤ 255`).
    pub fn new(outer_n: usize, outer_k: usize) -> Result<Self, CodeError> {
        Ok(Self {
            outer: ReedSolomon::new(8, outer_n, outer_k)?,
            inner: HammingCode::new(),
            outer_n,
            outer_k,
        })
    }

    /// Number of bit errors guaranteed correctable when spread adversarially
    /// (each inner block needs ≥ 2 bit errors to corrupt an outer symbol,
    /// and the outer code corrects `⌊(n_o - k_o)/2⌋` symbol errors).
    pub fn guaranteed_bit_errors(&self) -> usize {
        // An outer symbol flips only if one of its two nibbles suffers >= 2
        // bit errors; e bit errors therefore corrupt at most e/2 symbols.
        (self.outer_n - self.outer_k) / 2 * 2 - 1
    }
}

impl SymbolCode for ConcatenatedCode {
    fn message_len(&self) -> usize {
        self.outer_k * 8
    }

    fn codeword_len(&self) -> usize {
        self.outer_n * 16
    }

    fn symbol_bits(&self) -> u32 {
        1
    }

    fn distance(&self) -> usize {
        (self.outer_n - self.outer_k + 1) * 4
    }

    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError> {
        if msg.len() != self.message_len() {
            return Err(CodeError::LengthMismatch {
                expected: self.message_len(),
                actual: msg.len(),
            });
        }
        // Pack bits into outer bytes, LSB-first.
        let mut bytes = vec![0u16; self.outer_k];
        for (i, &b) in msg.iter().enumerate() {
            if b > 1 {
                return Err(CodeError::SymbolOutOfRange {
                    value: b,
                    alphabet: 2,
                });
            }
            bytes[i / 8] |= b << (i % 8);
        }
        let outer_cw = self.outer.encode(&bytes)?;
        // Inner-encode each byte as two Hamming blocks (low nibble, high).
        let mut bits = Vec::with_capacity(self.codeword_len());
        for &byte in &outer_cw {
            for nib in [byte as u8 & 0xf, (byte as u8) >> 4] {
                let block = self.inner.encode_nibble(nib);
                bits.extend((0..8).map(|i| u16::from(block >> i & 1)));
            }
        }
        Ok(bits)
    }

    fn decode(&self, received: &[u16], erasures: &[bool]) -> Result<Vec<u16>, CodeError> {
        if received.len() != self.codeword_len() || erasures.len() != self.codeword_len() {
            return Err(CodeError::LengthMismatch {
                expected: self.codeword_len(),
                actual: received.len().min(erasures.len()),
            });
        }
        let mut outer_word = vec![0u16; self.outer_n];
        let mut outer_erasures = vec![false; self.outer_n];
        for sym in 0..self.outer_n {
            let mut byte = 0u16;
            let mut erased_symbol = false;
            for half in 0..2 {
                let base = sym * 16 + half * 8;
                let mut word = 0u8;
                let mut mask = 0u8;
                let mut erased_bits = 0;
                for i in 0..8 {
                    if received[base + i] > 1 {
                        return Err(CodeError::SymbolOutOfRange {
                            value: received[base + i],
                            alphabet: 2,
                        });
                    }
                    word |= (received[base + i] as u8) << i;
                    if erasures[base + i] {
                        mask |= 1 << i;
                        erased_bits += 1;
                    }
                }
                if erased_bits >= 4 {
                    erased_symbol = true;
                    continue;
                }
                let (nibble, ambiguous) = self.inner.decode_nibble(word, mask);
                if ambiguous {
                    erased_symbol = true;
                } else {
                    byte |= (nibble as u16) << (half * 4);
                }
            }
            outer_word[sym] = byte;
            outer_erasures[sym] = erased_symbol;
        }
        let bytes = self.outer.decode(&outer_word, &outer_erasures)?;
        Ok((0..self.message_len())
            .map(|i| bytes[i / 8] >> (i % 8) & 1)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sample_msg(code: &ConcatenatedCode, seed: u64) -> Vec<u16> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..code.message_len())
            .map(|_| rng.gen_range(0..2u16))
            .collect()
    }

    #[test]
    fn parameters() {
        let code = ConcatenatedCode::new(32, 16).unwrap();
        assert_eq!(code.message_len(), 128);
        assert_eq!(code.codeword_len(), 512);
        assert!((code.rate() - 0.25).abs() < 1e-9);
        assert_eq!(code.distance(), 17 * 4);
    }

    #[test]
    fn clean_roundtrip() {
        let code = ConcatenatedCode::new(16, 8).unwrap();
        let msg = sample_msg(&code, 1);
        let cw = code.encode(&msg).unwrap();
        assert_eq!(code.decode(&cw, &vec![false; cw.len()]).unwrap(), msg);
    }

    #[test]
    fn corrects_guaranteed_scattered_errors() {
        let code = ConcatenatedCode::new(16, 8).unwrap();
        let msg = sample_msg(&code, 2);
        let cw = code.encode(&msg).unwrap();
        // One bit error per inner block never produces an outer error at
        // all: every inner block ML-corrects.
        let mut recv = cw.clone();
        for block in 0..32 {
            recv[block * 8 + (block % 8)] ^= 1;
        }
        assert_eq!(code.decode(&recv, &vec![false; recv.len()]).unwrap(), msg);
    }

    #[test]
    fn corrects_concentrated_symbol_errors() {
        let code = ConcatenatedCode::new(16, 8).unwrap();
        let msg = sample_msg(&code, 3);
        let cw = code.encode(&msg).unwrap();
        // Destroy 4 outer symbols completely (t = 4 for [16,8]).
        let mut recv = cw.clone();
        for sym in [0usize, 5, 9, 15] {
            for b in 0..16 {
                recv[sym * 16 + b] ^= u16::from(b % 3 != 0);
            }
        }
        assert_eq!(code.decode(&recv, &vec![false; recv.len()]).unwrap(), msg);
    }

    #[test]
    fn erased_blocks_become_outer_erasures() {
        let code = ConcatenatedCode::new(16, 8).unwrap();
        let msg = sample_msg(&code, 4);
        let cw = code.encode(&msg).unwrap();
        // Erase 7 whole outer symbols (within the erasure budget of 8) and
        // fill them with garbage.
        let mut recv = cw.clone();
        let mut eras = vec![false; recv.len()];
        for sym in 0..7 {
            for b in 0..16 {
                recv[sym * 16 + b] = u16::from((sym + b) % 2 == 0);
                eras[sym * 16 + b] = true;
            }
        }
        assert_eq!(code.decode(&recv, &eras).unwrap(), msg);
    }

    #[test]
    fn random_bit_noise_within_radius() {
        let code = ConcatenatedCode::new(32, 16).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for trial in 0..10 {
            let msg = sample_msg(&code, 100 + trial);
            let cw = code.encode(&msg).unwrap();
            let mut recv = cw.clone();
            // 4% random bit noise: comfortably inside the decode radius.
            for bit in recv.iter_mut() {
                if rng.gen_bool(0.04) {
                    *bit ^= 1;
                }
            }
            assert_eq!(
                code.decode(&recv, &vec![false; recv.len()]).unwrap(),
                msg,
                "trial {trial}"
            );
        }
    }
}

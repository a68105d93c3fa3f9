//! Locally decodable codes: the `(q, δ, ε)`-LDC interface of Definition 4.
//!
//! The adaptive compiler (Theorem 5.5) is *parametric in the LDC*: it only
//! needs the non-adaptive `DecodeIndices(i, R)` / `LDCDecode(x, i, R)`
//! interface. This module defines that interface ([`Ldc`]);
//! [`crate::RmLdc`] is its one instantiation (Reed–Muller line queries in
//! place of the paper's Kopparty–Meir–Ron-Zewi–Saraf code).

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

//! Error-correcting codes and locally decodable codes (LDCs).
//!
//! This crate provides every coding-theoretic object the Fischer–Parter
//! compilers rely on:
//!
//! * [`Gf`] — arithmetic in GF(2^m) for 1 ≤ m ≤ 16 (log/exp tables),
//! * [`ReedSolomon`] — systematic Reed–Solomon codes with
//!   Berlekamp–Massey errors-and-erasures decoding; used directly at symbol
//!   granularity (B ≥ m bits per edge) by the resilient routing scheme,
//! * [`HammingCode`] — the extended Hamming `[8,4,4]` binary code used as an
//!   inner code,
//! * [`ConcatenatedCode`] — a Justesen-style binary code with constant rate
//!   and distance (RS outer ∘ Hamming inner), standing in for Lemma 2.1's
//!   Justesen code (same object class — constant rate and relative
//!   distance — at simulation scale),
//! * [`RepetitionCode`] — the trivial baseline code for ablations,
//! * [`Ldc`] implementations — [`HadamardLdc`] (2 queries, exponential
//!   length; unit-test scale) and [`RmLdc`] (bivariate Reed–Muller with
//!   non-adaptive line queries and majority amplification), standing in for
//!   the Kopparty–Meir–Ron-Zewi–Saraf LDC of Lemma 2.2 (the compiler is
//!   parametric in the LDC and only needs the non-adaptive interface).
//!
//! All codes implement the common [`SymbolCode`] trait so the routing layer
//! can swap them, and LDCs implement [`Ldc`] with the paper's
//! `DecodeIndices(i, R)` / `LDCDecode(x, i, R)` interface (Definition 4).

// Dense linear-algebra and protocol code walks several same-length arrays
// by explicit index; clippy's iterator rewrites would obscure the paper's
// formulas, so this style lint is opted out crate-wide.
#![allow(clippy::needless_range_loop)]
mod concat;
mod error;
mod gf;
mod hamming;
mod ldc;
mod linalg;
mod repetition;
mod rm;
mod rs;
mod traits;

pub use concat::ConcatenatedCode;
pub use error::CodeError;
pub use gf::Gf;
pub use hamming::HammingCode;
pub use ldc::{HadamardLdc, Ldc};
pub use linalg::{berlekamp_welch, invert_matrix, solve_linear};
pub use repetition::RepetitionCode;
pub use rm::RmLdc;
pub use rs::ReedSolomon;
pub use traits::{BitCode, SymbolCode};

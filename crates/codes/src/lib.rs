//! Error-correcting codes and locally decodable codes (LDCs).
//!
//! This crate provides the coding-theoretic objects the Fischer–Parter
//! compilers encode with, and nothing else:
//!
//! * [`Gf`] — arithmetic in GF(2^m) for 1 ≤ m ≤ 16 (log/exp tables),
//! * [`ReedSolomon`] — systematic Reed–Solomon codes with
//!   Berlekamp–Massey errors-and-erasures decoding. It stands in for
//!   Lemma 2.1's Justesen code: the paper needs a binary code of constant
//!   rate and relative distance because its edges carry bits, while the
//!   router here sends one GF(2^8) symbol per `B ≥ 9`-bit wire slot, so the
//!   MDS code is used directly at symbol granularity and no inner binary
//!   code is concatenated under it,
//! * [`RmLdc`], the one [`Ldc`] implementation — bivariate Reed–Muller with
//!   non-adaptive line queries and majority amplification, standing in for
//!   the Kopparty–Meir–Ron-Zewi–Saraf LDC of Lemma 2.2 (the compiler is
//!   parametric in the LDC and only needs the non-adaptive interface).
//!
//! [`ReedSolomon`] implements the [`SymbolCode`] trait the routing layer
//! encodes through, and the LDC implements [`Ldc`] with the paper's
//! `DecodeIndices(i, R)` / `LDCDecode(x, i, R)` interface (Definition 4).

mod error;
mod gf;
mod ldc;
mod linalg;
mod rm;
mod rs;
mod traits;

pub use error::CodeError;
pub use gf::Gf;
pub use ldc::Ldc;
pub use linalg::{berlekamp_welch, invert_matrix, solve_linear};
pub use rm::RmLdc;
pub use rs::ReedSolomon;
pub use traits::{BitCode, SymbolCode};

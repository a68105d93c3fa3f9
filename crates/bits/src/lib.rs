//! Compact bit vectors for the B-Congested-Clique wire format.
//!
//! Every message exchanged in the simulated clique is a [`BitVec`]: an
//! arbitrary-length sequence of bits with cheap push/read/slice operations,
//! fixed-width integer packing, XOR and Hamming-distance support (used by the
//! error-correcting-code layer), and symbol (de)packing for codes over
//! GF(2^m).
//!
//! A round of the clique is an `n × n` matrix of such frames, each at most
//! the bandwidth wide. [`BitGrid`] stores that matrix as bits: a presence
//! bitset plus one packed slab of length-prefixed slots, emptied by zeroing
//! the bitset alone.
//!
//! The crate has no dependencies so that every other crate in the workspace
//! can build on it.
//!
//! # Examples
//!
//! ```
//! use bdclique_bits::BitVec;
//!
//! let mut bits = BitVec::new();
//! bits.push(true);
//! bits.push_uint(7, 0b1010_101);
//! assert_eq!(bits.len(), 8);
//! assert_eq!(bits.read_uint(1, 7), 0b1010_101);
//! ```

mod bitvec;
mod grid;

pub use bitvec::BitVec;
pub use grid::{BitGrid, Column};

/// Number of bits needed to represent values `0..n` (i.e. `ceil(log2(n))`,
/// with `bits_for(0) == 0` and `bits_for(1) == 0`).
///
/// This is the standard identifier width used throughout the protocols: node
/// ids in `KT1` are `{0, …, n-1}`, so an id costs `bits_for(n)` bits.
///
/// # Examples
///
/// ```
/// assert_eq!(bdclique_bits::bits_for(1), 0);
/// assert_eq!(bdclique_bits::bits_for(2), 1);
/// assert_eq!(bdclique_bits::bits_for(256), 8);
/// assert_eq!(bdclique_bits::bits_for(257), 9);
/// ```
pub fn bits_for(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
    }
}

//! Common traits implemented by every code in this crate.

use crate::error::CodeError;
use bdclique_bits::BitVec;

/// A block code over symbols of `symbol_bits` bits (carried as `u16`).
///
/// Implementor: [`crate::ReedSolomon`], the code both routing engines
/// encode with; [`BitCode`] is the bit-string layer they call it through.
pub trait SymbolCode {
    /// Message length in symbols.
    fn message_len(&self) -> usize;
    /// Codeword length in symbols.
    fn codeword_len(&self) -> usize;
    /// Bits per symbol (1 for binary codes).
    fn symbol_bits(&self) -> u32;
    /// Design distance (minimum Hamming distance the code guarantees).
    fn distance(&self) -> usize;

    /// Encodes a message of exactly [`Self::message_len`] symbols.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] or [`CodeError::SymbolOutOfRange`] on
    /// malformed input.
    fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError>;

    /// Decodes a received word with per-position erasure flags.
    ///
    /// # Errors
    ///
    /// [`CodeError::TooManyErrors`] when the word is outside the decoding
    /// radius, and the input-shape errors of [`Self::encode`].
    fn decode(&self, received: &[u16], erasures: &[bool]) -> Result<Vec<u16>, CodeError>;

    /// Rate `k/n` as a float (informational).
    fn rate(&self) -> f64 {
        self.message_len() as f64 / self.codeword_len() as f64
    }

    /// Relative distance `d/n` as a float (informational).
    fn relative_distance(&self) -> f64 {
        self.distance() as f64 / self.codeword_len() as f64
    }
}

/// Bit-string convenience layer over any [`SymbolCode`].
///
/// Protocol payloads are [`BitVec`]s; this extension packs them into code
/// symbols (zero-padding the tail) and unpacks decoded messages back into
/// bit strings.
pub trait BitCode: SymbolCode {
    /// Maximum number of payload bits one codeword carries.
    fn payload_bits(&self) -> usize {
        self.message_len() * self.symbol_bits() as usize
    }

    /// Encodes up to [`Self::payload_bits`] bits into codeword symbols.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] when `bits` exceeds the payload size.
    fn encode_bits(&self, bits: &BitVec) -> Result<Vec<u16>, CodeError> {
        if bits.len() > self.payload_bits() {
            return Err(CodeError::LengthMismatch {
                expected: self.payload_bits(),
                actual: bits.len(),
            });
        }
        // Batch unpack straight into message symbols; positions past the end
        // of `bits` read as zero, which is exactly the padding the previous
        // clone + pad_to + to_symbols pipeline produced.
        let symbols = bits.read_uints(0, self.symbol_bits(), self.message_len());
        self.encode(&symbols)
    }

    /// Decodes a received word and returns the first `len` payload bits.
    ///
    /// # Errors
    ///
    /// Propagates the decoding errors of [`SymbolCode::decode`]; also
    /// rejects `len` larger than the payload.
    fn decode_bits(
        &self,
        received: &[u16],
        erasures: &[bool],
        len: usize,
    ) -> Result<BitVec, CodeError> {
        if len > self.payload_bits() {
            return Err(CodeError::LengthMismatch {
                expected: self.payload_bits(),
                actual: len,
            });
        }
        let msg = self.decode(received, erasures)?;
        if msg.len() * (self.symbol_bits() as usize) < len {
            return Err(CodeError::LengthMismatch {
                expected: len,
                actual: msg.len() * self.symbol_bits() as usize,
            });
        }
        // Batch repack (push_uints masks to symbol width, like from_symbols).
        let mut bits = BitVec::new();
        bits.push_uints(
            self.symbol_bits(),
            &msg[..len.div_ceil(self.symbol_bits() as usize)],
        );
        bits.truncate(len);
        Ok(bits)
    }
}

impl<T: SymbolCode + ?Sized> BitCode for T {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy identity "code" to exercise the blanket BitCode impl.
    struct Identity {
        len: usize,
        bits: u32,
    }

    impl SymbolCode for Identity {
        fn message_len(&self) -> usize {
            self.len
        }
        fn codeword_len(&self) -> usize {
            self.len
        }
        fn symbol_bits(&self) -> u32 {
            self.bits
        }
        fn distance(&self) -> usize {
            1
        }
        fn encode(&self, msg: &[u16]) -> Result<Vec<u16>, CodeError> {
            Ok(msg.to_vec())
        }
        fn decode(&self, received: &[u16], _erasures: &[bool]) -> Result<Vec<u16>, CodeError> {
            Ok(received.to_vec())
        }
    }

    #[test]
    fn bitcode_roundtrip_and_padding() {
        let code = Identity { len: 4, bits: 3 };
        assert_eq!(code.payload_bits(), 12);
        let bits = BitVec::from_bools(&[true, false, true, true, false]);
        let cw = code.encode_bits(&bits).unwrap();
        assert_eq!(cw.len(), 4);
        let back = code.decode_bits(&cw, &[false; 4], 5).unwrap();
        assert_eq!(back, bits);
    }

    #[test]
    fn bitcode_rejects_oversized_payload() {
        let code = Identity { len: 2, bits: 1 };
        let bits = BitVec::from_bools(&[true; 3]);
        assert!(matches!(
            code.encode_bits(&bits),
            Err(CodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rate_and_relative_distance() {
        let code = Identity { len: 4, bits: 1 };
        assert!((code.rate() - 1.0).abs() < 1e-9);
        assert!((code.relative_distance() - 0.25).abs() < 1e-9);
    }
}

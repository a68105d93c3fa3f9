//! Versioned binary snapshot codec for checkpoint/resume.
//!
//! The workspace has no serde; this crate is the hand-rolled replacement:
//! a little-endian byte codec ([`Enc`] / [`Dec`]) with a four-byte magic
//! and a format version. The simulator layers serialize their state through
//! inherent `snapshot(&self, &mut Enc)` / `restore(&mut Dec)` functions.
//!
//! # Design rules
//!
//! * **Only dynamic state is serialized.** Anything a component re-derives
//!   deterministically from its configuration (routing plans, codeword
//!   tables, cover-free families) is rebuilt at restore instead of stored —
//!   the snapshot carries the *cursor*, not the *map*. This keeps snapshots
//!   small and immune to plan-layout refactors.
//! * **Behavioral objects are rebuilt, state is overlaid.** A boxed
//!   adversary strategy or a protocol cannot be materialized from bytes
//!   without a type registry; instead the caller reconstructs it from its
//!   spec (seed, parameters) and then loads the serialized dynamic state
//!   (RNG cursors, accumulated load maps) into it.
//! * **Round-trips are byte-identical.** `encode(decode(bytes)) == bytes`
//!   for every codec — property-tested in `netsim/tests/snapshot_roundtrip`.
//!   This is what makes "resumed run ≡ uninterrupted run" checkable at the
//!   byte level rather than merely field by field.
//! * **Truncated or corrupt input is an error, never a panic.** Every read
//!   is bounds-checked and every length prefix is validated against the
//!   remaining input before allocation.

// Decode must never panic on corrupt input; these promote the two easiest
// panic vectors (unwrap, slice indexing) to warnings, and CI's
// `clippy -D warnings` makes them blocking.
#![warn(clippy::unwrap_used, clippy::indexing_slicing)]

use bdclique_bits::BitVec;
use std::fmt;

/// Four-byte magic prefix of every snapshot document.
pub const MAGIC: [u8; 4] = *b"BDCS";

/// Current snapshot format version. Bump on any layout change; [`Dec`]
/// rejects mismatched versions instead of misparsing them. Version 2 holds
/// each det-hypercube node state as one bit string (version 1: a sequence
/// of per-message strings). Version 3 has one routing-session layout for
/// both engines: zero-filled chunk-store entries (version 2's unit engine
/// wrote optional ones) and relay grids without their row offsets, which
/// the rebuilt plan supplies. Version 4 drops the traffic record's `auto`
/// byte and the sparse topology's edge-cap section. Version 5 drops the
/// network's history section and its stats' `intended_snapshots` counter.
pub const VERSION: u16 = 5;

/// Decode failure: the bytes do not describe a valid snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the announced structure did.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The document does not start with [`MAGIC`].
    BadMagic,
    /// The document's format version is not [`VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// Structurally invalid content (bad discriminant, impossible length,
    /// failed invariant).
    Corrupt {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl SnapError {
    /// A [`SnapError::Corrupt`] with the given diagnosis.
    #[must_use]
    pub fn corrupt(reason: impl Into<String>) -> Self {
        SnapError::Corrupt {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {remaining} left"
                )
            }
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (expected {VERSION})"
                )
            }
            SnapError::Corrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Byte encoder. All integers are little-endian; sequences are a `u64`
/// length prefix followed by the elements.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder pre-filled with the [`MAGIC`] + [`VERSION`] header —
    /// the standard way to start a snapshot document.
    #[must_use]
    pub fn with_header() -> Self {
        let mut enc = Self::new();
        enc.buf.extend_from_slice(&MAGIC);
        enc.put_u16(VERSION);
        enc
    }

    /// Consumes the encoder, yielding the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a byte slice with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a [`BitVec`] as its bit length plus packed bytes.
    pub fn put_bits(&mut self, v: &BitVec) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(&v.to_bytes());
    }

    /// Writes `Some`/`None` plus the value via the closure.
    pub fn put_opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.put_bool(false),
            Some(inner) => {
                self.put_bool(true);
                f(self, inner);
            }
        }
    }

    /// Writes a sequence: `u64` length prefix, then each element via the
    /// closure.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Byte decoder over a borrowed buffer. Every read is bounds-checked;
/// length prefixes are validated against the remaining input before any
/// allocation, so corrupt documents fail with [`SnapError`] instead of
/// aborting on an absurd allocation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over raw bytes (no header check).
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// A decoder over a snapshot document: checks [`MAGIC`] and
    /// [`VERSION`], leaving the cursor after the header.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`] / [`SnapError::BadVersion`] / truncation.
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut dec = Self::new(buf);
        let magic = dec.take(4)?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = dec.get_u16()?;
        if version != VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        Ok(dec)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if bytes are left over.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::corrupt(format!(
                "{} trailing bytes after document end",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let truncated = || SnapError::Truncated {
            needed: n,
            remaining: self.buf.len().saturating_sub(self.pos),
        };
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let out = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`].
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(SnapError::Truncated {
            needed: 1,
            remaining: 0,
        })
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`].
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b: [u8; 2] = self.take(2)?.try_into().map_err(|_| SnapError::Truncated {
            needed: 2,
            remaining: 0,
        })?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`].
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| SnapError::Truncated {
            needed: 4,
            remaining: 0,
        })?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`].
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| SnapError::Truncated {
            needed: 8,
            remaining: 0,
        })?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` (stored as `u64`; rejects values beyond the
    /// platform's `usize`).
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] on overflow.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a sequence length and validates it against the remaining
    /// input assuming each element takes at least `min_elem_bytes`.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Truncated`] when the announced length
    /// cannot fit in the remaining bytes.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let len = self.get_usize()?;
        let floor = len.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(SnapError::Truncated {
                needed: floor,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] on other byte values.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`].
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Truncation (including an announced length beyond the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncation, or [`SnapError::Corrupt`] on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::corrupt("invalid utf-8"))
    }

    /// Reads a [`BitVec`] written by [`Enc::put_bits`].
    ///
    /// # Errors
    ///
    /// Truncation.
    pub fn get_bits(&mut self) -> Result<BitVec, SnapError> {
        let len = self.get_usize()?;
        let bytes_needed = len.div_ceil(8);
        if bytes_needed > self.remaining() {
            return Err(SnapError::Truncated {
                needed: bytes_needed,
                remaining: self.remaining(),
            });
        }
        let bytes = self.take(bytes_needed)?;
        Ok(BitVec::from_bytes(bytes, len))
    }

    /// Reads an option written by [`Enc::put_opt`].
    ///
    /// # Errors
    ///
    /// Truncation or corruption, from the flag or the closure.
    pub fn get_opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`Enc::put_seq`]. `min_elem_bytes` is
    /// the smallest possible wire size of one element, used to reject
    /// absurd lengths before allocating.
    ///
    /// # Errors
    ///
    /// Truncation or corruption, from the length or the closure.
    pub fn get_seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.get_len(min_elem_bytes)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[expect(
    clippy::unwrap_used,
    reason = "tests assert on decode results; unwrap-on-corrupt is the point there"
)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let enc = Enc::with_header();
        let bytes = enc.into_bytes();
        let dec = Dec::with_header(&bytes).unwrap();
        assert_eq!(dec.remaining(), 0);
        dec.finish().unwrap();
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        assert_eq!(
            Dec::with_header(b"XXXX\x01\x00").unwrap_err(),
            SnapError::BadMagic
        );
        let mut enc = Enc::new();
        enc.put_u8(b'B');
        enc.put_u8(b'D');
        enc.put_u8(b'C');
        enc.put_u8(b'S');
        enc.put_u16(99);
        assert_eq!(
            Dec::with_header(enc.bytes()).unwrap_err(),
            SnapError::BadVersion { found: 99 }
        );
        assert!(matches!(
            Dec::with_header(b"BD"),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn scalar_round_trips() {
        let mut enc = Enc::new();
        enc.put_u8(7);
        enc.put_u16(1234);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 3);
        enc.put_usize(42);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_f64(0.375);
        enc.put_f64(f64::NAN);
        enc.put_str("bdclique");
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u16().unwrap(), 1234);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.get_usize().unwrap(), 42);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_f64().unwrap(), 0.375);
        assert!(dec.get_f64().unwrap().is_nan());
        assert_eq!(dec.get_str().unwrap(), "bdclique");
        dec.finish().unwrap();
    }

    #[test]
    fn bitvec_round_trip_is_byte_identical() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 200] {
            let bits = BitVec::from_fn(len, |i| i % 3 == 0);
            let mut enc = Enc::new();
            enc.put_bits(&bits);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let back = dec.get_bits().unwrap();
            assert_eq!(back, bits);
            let mut re = Enc::new();
            re.put_bits(&back);
            assert_eq!(re.into_bytes(), bytes, "len {len}");
            // The bytes are the logical bits: a value that spilled to the
            // heap and was truncated back encodes as its inline twin does.
            let mut spilled = bits.clone();
            spilled.pad_to(len + 130);
            spilled.truncate(len);
            let mut enc = Enc::new();
            enc.put_bits(&spilled);
            assert_eq!(enc.into_bytes(), bytes, "spilled, len {len}");
        }
    }

    #[test]
    fn corrupt_inputs_error_without_panicking() {
        // Bool byte out of range.
        let mut dec = Dec::new(&[2]);
        assert!(matches!(dec.get_bool(), Err(SnapError::Corrupt { .. })));

        // Announced length far beyond the buffer: rejected before allocation.
        let mut enc = Enc::new();
        enc.put_u64(u64::MAX / 2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(matches!(dec.get_bytes(), Err(SnapError::Truncated { .. })));

        // Bad UTF-8.
        let mut enc = Enc::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(matches!(dec.get_str(), Err(SnapError::Corrupt { .. })));

        // Trailing garbage caught by finish().
        let mut enc = Enc::new();
        enc.put_u8(1);
        enc.put_u8(2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        dec.get_u8().unwrap();
        assert!(matches!(dec.finish(), Err(SnapError::Corrupt { .. })));
    }

    #[test]
    fn seq_and_opt_round_trip() {
        let items: Vec<u64> = vec![3, 1, 4, 1, 5];
        let mut enc = Enc::new();
        enc.put_seq(&items, |e, v| e.put_u64(*v));
        enc.put_opt(Some(&9u64), |e, v| e.put_u64(*v));
        enc.put_opt::<u64>(None, |e, v| e.put_u64(*v));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = dec.get_seq(8, Dec::get_u64).unwrap();
        assert_eq!(back, items);
        assert_eq!(dec.get_opt(Dec::get_u64).unwrap(), Some(9));
        assert_eq!(dec.get_opt(Dec::get_u64).unwrap(), None);
        dec.finish().unwrap();
    }
}

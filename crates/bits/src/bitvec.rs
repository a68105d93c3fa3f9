//! The [`BitVec`] implementation: 64-bit blocks, LSB-first within a block.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The block storage of a [`BitVec`]: one inline word while the vector fits
/// 64 bits, a heap `Vec` once it has grown past that. Growth spills; nothing
/// moves a spilled store back inline, so which variant a value sits on is
/// history, not content — [`BitVec`] compares by its logical blocks.
#[derive(Clone)]
enum Blocks {
    Inline(u64),
    Heap(Vec<u64>),
}

impl Blocks {
    fn zeros(count: usize) -> Self {
        if count <= 1 {
            Blocks::Inline(0)
        } else {
            Blocks::Heap(vec![0; count])
        }
    }

    /// Grows (zero-filling) or shrinks to `count` blocks. The inline word is
    /// always physically there, so shrinking it to zero blocks clears it.
    fn resize(&mut self, count: usize) {
        match self {
            Blocks::Inline(w) if count == 0 => *w = 0,
            Blocks::Inline(_) if count == 1 => {}
            Blocks::Inline(w) => {
                let mut spilled = Vec::with_capacity(count);
                spilled.push(*w);
                spilled.resize(count, 0);
                *self = Blocks::Heap(spilled);
            }
            Blocks::Heap(v) => v.resize(count, 0),
        }
    }
}

impl Deref for Blocks {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Blocks::Inline(w) => std::slice::from_ref(w),
            Blocks::Heap(v) => v,
        }
    }
}

impl DerefMut for Blocks {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Blocks::Inline(w) => std::slice::from_mut(w),
            Blocks::Heap(v) => v,
        }
    }
}

/// A growable, compact vector of bits.
///
/// Bits are stored LSB-first inside `u64` blocks. A vector of at most 64
/// bits keeps its one block inline — no allocation, the whole value in one
/// 32-byte slot — which covers every frame and every `B`-bit message the
/// protocols move; growing past 64 bits spills the blocks to the heap.
/// Equality, hashing and ordering are *logical*: they consider the `len`
/// bits only, never which storage holds them, so a value that spilled and
/// was truncated back equals one built inline. Trailing block padding is
/// kept zeroed as an internal invariant.
///
/// # Examples
///
/// ```
/// use bdclique_bits::BitVec;
///
/// let a = BitVec::from_bools(&[true, false, true]);
/// let b = BitVec::from_fn(3, |i| i % 2 == 0);
/// assert_eq!(a, b);
/// assert_eq!(a.count_ones(), 2);
/// ```
#[derive(Clone)]
pub struct BitVec {
    blocks: Blocks,
    len: usize,
}

impl Default for BitVec {
    fn default() -> Self {
        Self::zeros(0)
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitVec {}

impl Hash for BitVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl Ord for BitVec {
    /// Blocks first (lexicographic), then length — the order the derived
    /// impl gave when the blocks were always a `Vec`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.words()
            .cmp(other.words())
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for BitVec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            blocks: Blocks::zeros(len.div_ceil(64)),
            len,
        }
    }

    /// The `len.div_ceil(64)` blocks that hold bits — all of a heap store,
    /// and all of an inline one unless the vector is empty.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.blocks[..self.len.div_ceil(64)]
    }

    /// A vector of `len ≤ 64` bits held inline: the low `len` bits of
    /// `word`, whose higher bits the caller has zeroed.
    #[inline]
    pub(crate) fn from_word(word: u64, len: usize) -> Self {
        debug_assert!(len <= 64 && (len == 64 || word >> len == 0));
        Self {
            blocks: Blocks::Inline(word),
            len,
        }
    }

    /// Heap bytes owned by this vector: zero while it is inline.
    pub fn heap_bytes(&self) -> usize {
        match &self.blocks {
            Blocks::Inline(_) => 0,
            Blocks::Heap(v) => v.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Creates a bit vector from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit vector of `len` bits where bit `i` is `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit vector of `len` bits from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` has fewer than `len.div_ceil(8)` bytes.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() >= len.div_ceil(8), "not enough bytes for len");
        let mut v = Self::zeros(len);
        let mut pos = 0usize;
        for &b in bytes.iter().take(len.div_ceil(8)) {
            let w = 8.min(len - pos) as u32;
            v.store(pos, w, b as u64 & low_mask(w));
            pos += 8;
        }
        v
    }

    /// Serializes to little-endian bytes (`len.div_ceil(8)` of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for (i, byte) in out.iter_mut().enumerate() {
            let pos = i * 8;
            *byte = self.load(pos, 8.min(self.len - pos) as u32) as u8;
        }
        out
    }

    /// Reads up to 64 bits at `pos` without range checks; the caller
    /// guarantees `pos + width <= len` (padding invariant keeps the result
    /// masked anyway).
    #[inline]
    fn load(&self, pos: usize, width: u32) -> u64 {
        load_bits(&self.blocks, pos, width)
    }

    /// Overwrites `width` (≤ 64) bits at `pos` with `value`; the caller
    /// guarantees the range is in bounds and `value` fits `width` bits.
    #[inline]
    pub(crate) fn store(&mut self, pos: usize, width: u32, value: u64) {
        store_bits(&mut self.blocks, pos, width, value);
    }

    /// Extends with `extra` zero bits, keeping the padding invariant.
    #[inline]
    fn grow_zeros(&mut self, extra: usize) {
        self.len += extra;
        self.blocks.resize(self.len.div_ceil(64));
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] >> (i % 64) & 1 == 1
    }

    /// Returns bit `i`, or `None` if out of range.
    pub fn try_get(&self, i: usize) -> Option<bool> {
        (i < self.len).then(|| self.get(i))
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] ^= 1u64 << (i % 64);
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        self.grow_zeros(1);
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Appends the low `width` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, width: u32, value: u64) {
        assert!(width <= 64, "width {width} > 64");
        if width < 64 {
            assert!(
                value < 1u64 << width,
                "value {value} does not fit width {width}"
            );
        }
        let start = self.len;
        self.grow_zeros(width as usize);
        self.store(start, width, value);
    }

    /// Appends the low `width` bits of every value, LSB first — the batch
    /// fast path behind symbol packing (`width` ≤ 16). Values are masked to
    /// `width` bits, matching the per-symbol unpack loop which only ever
    /// reads the low bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 16`.
    pub fn push_uints(&mut self, width: u32, values: &[u16]) {
        assert!((1..=16).contains(&width), "width {width} not in 1..=16");
        let start = self.len;
        self.grow_zeros(width as usize * values.len());
        let mask = low_mask(width);
        let mut pos = start;
        for &v in values {
            self.store(pos, width, v as u64 & mask);
            pos += width as usize;
        }
    }

    /// Reads `width` bits starting at `pos` as an LSB-first integer.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the range is out of bounds.
    pub fn read_uint(&self, pos: usize, width: u32) -> u64 {
        assert!(width <= 64, "width {width} > 64");
        assert!(pos + width as usize <= self.len, "read out of range");
        self.load(pos, width)
    }

    /// Reads `count` values of `width` bits each starting at `pos`, LSB
    /// first — the batch fast path behind symbol unpacking (`width` ≤ 16).
    /// Bits past the end of the vector read as zero, so the tail value is
    /// zero-padded exactly like [`Self::to_symbols`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 16`, or if `pos > len`.
    pub fn read_uints(&self, pos: usize, width: u32, count: usize) -> Vec<u16> {
        assert!((1..=16).contains(&width), "width {width} not in 1..=16");
        assert!(pos <= self.len, "read out of range");
        let w = width as usize;
        (0..count)
            .map(|s| {
                let p = pos + s * w;
                let avail = self.len.saturating_sub(p).min(w) as u32;
                self.load(p, avail) as u16
            })
            .collect()
    }

    /// Overwrites `width` bits starting at `pos` with `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, `value` does not fit, or the range is out of
    /// bounds.
    pub fn write_uint(&mut self, pos: usize, width: u32, value: u64) {
        assert!(width <= 64, "width {width} > 64");
        if width < 64 {
            assert!(
                value < 1u64 << width,
                "value {value} does not fit width {width}"
            );
        }
        assert!(pos + width as usize <= self.len, "write out of range");
        self.store(pos, width, value);
    }

    /// Overwrites `src.len()` bits starting at `pos` with the bits of `src`,
    /// one 64-bit block move at a time.
    ///
    /// # Panics
    ///
    /// Panics if `pos + src.len() > len`.
    pub fn write_bits(&mut self, pos: usize, src: &Self) {
        assert!(pos + src.len <= self.len, "write_bits out of range");
        let mut off = 0usize;
        while off < src.len {
            let w = 64.min(src.len - off) as u32;
            self.store(pos + off, w, src.load(off, w));
            off += 64;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Hamming distance to another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "xor needs equal lengths");
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a ^= b;
        }
    }

    /// Appends all bits of `other` (block-wise).
    pub fn extend_bits(&mut self, other: &Self) {
        let start = self.len;
        self.grow_zeros(other.len);
        let mut off = 0usize;
        while off < other.len {
            let w = 64.min(other.len - off) as u32;
            self.store(start + off, w, other.load(off, w));
            off += 64;
        }
    }

    /// Concatenates a sequence of bit vectors.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut out = Self::new();
        for p in parts {
            out.extend_bits(p);
        }
        out
    }

    /// Returns the sub-vector `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.len, "slice out of range");
        let len = end - start;
        let mut out = Self::zeros(len);
        for (i, block) in out.blocks.iter_mut().enumerate() {
            let pos = start + i * 64;
            // An empty slice still has its inline block: zero bits to load.
            *block = self.load(pos, 64.min(end - pos) as u32);
        }
        out
    }

    /// Zero-pads (or leaves unchanged) so the vector has at least `len` bits.
    pub fn pad_to(&mut self, len: usize) {
        if self.len < len {
            // Padding bits in the last partial block are already zero.
            self.grow_zeros(len - self.len);
        }
    }

    /// Truncates to at most `len` bits.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.blocks.resize(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            // Re-establish the zero-padding invariant in the last block.
            self.blocks[len / 64] &= low_mask((len % 64) as u32);
        }
        self.len = len;
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Packs the bits into symbols of `sym_bits` bits each (LSB first), zero
    /// padding the tail.
    ///
    /// # Panics
    ///
    /// Panics if `sym_bits == 0` or `sym_bits > 16`.
    pub fn to_symbols(&self, sym_bits: u32) -> Vec<u16> {
        assert!(
            sym_bits > 0 && sym_bits <= 16,
            "symbol width must be 1..=16"
        );
        let count = self.len.div_ceil(sym_bits as usize);
        self.read_uints(0, sym_bits, count)
    }

    /// Inverse of [`Self::to_symbols`]: unpacks symbols back into `len` bits.
    /// Only `len` bits are ever written — the last symbol is masked to what
    /// is left — so a result of at most 64 bits stays inline.
    ///
    /// # Panics
    ///
    /// Panics if `sym_bits` is out of range or there are not enough symbols.
    pub fn from_symbols(symbols: &[u16], sym_bits: u32, len: usize) -> Self {
        assert!(
            sym_bits > 0 && sym_bits <= 16,
            "symbol width must be 1..=16"
        );
        assert!(
            symbols.len() * sym_bits as usize >= len,
            "not enough symbols for {len} bits"
        );
        let w = sym_bits as usize;
        let mut v = Self::zeros(len);
        for (s, &sym) in symbols[..len.div_ceil(w)].iter().enumerate() {
            let pos = s * w;
            let width = w.min(len - pos) as u32;
            v.store(pos, width, sym as u64 & low_mask(width));
        }
        v
    }
}

/// A mask of the `width` (1..=64) low bits.
#[inline]
pub(crate) const fn low_mask(width: u32) -> u64 {
    debug_assert!(width >= 1 && width <= 64);
    u64::MAX >> (64 - width)
}

/// Reads `width` (≤ 64) bits of an LSB-first block array at bit `pos`; the
/// caller guarantees `pos + width` lies inside the blocks.
#[inline]
pub(crate) fn load_bits(blocks: &[u64], pos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let block = pos / 64;
    let off = (pos % 64) as u32;
    let mut out = blocks[block] >> off;
    if off + width > 64 {
        out |= blocks[block + 1] << (64 - off);
    }
    out & low_mask(width)
}

/// Overwrites `width` (≤ 64) bits of an LSB-first block array at bit `pos`
/// with `value`; the caller guarantees the range lies inside the blocks and
/// `value` fits `width` bits.
#[inline]
pub(crate) fn store_bits(blocks: &mut [u64], pos: usize, width: u32, value: u64) {
    if width == 0 {
        return;
    }
    let block = pos / 64;
    let off = (pos % 64) as u32;
    let mask = low_mask(width);
    blocks[block] = (blocks[block] & !(mask << off)) | (value << off);
    if off + width > 64 {
        let spill = off + width - 64;
        let hi_mask = low_mask(spill);
        blocks[block + 1] = (blocks[block + 1] & !hi_mask) | (value >> (64 - off));
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut v = BitVec::new();
        for i in 0..200 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 200);
        for i in 0..200 {
            assert_eq!(v.get(i), i % 3 == 0, "bit {i}");
        }
        v.set(100, true);
        assert!(v.get(100));
        v.set(100, false);
        assert!(!v.get(100));
    }

    #[test]
    fn uint_pack_roundtrip() {
        let mut v = BitVec::new();
        v.push_uint(13, 0x1abc);
        v.push_uint(3, 5);
        v.push_uint(64, u64::MAX);
        assert_eq!(v.read_uint(0, 13), 0x1abc);
        assert_eq!(v.read_uint(13, 3), 5);
        assert_eq!(v.read_uint(16, 64), u64::MAX);
        v.write_uint(13, 3, 2);
        assert_eq!(v.read_uint(13, 3), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_rejects_oversized_value() {
        let mut v = BitVec::new();
        v.push_uint(3, 8);
    }

    #[test]
    fn hamming_and_xor() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming(&b), 2);
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c, BitVec::from_bools(&[false, true, true, false]));
        assert_eq!(c.count_ones(), 2);
    }

    #[test]
    fn slice_and_concat() {
        let v = BitVec::from_fn(100, |i| i % 7 == 0);
        let s = v.slice(10, 30);
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(s.get(i), (i + 10) % 7 == 0);
        }
        let joined = BitVec::concat([&v.slice(0, 10), &v.slice(10, 100)]);
        assert_eq!(joined, v);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BitVec::from_fn(19, |i| i % 5 < 2);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 3);
        assert_eq!(BitVec::from_bytes(&bytes, 19), v);
    }

    #[test]
    fn symbols_roundtrip() {
        let v = BitVec::from_fn(37, |i| (i * i) % 3 == 1);
        for sym_bits in [1u32, 3, 8, 13, 16] {
            let syms = v.to_symbols(sym_bits);
            assert_eq!(syms.len(), 37usize.div_ceil(sym_bits as usize));
            let back = BitVec::from_symbols(&syms, sym_bits, 37);
            assert_eq!(back, v, "sym_bits {sym_bits}");
        }
    }

    #[test]
    fn equality_ignores_block_padding() {
        let mut a = BitVec::zeros(5);
        let b = BitVec::from_bools(&[false; 5]);
        a.set(3, true);
        a.set(3, false);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    /// A value that grew past one block and came back is the same value as
    /// one that never left the inline word: `==`, `cmp`, hash and bytes.
    #[test]
    fn spilled_then_truncated_equals_its_inline_twin() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &BitVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for len in [0, 1, 37, 63, 64] {
            let twin = BitVec::from_fn(len, |i| i % 3 != 1);
            let mut spilled = twin.clone();
            spilled.extend_bits(&BitVec::from_fn(100, |i| i % 2 == 0));
            assert!(spilled.heap_bytes() >= 16, "100 bits and more spill");
            spilled.truncate(len);
            assert_eq!(twin.heap_bytes(), 0, "{len} bits sit inline");
            assert_eq!(spilled, twin, "len {len}");
            assert_eq!(spilled.cmp(&twin), Ordering::Equal, "len {len}");
            assert_eq!(hash(&spilled), hash(&twin), "len {len}");
            assert_eq!(spilled.to_bytes(), twin.to_bytes(), "len {len}");
            assert_eq!(BitVec::from_bytes(&spilled.to_bytes(), len), twin);
            // Growing again from either storage gives the same value.
            let mut regrown = spilled.clone();
            regrown.pad_to(70);
            let mut padded = twin.clone();
            padded.pad_to(70);
            assert_eq!(regrown, padded, "len {len}");
        }
    }

    /// Ordering is blocks-then-length whichever storage holds the blocks.
    #[test]
    fn ordering_is_by_blocks_then_length() {
        let short = BitVec::from_bools(&[false, true]);
        let long = BitVec::from_bools(&[false, true, false]);
        let low = BitVec::from_bools(&[true, false, false]);
        let two_blocks = BitVec::zeros(65);
        assert!(short < long, "same blocks: the shorter sorts first");
        assert!(low < short, "block value 1 sorts before block value 2");
        assert!(BitVec::zeros(64) < two_blocks && two_blocks < low);
        assert!(BitVec::new() < BitVec::zeros(1));
    }

    #[test]
    fn slots_stay_one_inline_block_wide() {
        use std::mem::size_of;
        let why = "a frame grew: the sparse rows pay every extra word per frame, and \
                   each by-value read from a grid copies it";
        assert!(size_of::<BitVec>() <= 32, "BitVec: {why}");
        assert!(size_of::<Option<BitVec>>() <= 32, "Option<BitVec>: {why}");
        assert!(size_of::<(u32, BitVec)>() <= 40, "(u32, BitVec): {why}");
    }

    #[test]
    fn display_and_debug() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert!(format!("{v:?}").contains("101"));
        assert!(!format!("{:?}", BitVec::new()).is_empty());
    }

    #[test]
    fn pad_and_truncate() {
        let mut v = BitVec::from_bools(&[true, true]);
        v.pad_to(5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.count_ones(), 2);
        v.truncate(1);
        assert_eq!(v, BitVec::from_bools(&[true]));
        v.truncate(10);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn write_bits_overwrites_in_place() {
        let mut v = BitVec::zeros(8);
        v.write_bits(3, &BitVec::from_bools(&[true, false, true]));
        assert_eq!(v, BitVec::from_fn(8, |i| i == 3 || i == 5));
        // Overwriting clears previous bits in the window.
        v.write_bits(3, &BitVec::from_bools(&[false, true, false]));
        assert_eq!(v, BitVec::from_fn(8, |i| i == 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_bits_rejects_overflow() {
        BitVec::zeros(4).write_bits(3, &BitVec::from_bools(&[true, true]));
    }

    #[test]
    fn from_iterator_and_extend() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 10);
        let mut w = BitVec::new();
        w.extend((0..10).map(|i| i % 2 == 0));
        assert_eq!(v, w);
    }
}

//! The [`BitGrid`] implementation: a presence bitset plus one fixed-stride,
//! length-prefixed slab.

use crate::bitvec::{load_bits, store_bits};
use crate::{bits_for, BitVec};
use std::fmt;

/// An `n × n` matrix of optional bit strings, each at most `width` bits,
/// stored as bits rather than as one object per slot.
///
/// Two allocations hold the whole matrix:
/// * a **presence bitset** of `n²` bits, row-major — whether a slot holds a
///   string at all (a present string may be empty);
/// * a **slab** of `n²` slots at a fixed stride of `len_bits + width` bits,
///   `len_bits = ⌈log2(width + 1)⌉`: each slot is its string's length,
///   then the string.
///
/// Reads return the string by value — inline, so allocation-free, up to 64
/// bits. [`BitGrid::clear`] zeroes only the presence bitset, leaving the
/// slab's stale bits behind; every read and walk consults presence first,
/// so they can never be observed, and `==` compares present strings only.
///
/// # Examples
///
/// ```
/// use bdclique_bits::{BitGrid, BitVec};
///
/// let mut grid = BitGrid::new(3, 4);
/// grid.set(0, 2, &BitVec::from_bools(&[true, false]));
/// grid.set(1, 2, &BitVec::new());
/// assert_eq!(grid.get(0, 2), Some(BitVec::from_bools(&[true, false])));
/// assert_eq!(grid.get(2, 0), None);
/// let column: Vec<usize> = grid.column(2).map(|(row, _)| row).collect();
/// assert_eq!(column, [0, 1]);
/// grid.clear();
/// assert_eq!(grid.present_count(), 0);
/// ```
#[derive(Clone)]
pub struct BitGrid {
    n: usize,
    width: usize,
    len_bits: u32,
    /// Bit `row · n + col` of word `/ 64`: whether the slot is present.
    present: Vec<u64>,
    /// `n²` slots of `len_bits + width` bits, LSB-first words: the length,
    /// then the string.
    slab: Vec<u64>,
}

impl BitGrid {
    /// An `n × n` grid with every slot absent, for strings of at most
    /// `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if the grid's size in bits overflows `usize`.
    pub fn new(n: usize, width: usize) -> Self {
        let slots = n.checked_mul(n).expect("grid slot count overflows usize");
        let len_bits = bits_for(width + 1);
        let slab_bits = slots
            .checked_mul(len_bits as usize + width)
            .expect("grid size overflows usize");
        Self {
            n,
            width,
            len_bits,
            present: vec![0; slots.div_ceil(64)],
            slab: vec![0; slab_bits.div_ceil(64)],
        }
    }

    /// The bits a grid of this shape holds — presence plus slab — or `None`
    /// if that overflows. What a decoder checks against its ceiling before
    /// [`BitGrid::new`] allocates.
    pub fn storage_bits(n: usize, width: usize) -> Option<usize> {
        let per_slot = 1 + bits_for(width.checked_add(1)?) as usize + width;
        n.checked_mul(n)?.checked_mul(per_slot)
    }

    /// Side length: the grid has `n × n` slots.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The longest string a slot holds.
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn stride(&self) -> usize {
        self.len_bits as usize + self.width
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.n && col < self.n,
            "slot ({row}, {col}) out of range {}",
            self.n
        );
        row * self.n + col
    }

    #[inline]
    fn is_present(&self, i: usize) -> bool {
        self.present[i / 64] >> (i % 64) & 1 == 1
    }

    /// The string in slot `i`, which the caller knows is present.
    #[inline]
    fn read(&self, i: usize) -> BitVec {
        let stride = self.stride();
        if stride > 64 {
            return self.read_wide(i * stride);
        }
        // The whole slot in one load: the length, then the string.
        let slot = load_bits(&self.slab, i * stride, stride as u32);
        let len = slot & low_bits(self.len_bits);
        BitVec::from_word(slot >> self.len_bits & low_bits(len as u32), len as usize)
    }

    /// [`BitGrid::read`] for slots wider than one word, at bit `pos`.
    #[inline(never)]
    fn read_wide(&self, pos: usize) -> BitVec {
        let start = pos + self.len_bits as usize;
        let len = load_bits(&self.slab, pos, self.len_bits) as usize;
        let mut bits = BitVec::zeros(len);
        for off in (0..len).step_by(64) {
            let w = 64.min(len - off) as u32;
            bits.store(off, w, load_bits(&self.slab, start + off, w));
        }
        bits
    }

    /// The string in slot `(row, col)`, if present.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<BitVec> {
        let i = self.index(row, col);
        self.is_present(i).then(|| self.read(i))
    }

    /// Stores `bits` in slot `(row, col)`, returning what it displaced.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or `bits` is wider than the grid.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, bits: &BitVec) -> Option<BitVec> {
        assert!(
            bits.len() <= self.width,
            "a {}-bit string does not fit a {}-bit grid",
            bits.len(),
            self.width
        );
        let i = self.index(row, col);
        let displaced = self.is_present(i).then(|| self.read(i));
        let stride = self.stride();
        let pos = i * stride;
        let len = bits.len() as u64;
        // Block padding past the end is zero, so each word fits its width.
        let words = bits.words();
        if stride <= 64 {
            let word = words.first().map_or(0, |&w| w << self.len_bits);
            store_bits(&mut self.slab, pos, stride as u32, len | word);
        } else {
            let start = pos + self.len_bits as usize;
            store_bits(&mut self.slab, pos, self.len_bits, len);
            for (k, &word) in words.iter().enumerate() {
                let off = k * 64;
                store_bits(
                    &mut self.slab,
                    start + off,
                    64.min(bits.len() - off) as u32,
                    word,
                );
            }
        }
        self.present[i / 64] |= 1 << (i % 64);
        displaced
    }

    /// Empties slot `(row, col)`, returning what it held.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    #[inline]
    pub fn take(&mut self, row: usize, col: usize) -> Option<BitVec> {
        let i = self.index(row, col);
        let held = self.is_present(i).then(|| self.read(i));
        self.present[i / 64] &= !(1 << (i % 64));
        held
    }

    /// Empties every slot: zeroes the `n²`-bit presence bitset and nothing
    /// else.
    pub fn clear(&mut self) {
        self.present.fill(0);
    }

    /// Number of present slots.
    pub fn present_count(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The present slot indices, ascending — one pass over the presence
    /// words.
    fn present_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Every present slot as `(row, col, string)`, in ascending row-major
    /// order — one pass over the presence words, `O(n²/64 + present)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, BitVec)> + '_ {
        self.present_slots()
            .map(|i| (i / self.n, i % self.n, self.read(i)))
    }

    /// Every present slot as `(row, col, string length)`, in the order of
    /// [`BitGrid::iter`], reading only each slot's length prefix — no
    /// string is built.
    pub fn lens(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let stride = self.stride();
        self.present_slots().map(move |i| {
            let len = load_bits(&self.slab, i * stride, self.len_bits) as usize;
            (i / self.n, i % self.n, len)
        })
    }

    /// The present slots of column `col` as `(row, string)`, in ascending
    /// row order.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> Column<'_> {
        assert!(col < self.n, "column {col} out of range {}", self.n);
        Column {
            grid: self,
            col,
            row: 0,
        }
    }

    /// Heap bytes held: the presence words plus the slab.
    pub fn heap_bytes(&self) -> usize {
        (self.present.capacity() + self.slab.capacity()) * std::mem::size_of::<u64>()
    }
}

/// The low `k` (≤ 64) bits set.
#[inline]
fn low_bits(k: u32) -> u64 {
    u64::MAX.checked_shr(64 - k).unwrap_or(0)
}

/// Logical equality: the same side length and the same present strings.
/// Width and the stale bits behind empty slots do not take part.
impl PartialEq for BitGrid {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.iter().eq(other.iter())
    }
}

impl Eq for BitGrid {}

impl fmt::Debug for BitGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Slots<'a>(&'a BitGrid);
        impl fmt::Debug for Slots<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(row, col, bits)| ((row, col), bits)))
                    .finish()
            }
        }
        f.debug_struct("BitGrid")
            .field("n", &self.n)
            .field("width", &self.width)
            .field("slots", &Slots(self))
            .finish()
    }
}

/// One column's present slots (see [`BitGrid::column`]).
#[derive(Debug, Clone)]
pub struct Column<'a> {
    grid: &'a BitGrid,
    col: usize,
    row: usize,
}

impl Iterator for Column<'_> {
    type Item = (usize, BitVec);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let n = self.grid.n;
        while self.row < n {
            let row = self.row;
            self.row += 1;
            let i = row * n + self.col;
            if self.grid.is_present(i) {
                return Some((row, self.grid.read(i)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_matches_the_layout() {
        // n = 1024 at bandwidth 20: 1 presence + 5 length + 20 payload bits.
        assert_eq!(BitGrid::storage_bits(1024, 20), Some(26 << 20));
        assert_eq!(BitGrid::new(1024, 20).heap_bytes(), (26 << 20) / 8);
        assert_eq!(BitGrid::storage_bits(4, 0), Some(16));
        assert_eq!(BitGrid::storage_bits(1 << 33, 1), None);
        assert_eq!(BitGrid::storage_bits(2, usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_rejects_a_string_wider_than_the_grid() {
        BitGrid::new(2, 3).set(0, 1, &BitVec::zeros(4));
    }

    #[test]
    fn lens_follow_iter_across_word_boundaries() {
        // Width 70: every slot spans two words; width 5: slots straddle them.
        for width in [0, 5, 70] {
            let mut grid = BitGrid::new(5, width);
            for (row, col) in [(0, 1), (2, 2), (4, 0), (3, 4)] {
                let len = (row * 7 + col * 3) % (width + 1);
                grid.set(row, col, &BitVec::from_fn(len, |i| i % 3 == 0));
            }
            grid.set(1, 3, &BitVec::new());
            let expected: Vec<_> = grid.iter().map(|(r, c, b)| (r, c, b.len())).collect();
            assert_eq!(grid.lens().collect::<Vec<_>>(), expected, "width {width}");
        }
    }

    #[test]
    fn a_zero_width_grid_holds_empty_strings() {
        let mut grid = BitGrid::new(3, 0);
        grid.set(2, 1, &BitVec::new());
        assert_eq!(grid.get(2, 1), Some(BitVec::new()));
        assert_eq!(grid.take(2, 1), Some(BitVec::new()));
        assert_eq!(grid.get(2, 1), None);
    }
}

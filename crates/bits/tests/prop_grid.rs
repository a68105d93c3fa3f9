//! Property tests for `BitGrid` against a `Vec<Option<BitVec>>` reference
//! matrix: the same strings by probe, by row-major walk and by column walk,
//! through any sequence of sets, takes and whole-grid clears — and nothing
//! a clear left behind in the slab is ever observable.

use bdclique_bits::{BitGrid, BitVec};
use proptest::prelude::*;

/// One-bit outputs, the benchmark's bandwidth, both sides of the inline
/// block, and the bandwidth `conformance.rs` runs.
const WIDTHS: [usize; 5] = [1, 20, 64, 65, 72];

/// Row-major `n × n` reference matrix.
type Model = Vec<Option<BitVec>>;

fn payload(seed: u64, len: usize) -> BitVec {
    BitVec::from_fn(len, |i| (seed >> (i % 64)) & 1 == 1)
}

/// A grid holding exactly the model's strings, built fresh (no stale bits).
fn fresh(n: usize, width: usize, model: &Model) -> BitGrid {
    let mut grid = BitGrid::new(n, width);
    for (i, slot) in model.iter().enumerate() {
        if let Some(bits) = slot {
            grid.set(i / n, i % n, bits);
        }
    }
    grid
}

fn assert_matches(grid: &BitGrid, n: usize, width: usize, model: &Model) {
    for (i, slot) in model.iter().enumerate() {
        let (row, col) = (i / n, i % n);
        assert_eq!(grid.get(row, col), *slot, "slot ({row}, {col})");
    }
    let walked: Vec<_> = grid.iter().collect();
    let expected: Vec<_> = model
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.clone().map(|bits| (i / n, i % n, bits)))
        .collect();
    assert_eq!(walked, expected, "row-major walk");
    for col in 0..n {
        let walked: Vec<_> = grid.column(col).collect();
        let expected: Vec<_> = (0..n)
            .filter_map(|row| model[row * n + col].clone().map(|bits| (row, bits)))
            .collect();
        assert_eq!(walked, expected, "column {col}");
    }
    assert_eq!(grid.present_count(), expected.len());
    assert_eq!(*grid, fresh(n, width, model), "logical equality");
}

proptest! {
    /// Random op sequences, each op checked against the model. Lengths run
    /// over `0..=width`, so empty-but-present strings and full-width ones
    /// share a grid, and a short string lands on slab bits a longer one or
    /// a cleared round left behind.
    #[test]
    fn op_sequences_match_the_slot_matrix(
        n in 1usize..9,
        pick in 0usize..WIDTHS.len(),
        ops in prop::collection::vec(
            (0u8..8, any::<usize>(), any::<usize>(), any::<u64>()),
            1..80,
        ),
    ) {
        let width = WIDTHS[pick];
        let mut grid = BitGrid::new(n, width);
        let mut model: Model = vec![None; n * n];
        for (kind, slot, len, seed) in ops {
            let i = slot % (n * n);
            let (row, col) = (i / n, i % n);
            match kind {
                0..=4 => {
                    let bits = payload(seed, len % (width + 1));
                    prop_assert_eq!(grid.set(row, col, &bits), model[i].replace(bits));
                }
                5 | 6 => prop_assert_eq!(grid.take(row, col), model[i].take()),
                _ => {
                    grid.clear();
                    model.fill(None);
                }
            }
            assert_matches(&grid, n, width, &model);
        }
    }

    /// After `clear()` the grid equals an empty one and a fresh one holding
    /// only what was written since: no earlier payload survives through
    /// `get`, a walk or `==`, even where the new string is shorter.
    #[test]
    fn clear_hides_every_earlier_payload(
        n in 1usize..7,
        pick in 0usize..WIDTHS.len(),
        seed in any::<u64>(),
        rewrites in prop::collection::vec((any::<usize>(), any::<usize>()), 0..10),
    ) {
        let width = WIDTHS[pick];
        let mut grid = BitGrid::new(n, width);
        for i in 0..n * n {
            grid.set(i / n, i % n, &payload(!seed, width));
        }
        grid.clear();
        prop_assert_eq!(&grid, &BitGrid::new(n, width));
        prop_assert!(grid.iter().next().is_none());
        let mut model: Model = vec![None; n * n];
        for (slot, len) in rewrites {
            let i = slot % (n * n);
            let bits = payload(seed, len % (width + 1));
            grid.set(i / n, i % n, &bits);
            model[i] = Some(bits);
        }
        assert_matches(&grid, n, width, &model);
    }
}

/// Every length from zero to the width, side by side in one grid.
#[test]
fn every_length_up_to_the_width_shares_one_grid() {
    for width in WIDTHS {
        let n = 9;
        let model: Model = (0..n * n)
            .map(|i| Some(payload(0x9e37_79b9_7f4a_7c15 ^ i as u64, i % (width + 1))))
            .collect();
        assert_matches(&fresh(n, width, &model), n, width, &model);
    }
}

/// Equality is logical: a present empty string differs from an absent
/// slot, and the width a grid was built at does not take part.
#[test]
fn equality_compares_present_strings_only() {
    let mut a = BitGrid::new(3, 4);
    let b = BitGrid::new(3, 72);
    assert_eq!(a, b);
    a.set(1, 2, &BitVec::new());
    assert_ne!(a, b);
    assert_ne!(BitGrid::new(2, 4), BitGrid::new(3, 4));
}

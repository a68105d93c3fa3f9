//! The two frame-store representations and the cross-round allocation arena.
//!
//! One round of clique traffic is logically an `n × n` matrix of optional
//! frames, but the paper's protocols are *sparse* most rounds: the √n-relay
//! waves, the cover-free router, and the relay-replication hops each queue
//! `O(n·k)` frames with `k ≪ n`. Materializing the dense matrix costs
//! `Θ(n²)` bits of allocation and touch per round, so those rounds stay
//! `O(frames)`.
//!
//! [`FrameStore`] keeps both representations behind one interface:
//!
//! * **Dense** — one row-major [`BitGrid`] at the round's bandwidth: a
//!   presence bit plus a length-prefixed, bandwidth-wide slot per pair,
//!   ≈ 3.4 MB at `n = 1024` and bandwidth 20; optimal for full-matrix
//!   rounds (`NaiveExchange`, the compiler's direct exchanges). Slots keep
//!   their own length because a round may mix widths: a corrupting
//!   adversary may replace any frame with up to `bandwidth` bits.
//! * **Sparse** — per-sender sorted adjacency rows `Vec<(to, frame)>`;
//!   `O(frames)` memory, `O(log deg)` lookups, and ascending-id iteration
//!   that keeps every consumer deterministic.
//!
//! [`crate::Traffic`] starts sparse and **densifies** when the load factor
//! crosses [`DENSE_SWITCH_DIVISOR`] (frames ≥ n²/16). The load factor is the
//! only selector: nothing can pin a representation. Both stay because each
//! wins on its side of the switch and the benchmark has a workload on each:
//! never densifying costs the full-load `naive-stream` and
//! `hypercube-matchings` rounds a third or more of their `trial_s`, while
//! the routed rounds of `sqrt-clean` sit below the threshold and stay
//! `O(frames)` (the measured pairs are in ROADMAP.md).
//!
//! [`FrameArena`] amortizes the remaining per-round allocations across
//! rounds: emptied adjacency tables (with their capacity) and the dense
//! grids themselves are pooled on the owning [`crate::Network`] and
//! reissued instead of reallocated. Emptying a grid zeroes its `n²`-bit
//! presence bitset only (128 KB at `n = 1024`); frames are read out by
//! value, so no frame owns an allocation to recycle.

use bdclique_bits::{BitGrid, BitVec};

/// Auto-switch threshold: a sparse store densifies once
/// `frame_count · DENSE_SWITCH_DIVISOR ≥ n²` (load factor ≥ 1/16). Below it
/// the adjacency rows win on memory and iteration; above it the flat grid
/// wins on lookup and insert. 1/16 keeps genuinely sparse rounds (≤1% load)
/// far from the switch while full-matrix rounds (NaiveExchange) pay for at
/// most a 1/16 prefix of sparse inserts before landing on the flat grid.
pub const DENSE_SWITCH_DIVISOR: u64 = 16;

/// Upper bound on pooled adjacency tables (rows + inbox columns of one
/// round are at most `2n`; the cap just bounds a pathological caller).
const MAX_POOLED_TABLES: usize = 1 << 16;
/// Upper bound on pooled dense grids: one for the traffic being built plus
/// one for the delivery still being consumed.
const MAX_POOLED_MATRICES: usize = 2;

/// One sparse adjacency table: `(peer, frame)` pairs sorted by peer id.
/// Used both sender-major (traffic rows) and receiver-major (delivery
/// inbox columns).
pub(crate) type AdjTable = Vec<(u32, BitVec)>;

/// Cross-round pool of the allocations the round pipeline would otherwise
/// make fresh every round. Owned by the [`crate::Network`]; fed by
/// [`crate::Network::reclaim`] and the internal queue→deliver conversion.
#[derive(Debug, Default)]
pub(crate) struct FrameArena {
    tables: Vec<AdjTable>,
    /// Spent dense grids, every slot empty. Rounds that auto-densify reuse
    /// one instead of allocating and zeroing a fresh `n²`-slot slab.
    matrices: Vec<BitGrid>,
}

impl FrameArena {
    /// A recycled (empty, capacity-preserving) adjacency table.
    fn take_table(&mut self) -> AdjTable {
        self.tables.pop().unwrap_or_default()
    }

    /// `n` recycled adjacency tables.
    pub(crate) fn take_tables(&mut self, n: usize) -> Vec<AdjTable> {
        (0..n).map(|_| self.take_table()).collect()
    }

    /// Returns a table to the pool, dropping any leftover frames.
    pub(crate) fn put_table(&mut self, mut table: AdjTable) {
        table.clear();
        if self.tables.len() < MAX_POOLED_TABLES {
            self.tables.push(table);
        }
    }

    /// Drains a round-local arena's tables and grids into this one (up to
    /// the caps) — how a [`crate::Traffic`]'s recycling rejoins the
    /// network-wide arena at exchange time.
    pub(crate) fn absorb(&mut self, mut other: FrameArena) {
        while self.tables.len() < MAX_POOLED_TABLES {
            match other.tables.pop() {
                Some(t) => self.tables.push(t),
                None => break,
            }
        }
        while self.matrices.len() < MAX_POOLED_MATRICES {
            match other.matrices.pop() {
                Some(m) => self.matrices.push(m),
                None => break,
            }
        }
    }

    /// Empties a dense grid — its presence bitset, nothing else — and keeps
    /// it for the next densified round.
    pub(crate) fn put_matrix(&mut self, mut grid: BitGrid) {
        if self.matrices.len() < MAX_POOLED_MATRICES {
            grid.clear();
            self.matrices.push(grid);
        }
    }

    /// An empty `n × n` grid of `width`-bit slots, recycled when a pooled
    /// grid of that shape exists.
    pub(crate) fn take_matrix(&mut self, n: usize, width: usize) -> BitGrid {
        match self.matrices.pop() {
            Some(g) if g.n() == n && g.width() == width => g,
            _ => BitGrid::new(n, width),
        }
    }

    /// Moves one pooled grid into `other` (a round-local arena), so an
    /// auto-densify inside the round can reuse it. Unused, it rejoins this
    /// arena through [`FrameArena::absorb`] at exchange time.
    pub(crate) fn lend_matrix(&mut self, other: &mut FrameArena) {
        if let Some(m) = self.matrices.pop() {
            other.matrices.push(m);
        }
    }

    /// Pooled adjacency-table count — an observable for tests asserting
    /// that reclamation actually recycles.
    #[cfg(test)]
    pub(crate) fn pooled_tables(&self) -> usize {
        self.tables.len()
    }

    /// Pooled dense-grid count — test observable.
    #[cfg(test)]
    pub(crate) fn pooled_matrices(&self) -> usize {
        self.matrices.len()
    }
}

/// The frame matrix of one round, in either representation.
#[derive(Debug)]
pub(crate) enum FrameStore {
    /// Row-major grid, slot `(from, to)`, as wide as the bandwidth.
    Dense(BitGrid),
    /// `rows[from]` sorted by `to`.
    Sparse(Vec<AdjTable>),
}

impl FrameStore {
    pub(crate) fn new_sparse(n: usize) -> Self {
        FrameStore::Sparse(vec![AdjTable::new(); n])
    }

    /// A sparse store whose row tables come from the arena.
    pub(crate) fn new_sparse_in(n: usize, arena: &mut FrameArena) -> Self {
        FrameStore::Sparse(arena.take_tables(n))
    }

    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, FrameStore::Sparse(_))
    }

    pub(crate) fn get(&self, from: usize, to: usize) -> Option<BitVec> {
        match self {
            FrameStore::Dense(grid) => grid.get(from, to),
            FrameStore::Sparse(rows) => {
                let row = &rows[from];
                row.binary_search_by_key(&(to as u32), |&(t, _)| t)
                    .ok()
                    .map(|i| row[i].1.clone())
            }
        }
    }

    /// Replaces the slot `from → to`, returning the displaced frame.
    pub(crate) fn replace(
        &mut self,
        from: usize,
        to: usize,
        bits: Option<BitVec>,
    ) -> Option<BitVec> {
        match self {
            FrameStore::Dense(grid) => match &bits {
                Some(b) => grid.set(from, to, b),
                None => grid.take(from, to),
            },
            FrameStore::Sparse(rows) => {
                let row = &mut rows[from];
                let key = to as u32;
                // Fast path: protocol send loops walk targets in ascending
                // id order, so the overwhelmingly common insert is a tail
                // append.
                if row.last().is_none_or(|&(t, _)| t < key) {
                    if let Some(b) = bits {
                        row.push((key, b));
                    }
                    return None;
                }
                match row.binary_search_by_key(&key, |&(t, _)| t) {
                    Ok(i) => match bits {
                        Some(b) => Some(std::mem::replace(&mut row[i].1, b)),
                        None => Some(row.remove(i).1),
                    },
                    Err(i) => {
                        if let Some(b) = bits {
                            row.insert(i, (key, b));
                        }
                        None
                    }
                }
            }
        }
    }

    /// Visits every frame in ascending `(from, to)` order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, usize, &BitVec)) {
        match self {
            FrameStore::Dense(grid) => {
                for (from, to, bits) in grid.iter() {
                    f(from, to, &bits);
                }
            }
            FrameStore::Sparse(rows) => {
                for (from, row) in rows.iter().enumerate() {
                    for (to, b) in row {
                        f(from, *to as usize, b);
                    }
                }
            }
        }
    }

    /// Visits every frame's length in ascending `(from, to)` order, without
    /// building a frame: the grid reads only each slot's length prefix.
    pub(crate) fn for_each_len(&self, mut f: impl FnMut(usize, usize, usize)) {
        match self {
            // Internal iteration: `for_each` lets the grid's nested word /
            // bit walk fold in place instead of resuming through `next`.
            FrameStore::Dense(grid) => grid.lens().for_each(|(from, to, len)| f(from, to, len)),
            FrameStore::Sparse(rows) => {
                for (from, row) in rows.iter().enumerate() {
                    for (to, b) in row {
                        f(from, *to as usize, b.len());
                    }
                }
            }
        }
    }

    /// Converts sparse rows into the dense grid (the load-factor switch).
    /// The spent row tables go back to the arena, and the grid is drawn
    /// from the arena's pool.
    pub(crate) fn densify(&mut self, n: usize, bandwidth: usize, arena: &mut FrameArena) {
        if let FrameStore::Sparse(rows) = self {
            let mut grid = arena.take_matrix(n, bandwidth);
            for (from, mut row) in rows.drain(..).enumerate() {
                for (to, b) in row.drain(..) {
                    grid.set(from, to as usize, &b);
                }
                arena.put_table(row);
            }
            *self = FrameStore::Dense(grid);
        }
    }

    /// Approximate heap bytes held by the store (the grid / adjacency
    /// entries plus the blocks of any sparse frame too wide to sit inline)
    /// — what the benchmark's `netsim.store_bytes_per_frame_*` probes read
    /// on each side of the switch.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            FrameStore::Dense(grid) => grid.heap_bytes(),
            FrameStore::Sparse(rows) => {
                rows.capacity() * std::mem::size_of::<AdjTable>()
                    + rows
                        .iter()
                        .map(|row| {
                            row.capacity() * std::mem::size_of::<(u32, BitVec)>()
                                + row.iter().map(|(_, b)| b.heap_bytes()).sum::<usize>()
                        })
                        .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[bool]) -> BitVec {
        BitVec::from_bools(bits)
    }

    fn new_dense(n: usize, width: usize) -> FrameStore {
        FrameStore::Dense(BitGrid::new(n, width))
    }

    /// A grid with a frame in one slot, to pool.
    fn spent_grid(n: usize, width: usize) -> BitGrid {
        let mut grid = BitGrid::new(n, width);
        grid.set(0, 1, &bv(&[true]));
        grid
    }

    #[test]
    fn sparse_and_dense_agree_on_replace_get() {
        let n = 5;
        let mut dense = new_dense(n, 2);
        let mut sparse = FrameStore::new_sparse(n);
        let ops: &[(usize, usize, Option<&[bool]>)] = &[
            (0, 3, Some(&[true, false])),
            (0, 1, Some(&[true])),
            (0, 3, Some(&[false])), // overwrite with a narrower frame
            (4, 2, Some(&[true, true])),
            (2, 4, Some(&[])), // present but empty
            (0, 1, None),      // clear
            (2, 0, None),      // clear empty slot
        ];
        for &(f, t, bits) in ops {
            let b = bits.map(bv);
            let da = dense.replace(f, t, b.clone());
            let sa = sparse.replace(f, t, b);
            assert_eq!(da, sa, "displaced frames differ at ({f},{t})");
        }
        for f in 0..n {
            for t in 0..n {
                assert_eq!(dense.get(f, t), sparse.get(f, t), "slot ({f},{t})");
            }
        }
    }

    #[test]
    fn for_each_is_ascending_and_identical_across_backends() {
        let n = 4;
        let mut dense = new_dense(n, 2);
        let mut sparse = FrameStore::new_sparse(n);
        for &(f, t) in &[(3usize, 0usize), (1, 2), (0, 3), (1, 0)] {
            let b = bv(&[f % 2 == 0, t % 2 == 0]);
            dense.replace(f, t, Some(b.clone()));
            sparse.replace(f, t, Some(b));
        }
        let collect = |s: &FrameStore| {
            let mut v = Vec::new();
            s.for_each(|f, t, b| v.push((f, t, b.clone())));
            v
        };
        let d = collect(&dense);
        let s = collect(&sparse);
        assert_eq!(d, s);
        let mut sorted = d.clone();
        sorted.sort_by_key(|&(f, t, _)| (f, t));
        assert_eq!(d, sorted, "iteration must be ascending (from, to)");
        let lens: Vec<_> = d.iter().map(|(f, t, b)| (*f, *t, b.len())).collect();
        for store in [&dense, &sparse] {
            let mut walked = Vec::new();
            store.for_each_len(|f, t, len| walked.push((f, t, len)));
            assert_eq!(walked, lens, "the length walk follows for_each");
        }
    }

    #[test]
    fn densify_preserves_contents_and_recycles_tables() {
        let n = 4;
        let mut arena = FrameArena::default();
        let mut store = FrameStore::new_sparse_in(n, &mut arena);
        store.replace(1, 2, Some(bv(&[true])));
        store.replace(3, 0, Some(bv(&[false, true])));
        store.densify(n, 2, &mut arena);
        assert!(!store.is_sparse());
        assert_eq!(store.get(1, 2), Some(bv(&[true])));
        assert_eq!(store.get(3, 0), Some(bv(&[false, true])));
        assert_eq!(store.get(0, 1), None);
        assert_eq!(
            arena.pooled_tables(),
            n,
            "spent rows must return to the arena"
        );
    }

    /// Tables and grids come back; the frames they held are dropped.
    #[test]
    fn arena_recycles_frames_from_tables_and_matrices() {
        let mut arena = FrameArena::default();
        arena.put_table(vec![(7, bv(&[true, true, true]))]);
        assert_eq!(arena.pooled_tables(), 1);
        let table = arena.take_tables(1).pop().expect("one table asked for");
        assert!(table.is_empty(), "a reissued table is clean");
        assert!(table.capacity() >= 1, "and keeps its capacity");
        arena.put_matrix(spent_grid(2, 3));
        assert_eq!(arena.pooled_matrices(), 1);
    }

    #[test]
    fn matrix_buffers_recycle_through_the_arena() {
        let (n, width) = (4, 3);
        let mut arena = FrameArena::default();
        // A spent grid is retained (slots emptied)…
        arena.put_matrix(spent_grid(2, width));
        assert_eq!(arena.pooled_matrices(), 1);
        // …but only a shape-matching one is reissued: side and width.
        let wrong_shape = arena.take_matrix(n, width);
        assert_eq!((wrong_shape.n(), wrong_shape.present_count()), (n, 0));
        assert_eq!(arena.pooled_matrices(), 0);
        arena.put_matrix(spent_grid(n, width + 1));
        assert_eq!(arena.take_matrix(n, width).width(), width);
        arena.put_matrix(spent_grid(n, width));
        let reused = arena.take_matrix(n, width);
        assert_eq!(reused, BitGrid::new(n, width), "reissued grids are clean");
        // Densify draws its grid from the arena instead of allocating.
        arena.put_matrix(reused);
        let mut store = FrameStore::new_sparse(n);
        store.replace(1, 2, Some(bv(&[true])));
        store.densify(n, width, &mut arena);
        assert!(!store.is_sparse());
        assert_eq!(
            arena.pooled_matrices(),
            0,
            "densify consumed the pooled grid"
        );
        assert_eq!(store.get(1, 2), Some(bv(&[true])));
        assert_eq!(store.get(0, 1), None, "the pooled grid's frame is gone");
    }

    /// One frame per sender at `n = 1024` and the benchmark's bandwidth 20:
    /// the rows hold ~190 KB, the grid its fixed ~3.4 MB.
    #[test]
    fn sparse_heap_bytes_tracks_occupancy_not_n_squared() {
        let n = 1024;
        let mut sparse = FrameStore::new_sparse(n);
        let mut dense = new_dense(n, 20);
        for f in 0..n {
            sparse.replace(f, (f + 1) % n, Some(bv(&[true])));
            dense.replace(f, (f + 1) % n, Some(bv(&[true])));
        }
        assert!(
            sparse.heap_bytes() * 10 < dense.heap_bytes(),
            "sparse {} vs dense {}",
            sparse.heap_bytes(),
            dense.heap_bytes()
        );
    }
}

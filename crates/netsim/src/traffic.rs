//! Per-round message matrices: what nodes intend to send, and what arrives.

use crate::store::{FrameArena, FrameStore, DENSE_SWITCH_DIVISOR};
use crate::topology::Topology;
use bdclique_bits::{BitGrid, BitVec, Column};
use bdclique_snapshot::{Dec, Enc, SnapError};
use std::sync::Arc;

/// The messages all nodes intend to send in one round.
///
/// Logically an `n × n` matrix of optional frames (a frame is at most
/// `bandwidth` bits; self-loops are not part of the clique and are
/// rejected), physically one of two frame stores selected by load factor:
/// rounds start on sparse per-sender adjacency rows and **densify** once
/// `frame_count ≥ n²/16`, so sparse protocol rounds cost `O(frames)` while
/// full-matrix rounds get a flat [`BitGrid`] as wide as the bandwidth.
///
/// Aggregate volume ([`Traffic::total_bits`], [`Traffic::frame_count`]) is
/// maintained incrementally on every mutation, so both accessors are O(1) —
/// the round pipeline reads them several times per round and must not pay a
/// rescan each time.
#[derive(Debug)]
pub struct Traffic {
    n: usize,
    bandwidth: usize,
    store: FrameStore,
    total_bits: u64,
    frame_count: u64,
    /// Sparse communication graph to validate sends against; `None` on the
    /// clique (and for handle-less [`Traffic::new`] traffic), where every
    /// pair is an edge and per-frame checks would be pure overhead.
    topology: Option<Arc<Topology>>,
    /// Round-local recycling: the lent dense grid and the tables spent
    /// by densification pool here, and rejoin the network-wide arena when
    /// the round is exchanged.
    arena: FrameArena,
}

impl Traffic {
    /// Creates an empty round of traffic for `n` nodes and a bandwidth of
    /// `bandwidth` bits per ordered pair. Starts on the sparse store and
    /// densifies by load factor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `bandwidth == 0`.
    pub fn new(n: usize, bandwidth: usize) -> Self {
        Self::build(n, bandwidth, FrameStore::new_sparse(n))
    }

    /// Arena-backed constructor used by [`crate::Network::traffic`]: the
    /// sparse row tables are recycled from previous rounds, and one pooled
    /// dense grid rides along so a densify inside the round reuses it
    /// instead of allocating a fresh `n²`-slot slab (unused, it rejoins the
    /// network arena at exchange time).
    pub(crate) fn new_in(
        n: usize,
        bandwidth: usize,
        arena: &mut FrameArena,
        topology: &Arc<Topology>,
    ) -> Self {
        let store = FrameStore::new_sparse_in(n, arena);
        let mut traffic = Self::build(n, bandwidth, store);
        if !topology.is_complete() {
            traffic.topology = Some(Arc::clone(topology));
        }
        arena.lend_matrix(&mut traffic.arena);
        traffic
    }

    fn build(n: usize, bandwidth: usize, store: FrameStore) -> Self {
        assert!(n >= 2, "a clique needs at least two nodes");
        assert!(bandwidth > 0, "bandwidth must be positive");
        assert!(n <= u32::MAX as usize, "node ids must fit in u32");
        Self {
            n,
            bandwidth,
            store,
            total_bits: 0,
            frame_count: 0,
            topology: None,
            arena: FrameArena::default(),
        }
    }

    /// Whether this traffic validates sends against a sparse topology.
    pub(crate) fn has_topology(&self) -> bool {
        self.topology.is_some()
    }

    /// Asserts that every queued frame rides a topology edge — the
    /// exchange-time re-check for traffic built without a handle.
    /// `O(frames)`.
    pub(crate) fn assert_on_topology(&self, topo: &Topology) {
        self.for_each_frame(|from, to, _| {
            assert!(
                topo.contains(from, to),
                "frame queued on ({from}, {to}), which is not a topology edge"
            );
        });
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth in bits per ordered pair per round.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Approximate heap bytes held by the frame store: `O(frames)` on the
    /// sparse rows, `n²` bandwidth-wide slots of bits once densified.
    pub fn store_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    /// Whether the round has switched to the dense grid. The load factor
    /// alone decides; a densified round never goes back.
    pub fn is_dense(&self) -> bool {
        !self.store.is_sparse()
    }

    #[inline]
    fn check_slot(&self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "node id out of range");
        assert_ne!(from, to, "no self-loops in the clique");
    }

    /// Queues `bits` on the edge `from → to`, replacing any previous frame.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids, self-loops, or frames longer than the
    /// bandwidth.
    pub fn send(&mut self, from: usize, to: usize, bits: BitVec) {
        assert!(
            bits.len() <= self.bandwidth,
            "frame of {} bits exceeds bandwidth {}",
            bits.len(),
            self.bandwidth
        );
        self.set_frame(from, to, Some(bits));
    }

    /// Removes the frame on `from → to`, if any.
    pub fn clear(&mut self, from: usize, to: usize) {
        self.set_frame(from, to, None);
    }

    /// The frame queued on `from → to` (a copy; inline, so
    /// allocation-free, up to 64 bits).
    pub fn frame(&self, from: usize, to: usize) -> Option<BitVec> {
        self.check_slot(from, to);
        self.store.get(from, to)
    }

    /// Visits every queued frame in ascending `(from, to)` order —
    /// `O(frames)` on the sparse store, the substrate behind
    /// adversary busy-edge scans.
    pub fn for_each_frame(&self, f: impl FnMut(usize, usize, &BitVec)) {
        self.store.for_each(f);
    }

    /// [`Traffic::for_each_frame`] with the frame's length in place of the
    /// frame: no frame is built.
    pub(crate) fn for_each_frame_len(&self, f: impl FnMut(usize, usize, usize)) {
        self.store.for_each_len(f);
    }

    /// Replaces the slot `from → to`, keeps the volume counters in sync, and
    /// returns the previous frame. All mutation funnels through here so the
    /// counters can never drift from the matrix.
    pub(crate) fn set_frame(
        &mut self,
        from: usize,
        to: usize,
        bits: Option<BitVec>,
    ) -> Option<BitVec> {
        self.check_slot(from, to);
        if let (Some(topo), Some(_)) = (&self.topology, &bits) {
            assert!(
                topo.contains(from, to),
                "({from}, {to}) is not a topology edge"
            );
        }
        if let Some(new) = &bits {
            self.total_bits += new.len() as u64;
            self.frame_count += 1;
        }
        let prev = self.store.replace(from, to, bits);
        if let Some(old) = &prev {
            self.total_bits -= old.len() as u64;
            self.frame_count -= 1;
        }
        if self.store.is_sparse()
            && self.frame_count * DENSE_SWITCH_DIVISOR >= (self.n * self.n) as u64
        {
            self.store.densify(self.n, self.bandwidth, &mut self.arena);
        }
        prev
    }

    /// Total bits queued this round. O(1).
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Number of non-empty frames queued this round. O(1).
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Converts queued traffic into its delivered form. Sparse rounds
    /// transpose sender rows into per-receiver inboxes **by move**
    /// (`O(frames)`, no clone); the spent row tables return to `arena`.
    pub(crate) fn into_delivery(mut self, arena: &mut FrameArena) -> Delivery {
        let n = self.n;
        arena.absorb(std::mem::take(&mut self.arena));
        match self.store {
            FrameStore::Dense(grid) => Delivery {
                n,
                repr: DeliveryRepr::Dense(grid),
            },
            FrameStore::Sparse(rows) => {
                let mut cols = arena.take_tables(n);
                for (from, mut row) in rows.into_iter().enumerate() {
                    // Rows are visited in ascending `from`, so every inbox
                    // column ends up sorted by sender with plain pushes.
                    for (to, bits) in row.drain(..) {
                        cols[to as usize].push((from as u32, bits));
                    }
                    arena.put_table(row);
                }
                Delivery {
                    n,
                    repr: DeliveryRepr::Sparse(cols),
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum DeliveryRepr {
    /// Row-major grid, slot `(from, to)` (dense rounds).
    Dense(BitGrid),
    /// Per-receiver inbox `cols[to]`, sorted by sender (sparse rounds).
    Sparse(Vec<Vec<(u32, BitVec)>>),
}

/// The messages actually delivered in one round (after adversarial
/// corruption).
///
/// Receivers can either probe one slot ([`Delivery::received`]) or walk
/// their whole inbox in one pass ([`Delivery::inbox_of`]); the latter is
/// `O(frames received)` on sparse rounds instead of `O(n)` probes per node.
#[derive(Debug, Clone)]
pub struct Delivery {
    n: usize,
    repr: DeliveryRepr,
}

impl Delivery {
    /// The frame node `to` received from node `from`, or `None` when the
    /// sender sent nothing (or the adversary suppressed the frame). A copy;
    /// inline, so allocation-free, up to 64 bits.
    pub fn received(&self, to: usize, from: usize) -> Option<BitVec> {
        assert!(from < self.n && to < self.n, "node id out of range");
        assert_ne!(from, to, "no self-loops in the clique");
        match &self.repr {
            DeliveryRepr::Dense(grid) => grid.get(from, to),
            DeliveryRepr::Sparse(cols) => {
                let col = &cols[to];
                col.binary_search_by_key(&(from as u32), |&(f, _)| f)
                    .ok()
                    .map(|i| col[i].1.clone())
            }
        }
    }

    /// Iterates node `to`'s inbox as `(sender, frame)` pairs in ascending
    /// sender order, frames by value. `O(frames received)` on sparse
    /// rounds; one presence bit per sender on dense ones.
    pub fn inbox_of(&self, to: usize) -> Inbox<'_> {
        assert!(to < self.n, "node id out of range");
        Inbox(match &self.repr {
            DeliveryRepr::Dense(grid) => InboxRepr::Dense(grid.column(to)),
            DeliveryRepr::Sparse(cols) => InboxRepr::Sparse(cols[to].iter()),
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Consumes the delivery into per-receiver inboxes: `inboxes[to]` holds
    /// `(sender, frame)` pairs in ascending sender order, **moved** out of
    /// the delivery. The consuming complement of [`Delivery::inbox_of`] for
    /// forwarding paths (relays) that would otherwise clone every frame.
    pub fn into_inboxes(self) -> Vec<Vec<(u32, BitVec)>> {
        match self.repr {
            DeliveryRepr::Sparse(cols) => cols,
            DeliveryRepr::Dense(grid) => {
                // Row-major order visits senders ascending, so every inbox
                // column ends up sorted by sender with plain pushes.
                let mut cols: Vec<Vec<(u32, BitVec)>> = vec![Vec::new(); self.n];
                for (from, to, bits) in grid.iter() {
                    cols[to].push((from as u32, bits));
                }
                cols
            }
        }
    }

    /// Serializes the delivery, representation-exact (a dense delivery
    /// restores dense), so re-encoding the restored value is
    /// byte-identical.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        match &self.repr {
            DeliveryRepr::Dense(grid) => {
                enc.put_u8(0);
                enc.put_usize(grid.present_count());
                for (from, to, bits) in grid.iter() {
                    enc.put_u64((from * self.n + to) as u64);
                    enc.put_bits(&bits);
                }
            }
            DeliveryRepr::Sparse(cols) => {
                enc.put_u8(1);
                for col in cols {
                    enc.put_seq(col, |e, (from, bits)| {
                        e.put_u32(*from);
                        e.put_bits(bits);
                    });
                }
            }
        }
    }

    /// Rebuilds a delivery serialized by [`Delivery::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    pub fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        // `n` and the grid's bits must be bounded *before* the grid is
        // allocated, or a corrupt snapshot can request a multi-gigabyte
        // allocation and abort (the overflow check alone does not bound the
        // magnitude — caught by the validate-before-alloc lint). A dense
        // delivery allocates `n²·(1 + ⌈log2(w + 1)⌉ + w)` bits for its
        // widest frame `w`, only once its frames have been read and
        // validated. The ceilings sit far above any supported simulation:
        // 2 GiB of grid admits `n = 16384` with frames of up to 57 bits
        // (the registry's widest is 36), the largest deployment the bench
        // grids reach.
        const MAX_NODES: usize = 1 << 17;
        const MAX_DENSE_BITS: u64 = 1 << 34;
        let n = dec.get_usize()?;
        if !(2..=MAX_NODES).contains(&n) {
            return Err(SnapError::corrupt(format!("delivery n = {n} out of range")));
        }
        let repr = match dec.get_u8()? {
            0 => {
                let count = dec.get_len(9)?;
                let slots = n as u64 * n as u64;
                let mut frames = Vec::new();
                let mut last: Option<u64> = None;
                for _ in 0..count {
                    let i = dec.get_u64()?;
                    if i >= slots {
                        return Err(SnapError::corrupt("delivery slot out of range"));
                    }
                    if last.is_some_and(|prev| prev >= i) {
                        return Err(SnapError::corrupt("delivery slots out of order"));
                    }
                    last = Some(i);
                    frames.push((i as usize, dec.get_bits()?));
                }
                let width = frames.iter().map(|(_, bits)| bits.len()).max().unwrap_or(0);
                if BitGrid::storage_bits(n, width).is_none_or(|bits| bits as u64 > MAX_DENSE_BITS) {
                    return Err(SnapError::corrupt(format!(
                        "dense delivery n = {n}, widest frame {width} bits: too large"
                    )));
                }
                let mut grid = BitGrid::new(n, width);
                for (i, bits) in &frames {
                    grid.set(i / n, i % n, bits);
                }
                DeliveryRepr::Dense(grid)
            }
            1 => {
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    let col = dec.get_seq(5, |d| {
                        let from = d.get_u32()?;
                        if from as usize >= n {
                            return Err(SnapError::corrupt("delivery sender out of range"));
                        }
                        Ok((from, d.get_bits()?))
                    })?;
                    if col.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return Err(SnapError::corrupt("delivery inbox out of order"));
                    }
                    cols.push(col);
                }
                DeliveryRepr::Sparse(cols)
            }
            t => return Err(SnapError::corrupt(format!("delivery tag {t}"))),
        };
        Ok(Self { n, repr })
    }

    /// Hands the delivery's tables or dense grid to `arena` — the
    /// [`crate::Network::reclaim`] implementation.
    pub(crate) fn recycle_into(self, arena: &mut FrameArena) {
        match self.repr {
            DeliveryRepr::Dense(grid) => arena.put_matrix(grid),
            DeliveryRepr::Sparse(cols) => {
                for col in cols {
                    arena.put_table(col);
                }
            }
        }
    }
}

/// Logical equality across representations: every receiver's inbox matches.
impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && (0..self.n).all(|to| self.inbox_of(to).eq(other.inbox_of(to)))
    }
}

impl Eq for Delivery {}

/// Iterator over one receiver's inbox (see [`Delivery::inbox_of`]).
#[derive(Debug)]
pub struct Inbox<'a>(InboxRepr<'a>);

#[derive(Debug)]
enum InboxRepr<'a> {
    Dense(Column<'a>),
    Sparse(std::slice::Iter<'a, (u32, BitVec)>),
}

impl Iterator for Inbox<'_> {
    type Item = (usize, BitVec);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            InboxRepr::Dense(column) => column.next(),
            InboxRepr::Sparse(iter) => iter.next().map(|(f, b)| (*f as usize, b.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(t: Traffic) -> Delivery {
        t.into_delivery(&mut FrameArena::default())
    }

    /// Empty traffic already on the dense store: load it past the switch,
    /// then clear it again (a densified round never goes back).
    fn densified(n: usize, bandwidth: usize) -> Traffic {
        let mut t = Traffic::new(n, bandwidth);
        let slots: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .take((n * n).div_ceil(DENSE_SWITCH_DIVISOR as usize))
            .collect();
        for &(u, v) in &slots {
            t.send(u, v, BitVec::zeros(1));
        }
        for &(u, v) in &slots {
            t.clear(u, v);
        }
        assert!(!t.store.is_sparse() && t.frame_count() == 0);
        t
    }

    #[test]
    fn send_and_frame() {
        let mut t = Traffic::new(3, 4);
        t.send(0, 2, BitVec::from_bools(&[true]));
        assert_eq!(t.frame(0, 2), Some(BitVec::from_bools(&[true])));
        assert_eq!(t.frame(2, 0), None);
        assert_eq!(t.frame_count(), 1);
        assert_eq!(t.total_bits(), 1);
        t.clear(0, 2);
        assert_eq!(t.frame(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "exceeds bandwidth")]
    fn bandwidth_is_enforced() {
        let mut t = Traffic::new(3, 2);
        t.send(0, 1, BitVec::from_bools(&[true, true, false]));
    }

    #[test]
    #[should_panic(expected = "no self-loops")]
    fn self_loops_rejected() {
        let mut t = Traffic::new(3, 2);
        t.send(1, 1, BitVec::from_bools(&[true]));
    }

    #[test]
    fn delivery_view_matches_traffic() {
        let mut t = Traffic::new(4, 8);
        t.send(1, 3, BitVec::from_bools(&[false, true]));
        let d = delivery(t);
        assert_eq!(d.received(3, 1), Some(BitVec::from_bools(&[false, true])));
        assert_eq!(d.received(1, 3), None);
        assert_eq!(d.n(), 4);
    }

    #[test]
    fn fresh_traffic_starts_sparse_and_densifies_by_load() {
        let n = 8;
        let mut t = Traffic::new(n, 4);
        assert!(t.store.is_sparse());
        // n²/16 = 4 frames trigger the switch.
        let mut sent = 0;
        'outer: for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                t.send(u, v, BitVec::from_bools(&[true]));
                sent += 1;
                if sent == 4 {
                    break 'outer;
                }
            }
        }
        assert!(!t.store.is_sparse());
        assert_eq!(t.frame_count(), 4);
        // Contents survive the switch.
        assert_eq!(t.frame(0, 1), Some(BitVec::from_bools(&[true])));
    }

    #[test]
    fn inbox_iterates_sparse_and_dense_identically() {
        // n = 12: four frames stay below the nine-frame switch.
        let build = |mut t: Traffic| {
            t.send(5, 2, BitVec::from_bools(&[true]));
            t.send(0, 2, BitVec::from_bools(&[false, true]));
            t.send(3, 2, BitVec::from_bools(&[false]));
            t.send(1, 4, BitVec::from_bools(&[true, true]));
            delivery(t)
        };
        let sparse = build(Traffic::new(12, 4));
        let dense = build(densified(12, 4));
        assert!(matches!(sparse.repr, DeliveryRepr::Sparse(_)));
        assert!(matches!(dense.repr, DeliveryRepr::Dense(_)));
        let inbox: Vec<(usize, BitVec)> = sparse.inbox_of(2).collect();
        assert_eq!(
            inbox,
            vec![
                (0, BitVec::from_bools(&[false, true])),
                (3, BitVec::from_bools(&[false])),
                (5, BitVec::from_bools(&[true])),
            ],
            "ascending sender order"
        );
        for to in 0..12 {
            assert!(sparse.inbox_of(to).eq(dense.inbox_of(to)), "inbox {to}");
        }
        assert_eq!(sparse, dense);
        assert!(sparse.inbox_of(3).next().is_none());
    }

    #[test]
    fn logical_equality_crosses_backends() {
        let mut a = Traffic::new(12, 4);
        let mut b = densified(12, 4);
        for t in [&mut a, &mut b] {
            t.send(0, 1, BitVec::from_bools(&[true, false]));
            t.send(2, 3, BitVec::from_bools(&[false]));
        }
        assert!(a.store.is_sparse() && !b.store.is_sparse());
        let mut c = densified(12, 4);
        c.send(0, 1, BitVec::from_bools(&[true, false]));
        c.send(2, 3, BitVec::from_bools(&[true]));
        let (a, b, c) = (delivery(a), delivery(b), delivery(c));
        assert_eq!(a, b);
        assert_ne!(a, c, "one differing frame breaks equality");
    }

    /// The incremental counters must agree with a full rescan through any
    /// sequence of sends, overwrites, clears, and internal replacements.
    #[test]
    fn counters_track_every_mutation() {
        let mut t = Traffic::new(4, 8);
        let rescan_bits = |t: &Traffic| -> u64 {
            (0..4)
                .flat_map(|u| (0..4).filter(move |&v| v != u).map(move |v| (u, v)))
                .filter_map(|(u, v)| t.frame(u, v))
                .map(|f| f.len() as u64)
                .sum()
        };
        let rescan_frames = |t: &Traffic| -> u64 {
            (0..4)
                .flat_map(|u| (0..4).filter(move |&v| v != u).map(move |v| (u, v)))
                .filter(|&(u, v)| t.frame(u, v).is_some())
                .count() as u64
        };

        t.send(0, 1, BitVec::from_bools(&[true; 5]));
        t.send(2, 3, BitVec::from_bools(&[false; 3]));
        assert_eq!((t.total_bits(), t.frame_count()), (8, 2));

        // Overwrite shrinks the frame: counters must follow.
        t.send(0, 1, BitVec::from_bools(&[true]));
        assert_eq!((t.total_bits(), t.frame_count()), (4, 2));

        // Clearing an empty slot is a no-op.
        t.clear(1, 0);
        assert_eq!((t.total_bits(), t.frame_count()), (4, 2));

        t.clear(2, 3);
        assert_eq!((t.total_bits(), t.frame_count()), (1, 1));

        // Internal replacement (the corruption path) returns the original.
        let prev = t.set_frame(0, 1, Some(BitVec::from_bools(&[false; 7])));
        assert_eq!(prev, Some(BitVec::from_bools(&[true])));
        assert_eq!((t.total_bits(), t.frame_count()), (7, 1));
        let prev = t.set_frame(0, 1, None);
        assert_eq!(prev, Some(BitVec::from_bools(&[false; 7])));
        assert_eq!((t.total_bits(), t.frame_count()), (0, 0));

        assert_eq!(t.total_bits(), rescan_bits(&t));
        assert_eq!(t.frame_count(), rescan_frames(&t));
    }

    /// One frame per sender at `n = 1024` and the benchmark's bandwidth 20.
    #[test]
    fn sparse_store_bytes_beat_dense_at_low_load() {
        let n = 1024;
        let mut sparse = Traffic::new(n, 20);
        let mut dense = densified(n, 20);
        for u in 0..n {
            sparse.send(u, (u + 1) % n, BitVec::from_bools(&[true; 8]));
            dense.send(u, (u + 1) % n, BitVec::from_bools(&[true; 8]));
        }
        assert!(
            sparse.store_bytes() * 10 < dense.store_bytes(),
            "sparse {} dense {}",
            sparse.store_bytes(),
            dense.store_bytes()
        );
    }
}

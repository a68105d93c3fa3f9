//! The `AllToAllComm` problem (Definition 1 of the paper).

use bdclique_bits::{BitGrid, BitVec};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::Rng;
use std::ops::Range;

/// An instance of `AllToAllComm`: node `u` holds a `B`-bit message `m_{u,v}`
/// for every `v`; the goal is for every `v` to learn `{m_{u,v}}_u`.
///
/// # Examples
///
/// ```
/// use bdclique_core::AllToAllInstance;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let inst = AllToAllInstance::random(8, 4, &mut rng);
/// assert_eq!(inst.message(3, 5).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllToAllInstance {
    n: usize,
    b: usize,
    /// All `n²` messages packed row-major, `b` bits each: `m_{u,v}` is bits
    /// `[(u·n + v)·b, (u·n + v + 1)·b)`. The diagonal holds `u`'s message to
    /// itself (delivered locally, never on the wire).
    bits: BitVec,
}

impl AllToAllInstance {
    /// Builds an instance from explicit messages (`messages[u][v]`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n` or some message is not exactly
    /// `b` bits.
    pub fn new(n: usize, b: usize, messages: Vec<Vec<BitVec>>) -> Self {
        assert_eq!(messages.len(), n, "need one row per node");
        let mut bits = BitVec::zeros(n * n * b);
        for (u, row) in messages.iter().enumerate() {
            assert_eq!(row.len(), n, "need one message per target");
            for (v, m) in row.iter().enumerate() {
                assert_eq!(m.len(), b, "every message must be exactly {b} bits");
                bits.write_bits((u * n + v) * b, m);
            }
        }
        Self { n, b, bits }
    }

    /// A uniformly random instance: one RNG draw per bit, message by message
    /// in row-major order.
    pub fn random(n: usize, b: usize, rng: &mut impl Rng) -> Self {
        let bits = BitVec::from_fn(n * n * b, |_| rng.gen());
        Self { n, b, bits }
    }

    /// A random instance masked to a topology: `m_{u,v}` is uniformly random
    /// when `(u, v)` is an edge (or `u = v`), and all-zeros otherwise — the
    /// natural all-to-all workload on a sparse graph, where non-adjacent
    /// pairs have nothing to exchange and a receiver may assume the zero
    /// message for them. On [`bdclique_netsim::Topology::complete`] every
    /// pair is an edge and the draws happen in the same row-major order, so
    /// the result equals [`AllToAllInstance::random`] from the same RNG
    /// state.
    pub fn random_on(topo: &bdclique_netsim::Topology, b: usize, rng: &mut impl Rng) -> Self {
        let n = topo.n();
        let mut bits = BitVec::zeros(n * n * b);
        for i in 0..n * n {
            let (u, v) = (i / n, i % n);
            if u == v || topo.contains(u, v) {
                for t in i * b..(i + 1) * b {
                    bits.set(t, rng.gen());
                }
            }
        }
        Self { n, b, bits }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message size `B` in bits.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The message `m_{u,v}` (a copy; inline, so allocation-free, for
    /// `B ≤ 64`).
    pub fn message(&self, u: usize, v: usize) -> BitVec {
        self.outgoing_segment(u, v..v + 1)
    }

    /// The concatenation `M°({u}, targets)` of `u`'s messages to a run of
    /// consecutive targets, in target order — one slice of the packed store.
    ///
    /// # Panics
    ///
    /// Panics if `u` or the run is out of range.
    pub fn outgoing_segment(&self, u: usize, targets: Range<usize>) -> BitVec {
        assert!(u < self.n && targets.end <= self.n, "node id out of range");
        let row = u * self.n;
        self.bits
            .slice((row + targets.start) * self.b, (row + targets.end) * self.b)
    }

    /// The concatenation `M°({u}, V)` (all of `u`'s outgoing messages in
    /// target order) — the node-local input of node `u`.
    pub fn outgoing_concat(&self, u: usize) -> BitVec {
        self.outgoing_segment(u, 0..self.n)
    }

    /// Checks a protocol output: `output[v][u]` should equal `m_{u,v}`.
    /// Returns the number of wrong or missing messages.
    pub fn count_errors(&self, output: &AllToAllOutput) -> usize {
        let mut errors = 0;
        for v in 0..self.n {
            for u in 0..self.n {
                match output.received(v, u) {
                    Some(m) if m == self.message(u, v) => {}
                    _ => errors += 1,
                }
            }
        }
        errors
    }
}

/// A protocol's answer to an [`AllToAllInstance`]: what each node `v`
/// believes every `m_{u,v}` is.
///
/// Mirrors the packed instance: one receiver-major [`BitGrid`] of `n²`
/// optional `B`-bit beliefs, ≈ 0.4 MB at `n = 1024` and `B = 1`. Every belief
/// is exactly `B` bits; a missing one is an absent slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllToAllOutput {
    n: usize,
    b: usize,
    /// Slot `(v, u)` = what `v` believes `m_{u,v}` is.
    grid: BitGrid,
}

impl AllToAllOutput {
    /// An output with nothing received yet, for `B = b`-bit messages.
    pub fn empty(n: usize, b: usize) -> Self {
        Self {
            n,
            b,
            grid: BitGrid::new(n, b),
        }
    }

    /// Records `v`'s belief about `m_{u,v}`.
    ///
    /// # Panics
    ///
    /// Panics unless `message` is exactly `B` bits.
    pub fn set(&mut self, v: usize, u: usize, message: BitVec) {
        assert_eq!(message.len(), self.b, "a belief must be exactly B bits");
        self.grid.set(v, u, &message);
    }

    /// What `v` believes `m_{u,v}` is (a copy; inline, so allocation-free,
    /// for `B ≤ 64`).
    pub fn received(&self, v: usize, u: usize) -> Option<BitVec> {
        self.grid.get(v, u)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Serializes every receiver's beliefs so far: `n`, then one optional
    /// bit string per slot, receiver-major. `B` is not written; the session
    /// that restores the output knows it from its instance.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        for v in 0..self.n {
            for u in 0..self.n {
                enc.put_opt(self.grid.get(v, u).as_ref(), |e, bits| e.put_bits(bits));
            }
        }
    }

    /// Rebuilds an output of `B = b`-bit messages serialized by
    /// [`AllToAllOutput::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input: an `n` whose `n²` slots
    /// overflow or cannot fit in the remaining bytes (each takes at least
    /// one), or a present belief that is not `b` bits wide.
    pub fn restore(dec: &mut Dec<'_>, b: usize) -> Result<Self, SnapError> {
        let n = dec.get_usize()?;
        let cells = n
            .checked_mul(n)
            .ok_or_else(|| SnapError::corrupt(format!("output size {n} overflows")))?;
        if cells > dec.remaining() {
            return Err(SnapError::Truncated {
                needed: cells,
                remaining: dec.remaining(),
            });
        }
        let mut out = Self::empty(n, b);
        for v in 0..n {
            for u in 0..n {
                if let Some(bits) = dec.get_opt(Dec::get_bits)? {
                    if bits.len() != b {
                        return Err(SnapError::corrupt(format!(
                            "output belief of {} bits, expected {b}",
                            bits.len()
                        )));
                    }
                    out.grid.set(v, u, &bits);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_instance_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(5, 3, &mut rng);
        assert_eq!(inst.n(), 5);
        assert_eq!(inst.b(), 3);
        assert_eq!(inst.outgoing_concat(2).len(), 15);
    }

    /// What lets `TrialSpec::build` draw every instance through `random_on`
    /// with the clique seed streams unchanged.
    #[test]
    fn random_on_the_clique_is_random() {
        for (n, b, seed) in [(2, 1, 0), (5, 3, 1), (8, 7, 2), (5, 70, 3)] {
            let plain = AllToAllInstance::random(n, b, &mut ChaCha8Rng::seed_from_u64(seed));
            let topo = bdclique_netsim::Topology::complete(n);
            let on = AllToAllInstance::random_on(&topo, b, &mut ChaCha8Rng::seed_from_u64(seed));
            assert_eq!(plain, on, "n = {n}, b = {b}");
        }
    }

    /// The packed store draws what the per-message store drew: one
    /// `from_fn(b, gen)` per message, row-major — so every seed still yields
    /// the instance it always has. Widths on both sides of the inline block.
    #[test]
    fn packed_random_is_the_per_message_draw() {
        let n = 5;
        for b in [1, 3, 64, 70] {
            let inst = AllToAllInstance::random(n, b, &mut ChaCha8Rng::seed_from_u64(9));
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            for u in 0..n {
                for v in 0..n {
                    let drawn = BitVec::from_fn(b, |_| rng.gen());
                    assert_eq!(inst.message(u, v), drawn, "b = {b}, m({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn perfect_output_has_zero_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(4, 2, &mut rng);
        let mut out = AllToAllOutput::empty(4, 2);
        for v in 0..4 {
            for u in 0..4 {
                out.set(v, u, inst.message(u, v));
            }
        }
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn errors_are_counted() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let inst = AllToAllInstance::random(3, 2, &mut rng);
        let mut out = AllToAllOutput::empty(3, 2);
        for v in 0..3 {
            for u in 0..3 {
                out.set(v, u, inst.message(u, v));
            }
        }
        // One wrong, one missing.
        let mut wrong = inst.message(0, 1);
        wrong.flip(0);
        out.set(1, 0, wrong);
        out.grid.take(2, 2);
        assert_eq!(inst.count_errors(&out), 2);
    }

    #[test]
    fn explicit_construction() {
        let rows = vec![
            vec![BitVec::from_bools(&[true]), BitVec::from_bools(&[false])],
            vec![BitVec::from_bools(&[false]), BitVec::from_bools(&[true])],
        ];
        let inst = AllToAllInstance::new(2, 1, rows);
        assert_eq!(inst.message(0, 0), BitVec::from_bools(&[true]));
        assert_eq!(inst.message(1, 0), BitVec::from_bools(&[false]));

        // Every slot of a wider matrix comes back, and rows concatenate.
        let (n, b) = (3, 67);
        let msg = |u: usize, v: usize| BitVec::from_fn(b, |i| (i + 2 * u + 5 * v) % 3 == 1);
        let rows: Vec<Vec<BitVec>> = (0..n)
            .map(|u| (0..n).map(|v| msg(u, v)).collect())
            .collect();
        let inst = AllToAllInstance::new(n, b, rows.clone());
        for u in 0..n {
            for v in 0..n {
                assert_eq!(inst.message(u, v), msg(u, v), "m({u}, {v})");
            }
            assert_eq!(inst.outgoing_concat(u), BitVec::concat(&rows[u]));
            assert_eq!(
                inst.outgoing_segment(u, 1..3),
                BitVec::concat(&rows[u][1..3])
            );
        }
    }

    #[test]
    #[should_panic(expected = "exactly 2 bits")]
    fn explicit_construction_rejects_a_wrong_width_message() {
        let two = || BitVec::zeros(2);
        let rows = vec![vec![two(), BitVec::zeros(3)], vec![two(), two()]];
        AllToAllInstance::new(2, 2, rows);
    }
}

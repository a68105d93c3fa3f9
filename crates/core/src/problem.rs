//! The `AllToAllComm` problem (Definition 1 of the paper).

use bdclique_bits::BitVec;
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::Rng;

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
    /// Row-major: `messages[u * n + v]`; the diagonal holds `u`'s message to
    /// itself (delivered locally, never on the wire).
    messages: Vec<BitVec>,
}

impl AllToAllInstance {
    /// Builds an instance from explicit messages (`messages[u][v]`), moving
    /// the rows in without cloning.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n` or some message is not exactly
    /// `b` bits.
    pub fn new(n: usize, b: usize, messages: Vec<Vec<BitVec>>) -> Self {
        assert_eq!(messages.len(), n, "need one row per node");
        let mut flat = Vec::with_capacity(n * n);
        for row in messages {
            assert_eq!(row.len(), n, "need one message per target");
            for m in row {
                assert_eq!(m.len(), b, "every message must be exactly {b} bits");
                flat.push(m);
            }
        }
        Self {
            n,
            b,
            messages: flat,
        }
    }

    /// A uniformly random instance.
    pub fn random(n: usize, b: usize, rng: &mut impl Rng) -> Self {
        let messages = (0..n * n)
            .map(|_| BitVec::from_fn(b, |_| rng.gen()))
            .collect();
        Self { n, b, messages }
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
        let messages = (0..n * n)
            .map(|i| {
                let (u, v) = (i / n, i % n);
                if u == v || topo.contains(u, v) {
                    BitVec::from_fn(b, |_| rng.gen())
                } else {
                    BitVec::zeros(b)
                }
            })
            .collect();
        Self { n, b, messages }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message size `B` in bits.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The message `m_{u,v}`.
    pub fn message(&self, u: usize, v: usize) -> &BitVec {
        &self.messages[u * self.n + v]
    }

    /// The concatenation `M°({u}, V)` (all of `u`'s outgoing messages in
    /// target order) — the node-local input of node `u`.
    pub fn outgoing_concat(&self, u: usize) -> BitVec {
        BitVec::concat((0..self.n).map(|v| self.message(u, v)))
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

/// A protocol's answer to an [`AllToAllInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllToAllOutput {
    n: usize,
    /// `received[v * n + u]` = what `v` believes `m_{u,v}` is.
    received: Vec<Option<BitVec>>,
}

impl AllToAllOutput {
    /// An output with nothing received yet.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            received: vec![None; n * n],
        }
    }

    /// Records `v`'s belief about `m_{u,v}`.
    pub fn set(&mut self, v: usize, u: usize, message: BitVec) {
        self.received[v * self.n + u] = Some(message);
    }

    /// What `v` believes `m_{u,v}` is.
    pub fn received(&self, v: usize, u: usize) -> Option<&BitVec> {
        self.received[v * self.n + u].as_ref()
    }

    /// Consumes the output into receiver-major rows (`rows[v][u]`), moving
    /// every message out without cloning — the compiler's inbox transpose.
    pub fn into_received_rows(self) -> Vec<Vec<Option<BitVec>>> {
        let n = self.n;
        let mut it = self.received.into_iter();
        (0..n).map(|_| it.by_ref().take(n).collect()).collect()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Serializes every receiver's beliefs so far.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        for slot in &self.received {
            enc.put_opt(slot.as_ref(), |e, bits| e.put_bits(bits));
        }
    }

    /// Rebuilds an output serialized by [`AllToAllOutput::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    pub fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
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
        let mut received = Vec::with_capacity(cells);
        for _ in 0..cells {
            received.push(dec.get_opt(Dec::get_bits)?);
        }
        Ok(Self { n, received })
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
        for (n, b, seed) in [(2, 1, 0), (5, 3, 1), (8, 7, 2)] {
            let plain = AllToAllInstance::random(n, b, &mut ChaCha8Rng::seed_from_u64(seed));
            let topo = bdclique_netsim::Topology::complete(n);
            let on = AllToAllInstance::random_on(&topo, b, &mut ChaCha8Rng::seed_from_u64(seed));
            assert_eq!(plain, on, "n = {n}, b = {b}");
        }
    }

    #[test]
    fn perfect_output_has_zero_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(4, 2, &mut rng);
        let mut out = AllToAllOutput::empty(4);
        for v in 0..4 {
            for u in 0..4 {
                out.set(v, u, inst.message(u, v).clone());
            }
        }
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn errors_are_counted() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let inst = AllToAllInstance::random(3, 2, &mut rng);
        let mut out = AllToAllOutput::empty(3);
        for v in 0..3 {
            for u in 0..3 {
                out.set(v, u, inst.message(u, v).clone());
            }
        }
        // One wrong, one missing.
        let mut wrong = inst.message(0, 1).clone();
        wrong.flip(0);
        out.set(1, 0, wrong);
        out.received[2 * 3 + 2] = None;
        assert_eq!(inst.count_errors(&out), 2);
    }

    #[test]
    fn explicit_construction() {
        let rows = vec![
            vec![BitVec::from_bools(&[true]), BitVec::from_bools(&[false])],
            vec![BitVec::from_bools(&[false]), BitVec::from_bools(&[true])],
        ];
        let inst = AllToAllInstance::new(2, 1, rows);
        assert_eq!(inst.message(0, 0), &BitVec::from_bools(&[true]));
        assert_eq!(inst.message(1, 0), &BitVec::from_bools(&[false]));
    }
}

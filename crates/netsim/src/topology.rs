//! The communication graph: which node pairs share a link.
//!
//! The paper's model is the complete network `K_n`, and every layer of the
//! simulator historically assumed all-pairs connectivity. [`Topology`] makes
//! the graph explicit: a [`Network`](crate::Network) owns one, honest
//! traffic is validated against its edge set, and the adversary's degree
//! budget becomes *topology-relative* — `⌊α·(deg(v)+1)⌋` faulty edges per
//! node per round, which on the clique (`deg(v)+1 = n`) is exactly the
//! paper's `⌊αn⌋`.
//!
//! # Representations
//!
//! The clique is stored as a marker (`O(1)` memory at any `n`); every
//! other graph stores sorted adjacency rows (`O(edges)` memory, ascending
//! deterministic iteration — the same discipline as the sparse
//! [`Traffic`](crate::Traffic) rows). `K_n` is otherwise an ordinary
//! topology: the adversary is validated, and trials are built, on one path
//! for every graph. [`Topology::is_complete`] remains for the `O(1)`
//! shortcuts (no per-frame membership probe on the clique) and for
//! protocols that need all-pairs reachability.
//!
//! # Generators
//!
//! [`Topology::complete`], [`Topology::hypercube`] and
//! [`Topology::random_regular`] are the graphs the scenarios measure;
//! [`Topology::ring`] is the smallest sparse graph, for tests, and
//! [`Topology::from_edges`] builds anything else. All are pure functions
//! of their parameters (and, for `random_regular`, a `u64` seed threaded
//! through [`SeedStream`] forks, retried deterministically until the
//! sample is connected), so a topology is reproducible from its cell
//! coordinates exactly like every other random component of a trial.
//!
//! The layer stops at what is measured on purpose. Four of the seven
//! protocols run on the Thm 4.1 router and answer `Infeasible` off `K_n`,
//! and a multi-hop engine after Bafna–Minzer (arXiv 2501.00337) does not
//! fit behind the existing `RouteSession`: every pack is exactly two
//! `exchange` calls (`Phase::RoundA` / `Phase::RoundB`), the decode margin
//! is `2·⌊αn⌋ + 1` from the clique-global `fault_budget()`, and
//! `RoutingOutput` has nowhere to report the doomed-node set that
//! almost-everywhere transmission needs.
//!
//! # Writing code that does not assume `K_n`
//!
//! Iterate [`Topology::neighbors`] (or hold the network's topology handle
//! across steps) instead of `0..n` minus `v`; gate sessions that need
//! all-pairs reachability on [`Topology::is_complete`] and report the
//! protocol layer's `Infeasible` error otherwise; derive adversarial
//! budgets from [`Topology::budget_of`] rather than `⌊αn⌋`. Frames queued
//! across a non-edge are rejected, so neither protocols nor adversary
//! rewrites can cheat the graph. The clique path is unchanged, not merely
//! equivalent: [`Topology::complete`] iterates neighbors in the historical
//! ascending order (pinned for all seven protocols by
//! `core/tests/clique_equivalence.rs`).

use crate::seed::SeedStream;
use bdclique_snapshot::{Dec, Enc, SnapError};

/// An undirected communication graph on `n` nodes.
///
/// Cheap to share: `Network` and `Traffic` hold it behind an
/// [`Arc`](std::sync::Arc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// `K_n`: every pair is an edge. No adjacency storage.
    Complete,
    /// Anything else: sorted ascending adjacency rows.
    Sparse {
        adj: Vec<Vec<u32>>,
        edge_count: usize,
        max_degree: usize,
    },
}

impl Topology {
    /// The complete graph `K_n` — the paper's model and the default for
    /// [`Network::new`](crate::Network::new).
    #[must_use]
    pub fn complete(n: usize) -> Self {
        assert!(n >= 2, "topology needs at least 2 nodes");
        Self {
            n,
            repr: Repr::Complete,
        }
    }

    /// Builds a sparse topology from an explicit edge list. Self-loops are
    /// rejected; duplicate and reversed pairs collapse to one undirected
    /// edge.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        assert!(n >= 2, "topology needs at least 2 nodes");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range for n = {n}");
            assert_ne!(a, b, "self-loop ({a}, {a}) rejected");
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut edge_count = 0;
        let mut max_degree = 0;
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
            edge_count += row.len();
            max_degree = max_degree.max(row.len());
        }
        Self {
            n,
            repr: Repr::Sparse {
                adj,
                edge_count: edge_count / 2,
                max_degree,
            },
        }
    }

    // ---- generators ----

    /// The `log2(n)`-dimensional hypercube: `n` must be a power of two,
    /// `u ~ u ^ 2^i` for every bit `i`. Degree `log2 n`; the native graph
    /// of the Theorem 1.4 protocol's iteration structure.
    #[must_use]
    pub fn hypercube(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "hypercube needs n = 2^l >= 2"
        );
        let ell = n.trailing_zeros() as usize;
        Self::from_edges(
            n,
            (0..n).flat_map(move |u| (0..ell).map(move |i| (u, u ^ (1 << i)))),
        )
    }

    /// The cycle `C_n`: `u ~ u ± 1 (mod n)`. Degree 2.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        Self::from_edges(n, (0..n).map(|u| (u, (u + 1) % n)))
    }

    /// A random simple connected `d`-regular graph — the constant-degree
    /// expander ensemble. Built by randomizing a deterministic `d`-regular
    /// circulant lattice with uniform double-edge swaps (each swap
    /// preserves regularity and simplicity, so the sampler always
    /// terminates, unlike naive configuration-model rejection), retrying
    /// deterministically in `seed` until the result is connected.
    /// Requires `n·d` even and `d < n`.
    #[must_use]
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Self {
        assert!(d >= 1 && d < n, "degree must be in 1..n");
        assert!((n * d).is_multiple_of(2), "n * d must be even");
        let stream = SeedStream::new(seed).fork("random-regular");
        // The starting lattice: rings at strides 1..=d/2, plus the
        // antipodal matching for odd d (n·d even forces n even there).
        let mut base: Vec<(usize, usize)> = Vec::with_capacity(n * d / 2);
        for j in 1..=d / 2 {
            for u in 0..n {
                base.push((u, (u + j) % n));
            }
        }
        if d % 2 == 1 {
            for u in 0..n / 2 {
                base.push((u, u + n / 2));
            }
        }
        for attempt in 0..10_000u64 {
            let mut rng = Rng64::new(stream.fork_u64(attempt).seed());
            let mut edges = base.clone();
            let mut present: std::collections::BTreeSet<(usize, usize)> =
                edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            let m = edges.len();
            let (mut swaps, mut tries) = (0usize, 0usize);
            while swaps < 10 * m && tries < 100 * m {
                tries += 1;
                let (i, j) = (rng.below(m), rng.below(m));
                if i == j {
                    continue;
                }
                let (a, b) = edges[i];
                let (c, e) = edges[j];
                // Uniformly orient the rewiring of {a,b} + {c,e}.
                let ((p, q), (r, s)) = if rng.below(2) == 0 {
                    ((a, c), (b, e))
                } else {
                    ((a, e), (b, c))
                };
                if p == q || r == s {
                    continue;
                }
                let k1 = (p.min(q), p.max(q));
                let k2 = (r.min(s), r.max(s));
                if k1 == k2 || present.contains(&k1) || present.contains(&k2) {
                    continue;
                }
                present.remove(&(a.min(b), a.max(b)));
                present.remove(&(c.min(e), c.max(e)));
                present.insert(k1);
                present.insert(k2);
                edges[i] = (p, q);
                edges[j] = (r, s);
                swaps += 1;
            }
            let topo = Self::from_edges(n, edges);
            if topo.is_connected() {
                return topo;
            }
        }
        panic!("random_regular(n = {n}, d = {d}) failed to sample a connected graph");
    }

    // ---- accessors ----

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` exactly for [`Topology::complete`] — what clique-only
    /// protocols gate on, and what lets traffic skip per-frame membership
    /// probes.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self.repr, Repr::Complete)
    }

    /// Whether `(u, v)` is an edge. Self-pairs are never edges.
    #[must_use]
    pub fn contains(&self, u: usize, v: usize) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        match &self.repr {
            Repr::Complete => true,
            Repr::Sparse { adj, .. } => adj[u].binary_search(&(v as u32)).is_ok(),
        }
    }

    /// Degree of `v`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        assert!(v < self.n, "node {v} out of range");
        match &self.repr {
            Repr::Complete => self.n - 1,
            Repr::Sparse { adj, .. } => adj[v].len(),
        }
    }

    /// Maximum degree over all nodes.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Complete => self.n - 1,
            Repr::Sparse { max_degree, .. } => *max_degree,
        }
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        match &self.repr {
            Repr::Complete => self.n * (self.n - 1) / 2,
            Repr::Sparse { edge_count, .. } => *edge_count,
        }
    }

    /// The neighbours of `u`, ascending. On the clique this is
    /// `0..n` minus `u` — the exact iteration order of the historical
    /// all-pairs loops, which is what keeps protocols that switched to
    /// neighbourhood iteration bit-identical on `K_n`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(u < self.n, "node {u} out of range");
        let (complete_range, sparse_row): (Option<std::ops::Range<usize>>, &[u32]) =
            match &self.repr {
                Repr::Complete => (Some(0..self.n), &[]),
                Repr::Sparse { adj, .. } => (None, &adj[u]),
            };
        complete_range
            .into_iter()
            .flatten()
            .filter(move |&v| v != u)
            .chain(sparse_row.iter().map(|&v| v as usize))
    }

    /// All undirected edges, normalized `u < v`, in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The mobile adversary's per-round faulty-degree budget at `v`:
    /// `⌊α·(deg(v)+1)⌋`. On the clique `deg(v)+1 = n`, so this is exactly
    /// the paper's `⌊αn⌋` for every node.
    #[must_use]
    pub fn budget_of(&self, v: usize, alpha: f64) -> usize {
        (alpha * (self.degree(v) + 1) as f64).floor() as usize
    }

    /// Whether the graph is connected (BFS from node 0).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.is_complete() {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.n
    }

    /// Serializes the graph: the clique as its `O(1)` marker, sparse graphs
    /// as the ascending normalized edge list.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        match &self.repr {
            Repr::Complete => enc.put_u8(0),
            Repr::Sparse { .. } => {
                enc.put_u8(1);
                enc.put_usize(self.edge_count());
                for (u, v) in self.edges() {
                    enc.put_u32(u as u32);
                    enc.put_u32(v as u32);
                }
            }
        }
    }

    /// Rebuilds a topology serialized by [`Topology::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    pub fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        // Same node ceiling as the frame-store decoders: `complete(n)` and
        // `from_edges` allocate n-sized tables, so n must be bounded before
        // either runs — a corrupt varint must not turn into a huge
        // allocation.
        const MAX_NODES: usize = 1 << 17;
        let n = dec.get_usize()?;
        if !(2..=MAX_NODES).contains(&n) {
            return Err(SnapError::corrupt(format!("topology n = {n} out of range")));
        }
        match dec.get_u8()? {
            0 => Ok(Self::complete(n)),
            1 => {
                let edge_count = dec.get_len(8)?;
                let mut edges = Vec::with_capacity(edge_count);
                for _ in 0..edge_count {
                    let u = dec.get_u32()? as usize;
                    let v = dec.get_u32()? as usize;
                    if u >= v || v >= n {
                        return Err(SnapError::corrupt(format!(
                            "topology edge ({u}, {v}) not normalized for n = {n}"
                        )));
                    }
                    edges.push((u, v));
                }
                Ok(Self::from_edges(n, edges))
            }
            t => Err(SnapError::corrupt(format!("topology tag {t}"))),
        }
    }
}

/// A tiny splitmix64-counter RNG for [`Topology::random_regular`] — netsim
/// has no RNG dependency, and the sampler only needs uniform indices.
struct Rng64 {
    state: u64,
}

impl Rng64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        crate::seed::splitmix64(self.state)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at simulation scales).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_is_all_pairs() {
        let t = Topology::complete(5);
        assert!(t.is_complete());
        assert_eq!(t.edge_count(), 10);
        assert_eq!(t.degree(3), 4);
        assert!(t.contains(0, 4) && !t.contains(2, 2));
        let nb: Vec<usize> = t.neighbors(2).collect();
        assert_eq!(nb, vec![0, 1, 3, 4]);
        assert_eq!(t.budget_of(0, 0.25), 1); // ⌊0.25·5⌋ = ⌊αn⌋
    }

    #[test]
    fn from_edges_normalizes() {
        let t = Topology::from_edges(4, [(0, 1), (1, 0), (2, 3), (0, 1)]);
        assert!(!t.is_complete());
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.degree(1), 1);
        assert!(t.contains(1, 0));
        assert!(!t.contains(0, 2));
        assert!(!t.is_connected());
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn hypercube_shape() {
        let t = Topology::hypercube(8);
        assert_eq!(t.edge_count(), 12);
        for v in 0..8 {
            assert_eq!(t.degree(v), 3);
        }
        assert!(t.contains(0b000, 0b100) && !t.contains(0b000, 0b011));
        assert!(t.is_connected());
    }

    #[test]
    fn ring_and_torus_shape() {
        let r = Topology::ring(6);
        assert_eq!(r.edge_count(), 6);
        assert!(r.contains(5, 0) && !r.contains(0, 2));
    }

    #[test]
    fn random_regular_is_regular_connected_and_seeded() {
        let a = Topology::random_regular(16, 4, 7);
        let b = Topology::random_regular(16, 4, 7);
        assert_eq!(a, b, "same seed must reproduce the same graph");
        for v in 0..16 {
            assert_eq!(a.degree(v), 4);
        }
        assert!(a.is_connected());
        assert_ne!(a, Topology::random_regular(16, 4, 8));
    }

    #[test]
    fn degree_relative_budget() {
        let t = Topology::from_edges(4, [(0, 1), (0, 2), (0, 3)]); // star
        assert_eq!(t.budget_of(0, 0.5), 2); // ⌊0.5·4⌋
        assert_eq!(t.budget_of(1, 0.5), 1); // ⌊0.5·2⌋
        assert_eq!(t.budget_of(1, 0.4), 0);
    }
}

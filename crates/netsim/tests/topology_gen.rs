//! Property tests for the topology generators: every generator is
//! seed-deterministic, respects its declared degree bounds, and produces a
//! connected simple graph; the clique representation matches the historical
//! all-pairs iteration order exactly (ascending neighbors, degree `n - 1`,
//! per-node budget `⌊α·(deg+1)⌋ = ⌊αn⌋`).

use bdclique_netsim::Topology;
use proptest::prelude::*;

/// Canonical undirected edge list for structural comparison.
fn edge_set(topo: &Topology) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = topo.edges().collect();
    edges.sort_unstable();
    edges
}

/// Simplicity: no self-loops, no duplicate edges, endpoints in range.
fn assert_simple(topo: &Topology) {
    let edges = edge_set(topo);
    let mut seen = std::collections::BTreeSet::new();
    for &(u, v) in &edges {
        assert!(u < topo.n() && v < topo.n(), "endpoint out of range");
        assert_ne!(u, v, "self-loop");
        assert!(
            seen.insert((u.min(v), u.max(v))),
            "duplicate edge ({u},{v})"
        );
    }
    assert_eq!(edges.len(), topo.edge_count());
}

proptest! {
    /// `random_regular` is exactly `d`-regular, simple, connected, and
    /// bit-deterministic in its seed.
    #[test]
    fn random_regular_is_regular_connected_deterministic(
        n_half in 3usize..24,
        d in 2usize..8,
        seed in 0u64..1000,
    ) {
        // n even keeps n·d even for every d.
        let n = 2 * n_half;
        prop_assume!(d < n);
        let topo = Topology::random_regular(n, d, seed);
        prop_assert_eq!(topo.n(), n);
        for v in 0..n {
            prop_assert_eq!(topo.degree(v), d, "node {} degree", v);
        }
        prop_assert!(topo.is_connected());
        assert_simple(&topo);
        prop_assert!(!topo.is_complete() || d == n - 1);
        // Seed-determinism: same seed, same graph; the sampler never
        // consults ambient randomness.
        let again = Topology::random_regular(n, d, seed);
        prop_assert_eq!(edge_set(&topo), edge_set(&again));
    }

    /// The clique representation reproduces the historical all-pairs sweep:
    /// ascending `0..n` minus `u` neighbors, degree `n - 1`, and the
    /// degree-relative budget collapsing to the paper's `⌊αn⌋`.
    #[test]
    fn complete_matches_historical_iteration_and_budget(
        n in 2usize..64,
        alpha in 0.0f64..1.0,
    ) {
        let topo = Topology::complete(n);
        prop_assert!(topo.is_complete());
        prop_assert!(topo.is_connected());
        for u in 0..n {
            prop_assert_eq!(topo.degree(u), n - 1);
            let walked: Vec<usize> = topo.neighbors(u).collect();
            let legacy: Vec<usize> = (0..n).filter(|&v| v != u).collect();
            prop_assert_eq!(walked, legacy, "neighbor order at {}", u);
            prop_assert_eq!(
                topo.budget_of(u, alpha),
                (alpha * n as f64).floor() as usize,
                "degree-relative budget must reduce to the clique's floor(alpha*n)"
            );
        }
    }
}

/// The structured generators are pinned structurally (they take no seed).
#[test]
fn structured_generators_are_as_documented() {
    let hc = Topology::hypercube(16);
    assert!(hc.is_connected());
    assert_simple(&hc);
    for v in 0..16 {
        assert_eq!(hc.degree(v), 4);
        for j in 0..4 {
            assert!(hc.contains(v, v ^ (1 << j)), "dimension edge {v}^{j}");
        }
    }

    let ring = Topology::ring(9);
    assert!(ring.is_connected());
    assert_simple(&ring);
    for v in 0..9 {
        assert_eq!(ring.degree(v), 2);
        assert!(ring.contains(v, (v + 1) % 9));
    }
}

/// Different seeds produce different random-regular graphs (overwhelmingly;
/// pinned for two specific seeds so the test is deterministic).
#[test]
fn random_regular_seeds_decorrelate() {
    let a = Topology::random_regular(32, 6, 1);
    let b = Topology::random_regular(32, 6, 2);
    assert_ne!(edge_set(&a), edge_set(&b));
}

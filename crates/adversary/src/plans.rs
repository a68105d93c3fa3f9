//! Non-adaptive edge plans: the per-round fault sets `F_i`, fixed before the
//! protocol runs (a function of the round index and topology only).
//!
//! Plans that are meaningful off the clique ([`EclipseCamp`],
//! [`PartitionCut`]) override [`EdgePlan::edges_on`] to walk real topology
//! edges under the per-node budgets `⌊α·(deg(v)+1)⌋`; the schedule wrappers
//! ([`Burst`], [`Alternate`]) forward `edges_on` so their gating composes
//! with topology-aware inner plans.

use bdclique_netsim::{EdgePlan, EdgeSet, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The fault-free plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl EdgePlan for NoFaults {
    fn edges(&mut self, _round: u64, n: usize, _budget: usize) -> EdgeSet {
        EdgeSet::new(n)
    }
}

/// Each round: the union of `budget` random perfect matchings — a maximal
/// random fault set saturating the degree budget at (almost) every node.
#[derive(Debug, Clone)]
pub struct RandomMatchings {
    seed: u64,
}

impl RandomMatchings {
    /// Creates the plan; the per-round sets are derived from `seed` and the
    /// round index only (non-adaptivity by construction).
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl EdgePlan for RandomMatchings {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ round.wrapping_mul(0x9e37_79b9));
        for _ in 0..budget {
            let mut nodes: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                nodes.swap(i, rng.gen_range(0..=i));
            }
            for pair in nodes.chunks(2) {
                if let [a, b] = pair {
                    // The union of matchings can repeat an edge; the degree
                    // bound still holds because each matching adds ≤ 1 per
                    // node.
                    es.insert(*a, *b);
                }
            }
        }
        debug_assert!(es.max_degree() <= budget);
        es
    }
}

/// One perfect matching per round, rotating through the round-robin
/// tournament schedule so that over `n-1` rounds every edge is hit exactly
/// once.
///
/// This is the α = 1/n adversary of the paper's Section 3: with faulty
/// degree just **one**, it places a fault inside *every* spanning tree of
/// the clique simultaneously, which is why the tree-based aggregation of
/// Fischer–Parter PODC 2023 (and any replication-over-relays baseline)
/// breaks while the bounded-degree compilers survive.
#[derive(Debug, Clone, Copy)]
pub struct RotatingMatching {
    /// Offset added to the round index (varies the schedule phase).
    pub phase: u64,
}

impl RotatingMatching {
    /// Creates the plan with phase 0.
    pub fn new() -> Self {
        Self { phase: 0 }
    }
}

impl Default for RotatingMatching {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgePlan for RotatingMatching {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        if budget == 0 || n < 2 {
            return es;
        }
        // Circle method with a dummy node when n is odd: nodes 0..m-2 sit on
        // a rotating circle, node m-1 is fixed (the dummy for odd n).
        let m = if n.is_multiple_of(2) { n } else { n + 1 };
        let cycle = m - 1;
        let r = ((round + self.phase) % cycle as u64) as usize;
        // `at` maps a circle position to the node currently sitting there.
        let at = |pos: usize| (pos + r) % cycle;
        // Fixed node pairs with circle position 0.
        if m - 1 < n {
            es.insert(m - 1, at(0));
        }
        // Fold the circle: position j pairs with position cycle - j.
        for j in 1..=(cycle - 1) / 2 {
            let (a, b) = (at(j), at(cycle - j));
            if a < n && b < n {
                es.insert(a, b);
            }
        }
        debug_assert!(es.max_degree() <= 1);
        es
    }
}

/// Saturates the budget around a single victim node (rotating the spokes
/// each round), modeling a degree-concentrated attack.
#[derive(Debug, Clone, Copy)]
pub struct RotatingStar {
    /// The node whose incident edges are attacked.
    pub victim: usize,
}

impl EdgePlan for RotatingStar {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        for i in 0..budget.min(n - 1) {
            let other = (self.victim + 1 + (round as usize + i) % (n - 1)) % n;
            if other != self.victim {
                es.insert(self.victim, other);
            }
        }
        es
    }
}

/// Hunts one message pair through the deterministic relay-replication
/// baseline, with faulty degree **one**.
///
/// The baseline's copy `i` of `m_{u,v}` crosses `u → (u+v+1+i) mod n → v` in
/// rounds `2i` and `2i+1`. Since the baseline is deterministic, the paper's
/// observation that *non-adaptive and adaptive adversaries coincide for
/// deterministic algorithms* applies: this plan corrupts exactly one hop of
/// every copy, killing the pair for **any** replication factor while never
/// touching more than one edge per node per round — the sharpest form of
/// the "mobile matching beats replication" separation (Section 3).
#[derive(Debug, Clone, Copy)]
pub struct RelayPathHunter {
    /// Source of the hunted message.
    pub src: usize,
    /// Target of the hunted message.
    pub dst: usize,
}

impl EdgePlan for RelayPathHunter {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        if budget == 0 || self.src == self.dst {
            return es;
        }
        // Corrupt exactly ONE hop of each copy (poisoning both hops of the
        // same copy with an involution like a bit-flip would cancel out).
        let i = (round / 2) as usize;
        let relay = (self.src + self.dst + 1 + i) % n;
        if round.is_multiple_of(2) && relay != self.src {
            es.insert(self.src, relay);
        }
        debug_assert!(es.max_degree() <= 1);
        es
    }
}

/// Camps on **all** of one node's incident edges for the first `rounds`
/// rounds — the eclipse attack, and the first plan that is only fully
/// realizable *off* the clique.
///
/// On the clique the target's degree is `n - 1` while the budget is
/// `⌊αn⌋ < n - 1` for any `α < 1`, so an eclipse can never close; the plan
/// camps the `budget` lowest-id spokes, exactly what the α-BD bound is
/// designed to absorb. On a constant-degree graph the per-node budget
/// `⌊α·(deg(v)+1)⌋` reaches `deg(v)` already at `α ≥ deg/(deg+1)` — e.g.
/// `α = 0.9` on an 8-regular expander — and the target is *completely* cut
/// off for the camped window.
#[derive(Debug, Clone, Copy)]
pub struct EclipseCamp {
    /// The eclipsed node.
    pub target: usize,
    /// Camp duration: active on rounds `0..rounds`.
    pub rounds: u64,
}

impl EdgePlan for EclipseCamp {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        if round >= self.rounds {
            return es;
        }
        for v in (0..n).filter(|&v| v != self.target).take(budget) {
            es.insert(self.target, v);
        }
        es
    }

    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        let n = topo.n();
        let mut es = EdgeSet::new(n);
        if round >= self.rounds {
            return es;
        }
        let target_budget = topo.budget_of(self.target, alpha);
        for v in topo.neighbors(self.target) {
            if es.degree(self.target) >= target_budget {
                break;
            }
            // Each spoke costs the neighbor one unit of its own budget.
            if topo.budget_of(v, alpha) >= 1 {
                es.insert(self.target, v);
            }
        }
        es
    }
}

/// Camps on the crossing edges of a seeded random balanced bipartition,
/// greedily within every node's budget — the partition attack. Like the
/// eclipse it cannot close on the clique (the cut has `Θ(n²)` edges against
/// an `O(n)` per-node budget), but on a constant-degree graph with `α`
/// near `deg/(deg+1)` the entire cut fits inside the budgets and the two
/// sides are fully disconnected every round the camp holds.
#[derive(Debug, Clone, Copy)]
pub struct PartitionCut {
    /// Seed for the bipartition (fixed for the whole run — the adversary
    /// *camps* the same cut every round).
    pub cut_seed: u64,
}

impl PartitionCut {
    /// The seeded balanced side assignment: `side[v]` is `true` for the
    /// `⌈n/2⌉` nodes shuffled into the first half.
    fn sides(&self, n: usize) -> Vec<bool> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cut_seed);
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            nodes.swap(i, rng.gen_range(0..=i));
        }
        let mut side = vec![false; n];
        for &v in &nodes[..n.div_ceil(2)] {
            side[v] = true;
        }
        side
    }

    /// Greedily camps crossing edges from `candidates` while both endpoint
    /// budgets admit another fault edge.
    fn camp(
        &self,
        n: usize,
        side: &[bool],
        candidates: impl Iterator<Item = (usize, usize)>,
        budget_of: impl Fn(usize) -> usize,
    ) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        for (u, v) in candidates {
            if side[u] != side[v] && es.degree(u) < budget_of(u) && es.degree(v) < budget_of(v) {
                es.insert(u, v);
            }
        }
        es
    }
}

impl EdgePlan for PartitionCut {
    fn edges(&mut self, _round: u64, n: usize, budget: usize) -> EdgeSet {
        let side = self.sides(n);
        let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
        self.camp(n, &side, pairs, |_| budget)
    }

    fn edges_on(&mut self, _round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        let side = self.sides(topo.n());
        self.camp(topo.n(), &side, topo.edges(), |v| topo.budget_of(v, alpha))
    }
}

/// Burst schedule: the inner plan is active for the first `burst` rounds of
/// every `period`-round window and dormant otherwise — the ROADMAP's "burst
/// rounds" attack shape, composed from any base plan.
#[derive(Debug, Clone)]
pub struct Burst<P> {
    inner: P,
    period: u64,
    burst: u64,
}

impl<P: EdgePlan> Burst<P> {
    /// Creates the wrapper: active on rounds `r` with `r % period < burst`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `burst > period`.
    pub fn new(inner: P, period: u64, burst: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(burst <= period, "burst cannot exceed the period");
        Self {
            inner,
            period,
            burst,
        }
    }
}

impl<P: EdgePlan> EdgePlan for Burst<P> {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        if round % self.period < self.burst {
            self.inner.edges(round, n, budget)
        } else {
            EdgeSet::new(n)
        }
    }

    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        if round % self.period < self.burst {
            self.inner.edges_on(round, topo, alpha)
        } else {
            EdgeSet::new(topo.n())
        }
    }
}

/// Alternates two plans on a fixed period: plan `a` drives the first
/// `a_rounds` of every window, plan `b` the rest — periodic *phases* where
/// the attack shape itself changes over time (e.g. matchings alternating
/// with a star), not merely on/off gating.
#[derive(Debug, Clone)]
pub struct Alternate<A, B> {
    a: A,
    b: B,
    a_rounds: u64,
    period: u64,
}

impl<A: EdgePlan, B: EdgePlan> Alternate<A, B> {
    /// Creates the wrapper: `a` on rounds `r` with `r % period < a_rounds`,
    /// `b` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `a_rounds > period`.
    pub fn new(a: A, b: B, a_rounds: u64, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(a_rounds <= period, "a_rounds cannot exceed the period");
        Self {
            a,
            b,
            a_rounds,
            period,
        }
    }
}

impl<A: EdgePlan, B: EdgePlan> EdgePlan for Alternate<A, B> {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        if round % self.period < self.a_rounds {
            self.a.edges(round, n, budget)
        } else {
            self.b.edges(round, n, budget)
        }
    }

    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        if round % self.period < self.a_rounds {
            self.a.edges_on(round, topo, alpha)
        } else {
            self.b.edges_on(round, topo, alpha)
        }
    }
}

/// Cycles through an explicit list of edge sets (for targeted tests).
#[derive(Debug, Clone)]
pub struct FixedEdges {
    sets: Vec<Vec<(usize, usize)>>,
}

impl FixedEdges {
    /// Creates the plan from per-round edge lists (cycled).
    pub fn new(sets: Vec<Vec<(usize, usize)>>) -> Self {
        Self { sets }
    }
}

impl EdgePlan for FixedEdges {
    fn edges(&mut self, round: u64, n: usize, _budget: usize) -> EdgeSet {
        let mut es = EdgeSet::new(n);
        if self.sets.is_empty() {
            return es;
        }
        let idx = (round % self.sets.len() as u64) as usize;
        for &(u, v) in &self.sets[idx] {
            es.insert(u, v);
        }
        es
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_matchings_respect_budget() {
        let mut plan = RandomMatchings::new(7);
        for n in [8usize, 9, 16] {
            for budget in [1usize, 2, 4] {
                for round in 0..8 {
                    let es = plan.edges(round, n, budget);
                    assert!(es.max_degree() <= budget, "n={n} budget={budget}");
                    assert!(!es.is_empty());
                }
            }
        }
    }

    #[test]
    fn random_matchings_move_between_rounds() {
        let mut plan = RandomMatchings::new(7);
        let a = plan.edges(0, 16, 2);
        let b = plan.edges(1, 16, 2);
        assert_ne!(
            a.iter().collect::<std::collections::BTreeSet<_>>(),
            b.iter().collect::<std::collections::BTreeSet<_>>()
        );
    }

    #[test]
    fn rotating_matching_is_perfect_for_even_n() {
        let mut plan = RotatingMatching::new();
        for round in 0..7 {
            let es = plan.edges(round, 8, 1);
            assert_eq!(es.len(), 4, "round {round}");
            assert_eq!(es.max_degree(), 1);
        }
    }

    #[test]
    fn rotating_matching_covers_all_edges_over_n_minus_1_rounds() {
        let mut plan = RotatingMatching::new();
        let n = 8;
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..(n - 1) as u64 {
            for e in plan.edges(round, n, 1).iter() {
                seen.insert(e);
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2, "tournament covers the clique");
    }

    #[test]
    fn rotating_matching_odd_n() {
        let mut plan = RotatingMatching::new();
        let es = plan.edges(3, 9, 1);
        assert_eq!(es.max_degree(), 1);
        assert_eq!(es.len(), 4); // one node sits out
    }

    #[test]
    fn star_concentrates_on_victim() {
        let mut plan = RotatingStar { victim: 3 };
        let es = plan.edges(5, 16, 4);
        assert_eq!(es.degree(3), 4);
        assert_eq!(es.len(), 4);
    }

    #[test]
    fn relay_path_hunter_is_degree_one() {
        let mut plan = RelayPathHunter { src: 2, dst: 9 };
        for round in 0..12 {
            let es = plan.edges(round, 16, 1);
            assert!(es.max_degree() <= 1, "round {round}");
        }
    }

    #[test]
    fn burst_gates_by_window_prefix() {
        let mut plan = Burst::new(RotatingMatching::new(), 4, 2);
        for round in 0..12u64 {
            let active = !plan.edges(round, 8, 1).is_empty();
            assert_eq!(active, round % 4 < 2, "round {round}");
        }
    }

    #[test]
    fn alternate_switches_plan_shapes() {
        // Matchings (degree 1, many edges) for 2 rounds, then a budget-wide
        // star: the shape change is observable in the degree profile.
        let mut plan = Alternate::new(RotatingMatching::new(), RotatingStar { victim: 0 }, 2, 3);
        for round in 0..9u64 {
            let es = plan.edges(round, 8, 3);
            if round % 3 < 2 {
                assert!(es.max_degree() <= 1, "round {round} should be a matching");
                assert!(es.len() >= 3);
            } else {
                assert_eq!(es.degree(0), 3, "round {round} should be the star");
            }
        }
    }

    #[test]
    #[should_panic(expected = "burst cannot exceed the period")]
    fn burst_rejects_overlong_burst() {
        let _ = Burst::new(NoFaults, 2, 3);
    }

    #[test]
    fn eclipse_camp_is_partial_on_the_clique_and_total_on_an_expander() {
        let mut plan = EclipseCamp {
            target: 3,
            rounds: 4,
        };
        // Clique path: the budget caps the camp well below deg = n - 1.
        let es = plan.edges(0, 16, 4);
        assert_eq!(es.degree(3), 4);
        assert!(plan.edges(4, 16, 4).is_empty(), "camp expires after rounds");
        // Sparse path: α = 0.9 on an 8-regular graph gives every node a
        // budget of ⌊0.9·9⌋ = 8 = deg, so the eclipse closes completely.
        let topo = Topology::random_regular(16, 8, 11);
        let es = plan.edges_on(0, &topo, 0.9);
        assert_eq!(es.degree(3), 8, "every incident edge is camped");
        for v in topo.neighbors(3) {
            assert!(es.contains(3, v));
        }
        assert!(plan.edges_on(4, &topo, 0.9).is_empty());
        // Tight budgets keep the camp partial and legal.
        let es = plan.edges_on(0, &topo, 0.5); // ⌊0.5·9⌋ = 4
        assert_eq!(es.degree(3), 4);
    }

    #[test]
    fn partition_cut_disconnects_sides_on_an_expander() {
        let mut plan = PartitionCut { cut_seed: 5 };
        let topo = Topology::random_regular(16, 4, 9);
        let es = plan.edges_on(0, &topo, 0.75); // budget ⌊0.75·5⌋ = 3 per node
        assert!(!es.is_empty());
        for v in 0..16 {
            assert!(es.degree(v) <= 3, "node {v} over budget");
        }
        for (u, v) in es.iter() {
            assert!(topo.contains(u, v), "camped edges must be real wires");
        }
        // Same seed, same cut, every round.
        let again = plan.edges_on(7, &topo, 0.75);
        assert_eq!(
            es.iter().collect::<std::collections::BTreeSet<_>>(),
            again.iter().collect::<std::collections::BTreeSet<_>>()
        );
        // Clique path stays inside the uniform budget.
        let es = plan.edges(0, 16, 2);
        assert!(!es.is_empty());
        assert!(es.max_degree() <= 2);
    }

    #[test]
    fn wrappers_forward_edges_on_to_topology_aware_inner_plans() {
        let topo = Topology::random_regular(16, 8, 11);
        let inner = EclipseCamp {
            target: 0,
            rounds: u64::MAX,
        };
        let mut burst = Burst::new(inner, 4, 2);
        assert!(!burst.edges_on(0, &topo, 0.9).is_empty());
        assert!(burst.edges_on(2, &topo, 0.9).is_empty(), "dormant window");
        let mut alt = Alternate::new(inner, NoFaults, 1, 2);
        assert_eq!(alt.edges_on(0, &topo, 0.9).degree(0), 8);
        assert!(alt.edges_on(1, &topo, 0.9).is_empty());
    }

    /// On `K_n` every plan's `edges_on` is its `edges` at `⌊αn⌋` — the
    /// property that lets the simulator call `edges_on` on every topology.
    #[test]
    fn edges_on_the_clique_is_edges_at_floor_alpha_n() {
        fn check(name: &str, mut plan: impl EdgePlan) {
            for n in [2usize, 3, 5, 8, 9, 16] {
                let topo = Topology::complete(n);
                for alpha in [0.0, 0.1, 0.25, 0.5, 0.9] {
                    let budget = (alpha * n as f64).floor() as usize;
                    for round in 0..6 {
                        assert_eq!(
                            plan.edges_on(round, &topo, alpha),
                            plan.edges(round, n, budget),
                            "{name}: n = {n}, alpha = {alpha}, round = {round}"
                        );
                    }
                }
            }
        }
        let camp = EclipseCamp {
            target: 1,
            rounds: 4,
        };
        let cut = PartitionCut { cut_seed: 5 };
        check("NoFaults", NoFaults);
        check("RandomMatchings", RandomMatchings::new(7));
        check("RotatingMatching", RotatingMatching::new());
        check("RotatingStar", RotatingStar { victim: 1 });
        check("RelayPathHunter", RelayPathHunter { src: 0, dst: 1 });
        check("EclipseCamp", camp);
        check("PartitionCut", cut);
        check("FixedEdges", FixedEdges::new(vec![vec![(0, 1)], vec![]]));
        check("Burst", Burst::new(cut, 4, 2));
        check("Alternate", Alternate::new(camp, cut, 1, 2));
    }

    #[test]
    fn fixed_edges_cycle() {
        let mut plan = FixedEdges::new(vec![vec![(0, 1)], vec![(2, 3)]]);
        assert!(plan.edges(0, 4, 1).contains(0, 1));
        assert!(plan.edges(1, 4, 1).contains(2, 3));
        assert!(plan.edges(2, 4, 1).contains(0, 1));
    }
}

//! The synchronous network driver.

use crate::adversary::Adversary;
use crate::stats::NetStats;
use crate::store::FrameArena;
use crate::topology::Topology;
use crate::traffic::{Delivery, Traffic};
use bdclique_bits::BitVec;
use bdclique_snapshot::{Dec, Enc, SnapError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Everything the protocol has published to *adaptive* adversaries, in
/// publication order.
///
/// Retention policy: the log is **append-only for the lifetime of the
/// network** — the paper's footnote-4 adversary conditions on *all* past
/// randomness, so nothing is ever evicted. Publishing the same label again
/// keeps both entries in [`PublishedLog::entries`] (the adversary saw the
/// old value too) while [`PublishedLog::get`] resolves to the most recent
/// one. Protocols publish O(1) labels per run, so a reverse scan is all
/// the index a lookup needs. Memory grows with the total published volume.
#[derive(Debug, Clone, Default)]
pub struct PublishedLog {
    entries: Vec<(String, BitVec)>,
}

impl PublishedLog {
    pub(crate) fn push(&mut self, label: String, bits: BitVec) {
        self.entries.push((label, bits));
    }

    /// The most recent bits published under `label`: a reverse scan over
    /// the O(1) labels a run publishes.
    pub fn get(&self, label: &str) -> Option<&BitVec> {
        self.entries
            .iter()
            .rev()
            .find_map(|(l, bits)| (l == label).then_some(bits))
    }

    /// All publications, oldest first (repeated labels appear repeatedly).
    pub fn entries(&self) -> &[(String, BitVec)] {
        &self.entries
    }

    /// Number of publications so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the append-only publication list.
    pub fn snapshot(&self, enc: &mut Enc) {
        enc.put_seq(&self.entries, |e, (label, bits)| {
            e.put_str(label);
            e.put_bits(bits);
        });
    }

    /// Rebuilds a log serialized by [`PublishedLog::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    pub fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let entries = dec.get_seq(16, |d| {
            let label = d.get_str()?;
            let bits = d.get_bits()?;
            Ok((label, bits))
        })?;
        Ok(Self { entries })
    }
}

/// Errors surfaced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A non-adaptive plan exceeded some node's degree budget
    /// `⌊α·(deg(v)+1)⌋` (`⌊αn⌋` on the clique) — the simulated model
    /// forbids this, so the run is invalid.
    BudgetExceeded {
        /// Round in which the violation occurred.
        round: u64,
        /// The lowest-id node whose budget was exceeded.
        node: usize,
        /// Offending faulty degree at that node.
        degree: usize,
        /// Allowed budget `⌊α·(deg(node)+1)⌋`.
        budget: usize,
    },
    /// A non-adaptive plan claimed an edge the graph does not have — the
    /// mobile adversary camps on *wires*, so a pair without a wire cannot
    /// be corrupted.
    EdgeOffTopology {
        /// Round in which the violation occurred.
        round: u64,
        /// Offending pair, normalized `from < to`.
        from: usize,
        /// Offending pair, normalized `from < to`.
        to: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BudgetExceeded {
                round,
                node,
                degree,
                budget,
            } => write!(
                f,
                "adversary exceeded node {node}'s degree budget in round \
                 {round}: {degree} > {budget}"
            ),
            NetworkError::EdgeOffTopology { round, from, to } => write!(
                f,
                "adversary claimed edge {{{from},{to}}} in round {round}, \
                 but the topology has no such edge"
            ),
        }
    }
}

impl Error for NetworkError {}

/// A synchronous B-Congested-Clique with an attached mobile α-BD adversary.
///
/// Protocols drive the network by building a [`Traffic`] matrix and calling
/// [`Network::exchange`]; the adversary acts between queueing and delivery.
#[derive(Debug)]
pub struct Network {
    n: usize,
    bandwidth: usize,
    alpha: f64,
    adversary: Adversary,
    topology: Arc<Topology>,
    round: u64,
    stats: NetStats,
    published: PublishedLog,
    arena: FrameArena,
}

impl Network {
    /// Creates a *complete* network of `n` nodes with `bandwidth` bits per
    /// ordered pair per round and fault fraction `alpha` (degree budget
    /// `⌊αn⌋`) — shorthand for [`Network::on_topology`] with
    /// [`Topology::complete`], and the paper's model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `bandwidth == 0`, or `alpha ∉ [0, 1)`.
    pub fn new(n: usize, bandwidth: usize, alpha: f64, adversary: Adversary) -> Self {
        assert!(n >= 2, "a clique needs at least two nodes");
        Self::on_topology(Topology::complete(n), bandwidth, alpha, adversary)
    }

    /// Creates a network over an arbitrary communication graph. Only pairs
    /// that share a topology edge may exchange frames, and the adversary's
    /// per-round budget is `⌊α·(deg(v)+1)⌋` faulty edges at each node `v`
    /// (which reduces to `⌊αn⌋` on the clique).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0` or `alpha ∉ [0, 1)`.
    pub fn on_topology(
        topology: Topology,
        bandwidth: usize,
        alpha: f64,
        adversary: Adversary,
    ) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        Self {
            n: topology.n(),
            bandwidth,
            alpha,
            adversary,
            topology: Arc::new(topology),
            round: 0,
            stats: NetStats::default(),
            published: PublishedLog::default(),
            arena: FrameArena::default(),
        }
    }

    /// Replaces the attached adversary, returning the previous one.
    ///
    /// This is the entry point for *scheduled* attacks: a round observer
    /// (e.g. `bdclique-core`'s `ScheduleSwitch`) can swap plans between
    /// rounds, modeling an adversary whose strategy itself is
    /// time-varying — burst windows, periodic phases, or a mid-run switch
    /// between the non-adaptive and adaptive classes. The round counter,
    /// stats, and published log are untouched, so the new adversary sees
    /// everything published so far; what it remembers of rounds is its own
    /// state, so it knows only the rounds it was installed for.
    pub fn set_adversary(&mut self, adversary: Adversary) -> Adversary {
        std::mem::replace(&mut self.adversary, adversary)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth `B` in bits.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// The fault fraction α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Changes the fault fraction α (and therefore [`Network::fault_budget`])
    /// between rounds — the budget-raising counterpart of
    /// [`Network::set_adversary`] for *scheduled* attacks whose strength
    /// itself is time-varying. Round counter, stats, and the published log
    /// are untouched.
    ///
    /// Protocol sessions that derived decode margins from the budget at
    /// construction re-validate it on every step and refuse to continue
    /// (`Infeasible`) if the budget has grown past what their code absorbs,
    /// rather than silently under-decoding.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ [0, 1)`.
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        self.alpha = alpha;
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A shared handle to the communication graph (for sessions and
    /// executors that outlive a borrow of the network).
    pub fn topology_handle(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// The clique-global per-round faulty-degree budget `⌊αn⌋`. On sparse
    /// topologies the binding constraint is the per-node
    /// [`Network::fault_budget_of`]; on the clique the two coincide.
    pub fn fault_budget(&self) -> usize {
        (self.alpha * self.n as f64).floor() as usize
    }

    /// The topology-relative per-round budget at node `v`:
    /// `⌊α·(deg(v)+1)⌋`, which is `⌊αn⌋` on the clique.
    pub fn fault_budget_of(&self, v: usize) -> usize {
        self.topology.budget_of(v, self.alpha)
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// A fresh empty traffic matrix for this network's shape, backed by the
    /// network's frame arena: its sparse row tables are recycled from
    /// earlier rounds rather than allocated fresh.
    pub fn traffic(&mut self) -> Traffic {
        Traffic::new_in(self.n, self.bandwidth, &mut self.arena, &self.topology)
    }

    /// Returns a consumed [`Delivery`]'s tables or dense grid to the
    /// network's arena for reuse by later rounds. Optional — dropping a
    /// delivery is always correct — but protocols that run many rounds cut
    /// their allocator traffic substantially by reclaiming.
    pub fn reclaim(&mut self, delivery: Delivery) {
        delivery.recycle_into(&mut self.arena);
    }

    /// Publishes protocol-internal randomness to *adaptive* adversaries
    /// (modeling the rushing adaptive adversary's knowledge of node states;
    /// non-adaptive adversaries never see it).
    pub fn publish(&mut self, label: impl Into<String>, bits: BitVec) {
        self.published.push(label.into(), bits);
    }

    /// The published-randomness log (what an adaptive adversary can see).
    pub fn published(&self) -> &PublishedLog {
        &self.published
    }

    /// Executes one synchronous round: queue → corrupt → deliver.
    ///
    /// # Panics
    ///
    /// Panics when a *non-adaptive* plan violates its degree budget (an
    /// invalid experiment, not a recoverable condition) or when the traffic
    /// shape does not match the network.
    pub fn exchange(&mut self, traffic: Traffic) -> Delivery {
        self.try_exchange(traffic)
            .expect("adversary violated model constraints")
    }

    /// Non-panicking variant of [`Network::exchange`].
    ///
    /// The round pipeline is clone-free: the volume counters are O(1)
    /// reads, and the adversary sees intended traffic through the scopes'
    /// copy-on-write overlay.
    ///
    /// # Errors
    ///
    /// [`NetworkError::BudgetExceeded`] when a non-adaptive plan oversteps.
    pub fn try_exchange(&mut self, mut traffic: Traffic) -> Result<Delivery, NetworkError> {
        assert_eq!(traffic.n(), self.n, "traffic shape mismatch");
        assert_eq!(traffic.bandwidth(), self.bandwidth, "bandwidth mismatch");
        if !self.topology.is_complete() && !traffic.has_topology() {
            // Traffic built without a topology handle (Traffic::new) was
            // not validated frame-by-frame; re-check before delivering.
            traffic.assert_on_topology(&self.topology);
        }
        self.stats.bits_sent += traffic.total_bits();
        self.stats.frames_sent += traffic.frame_count();

        let (edges, frames_touched) = self.adversary.act(
            self.round,
            &mut traffic,
            &self.published,
            &self.topology,
            self.alpha,
        )?;
        self.stats.edges_corrupted += edges.len() as u64;
        self.stats.frames_corrupted += frames_touched;
        self.stats.peak_fault_degree = self.stats.peak_fault_degree.max(edges.max_degree());

        self.round += 1;
        self.stats.rounds = self.round;
        Ok(traffic.into_delivery(&mut self.arena))
    }

    /// Serializes the network's resumable state: topology, shape, virtual
    /// clock, stats, published log, and the attached adversary's *dynamic*
    /// state (RNG cursors, accumulated maps — via [`Adversary::save_state`]).
    /// The frame arena is allocator bookkeeping and is never serialized. The
    /// snapshot must be taken **between** rounds (the only time protocol code
    /// can observe the network anyway).
    pub fn snapshot(&self, enc: &mut Enc) {
        self.topology.snapshot(enc);
        enc.put_usize(self.bandwidth);
        enc.put_f64(self.alpha);
        enc.put_u64(self.round);
        self.stats.snapshot(enc);
        self.published.snapshot(enc);
        enc.put_bytes(&self.adversary.save_state());
    }

    /// Rebuilds a network serialized by [`Network::snapshot`].
    ///
    /// Boxed adversary behavior cannot be materialized from bytes without a
    /// type registry, so the caller reconstructs the adversary from its
    /// spec (exactly as at original construction — same seeds, same
    /// parameters) and this method overlays the serialized dynamic state
    /// onto it via [`Adversary::load_state`]. Supplying an adversary of a
    /// different shape than the snapshotted one is an error.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input, or on an adversary
    /// state mismatch.
    pub fn restore(dec: &mut Dec<'_>, mut adversary: Adversary) -> Result<Self, SnapError> {
        let topology = Topology::restore(dec)?;
        let bandwidth = dec.get_usize()?;
        if bandwidth == 0 {
            return Err(SnapError::corrupt("network with zero bandwidth"));
        }
        let alpha = dec.get_f64()?;
        if !(0.0..1.0).contains(&alpha) {
            return Err(SnapError::corrupt(format!("alpha {alpha} out of [0, 1)")));
        }
        let round = dec.get_u64()?;
        let stats = NetStats::restore(dec)?;
        let published = PublishedLog::restore(dec)?;
        let adv_state = dec.get_bytes()?.to_vec();
        adversary.load_state(&adv_state)?;
        Ok(Self {
            n: topology.n(),
            bandwidth,
            alpha,
            adversary,
            topology: Arc::new(topology),
            round,
            stats,
            published,
            arena: FrameArena::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryView, CorruptionScope, EdgeSet};

    struct FlipEverything;

    impl crate::adversary::Corruptor for FlipEverything {
        fn corrupt(
            &mut self,
            _view: &AdversaryView<'_>,
            edges: &EdgeSet,
            scope: &mut CorruptionScope<'_>,
        ) {
            for (u, v) in edges.iter().collect::<Vec<_>>() {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(frame) = scope.intended(a, b) {
                        let mut flipped = frame;
                        for i in 0..flipped.len() {
                            flipped.flip(i);
                        }
                        scope.set(a, b, Some(flipped));
                    }
                }
            }
        }
    }

    fn single_edge_plan(u: usize, v: usize) -> impl crate::adversary::EdgePlan {
        move |_round: u64, n: usize, _budget: usize| {
            let mut es = EdgeSet::new(n);
            es.insert(u, v);
            es
        }
    }

    #[test]
    fn fault_free_delivery() {
        let mut net = Network::new(3, 4, 0.0, Adversary::none());
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true, false]));
        t.send(2, 0, BitVec::from_bools(&[true]));
        let d = net.exchange(t);
        assert_eq!(d.received(1, 0), Some(BitVec::from_bools(&[true, false])));
        assert_eq!(d.received(0, 2), Some(BitVec::from_bools(&[true])));
        assert_eq!(net.stats().bits_sent, 3);
        assert_eq!(net.stats().frames_sent, 2);
        assert_eq!(net.stats().edges_corrupted, 0);
    }

    #[test]
    fn nonadaptive_adversary_flips_controlled_edge_both_directions() {
        let adv = Adversary::non_adaptive(single_edge_plan(0, 1), FlipEverything);
        let mut net = Network::new(4, 4, 0.5, adv);
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true, true]));
        t.send(1, 0, BitVec::from_bools(&[false]));
        t.send(0, 2, BitVec::from_bools(&[true]));
        let d = net.exchange(t);
        assert_eq!(d.received(1, 0), Some(BitVec::from_bools(&[false, false])));
        assert_eq!(d.received(0, 1), Some(BitVec::from_bools(&[true])));
        // Uncontrolled edge is untouched.
        assert_eq!(d.received(2, 0), Some(BitVec::from_bools(&[true])));
        assert_eq!(net.stats().edges_corrupted, 1);
        assert_eq!(net.stats().frames_corrupted, 2);
        assert_eq!(net.stats().peak_fault_degree, 1);
    }

    #[test]
    fn budget_violation_is_an_error() {
        // Plan claims a star of degree 3 with budget 1 (alpha = 0.25, n = 4).
        let plan = |_round: u64, n: usize, _budget: usize| {
            let mut es = EdgeSet::new(n);
            es.insert(0, 1);
            es.insert(0, 2);
            es.insert(0, 3);
            es
        };
        struct Noop;
        impl crate::adversary::Corruptor for Noop {
            fn corrupt(&mut self, _: &AdversaryView<'_>, _: &EdgeSet, _: &mut CorruptionScope<'_>) {
            }
        }
        let mut net = Network::new(4, 2, 0.25, Adversary::non_adaptive(plan, Noop));
        let t = net.traffic();
        assert_eq!(
            net.try_exchange(t),
            Err(NetworkError::BudgetExceeded {
                round: 0,
                node: 0,
                degree: 3,
                budget: 1
            })
        );
    }

    #[test]
    fn adaptive_adversary_sees_published_randomness() {
        struct EchoChecker {
            saw: std::rc::Rc<std::cell::RefCell<usize>>,
        }
        impl crate::adversary::AdaptiveStrategy for EchoChecker {
            fn corrupt(
                &mut self,
                view: &AdversaryView<'_>,
                _scope: &mut crate::adversary::AdaptiveScope<'_>,
            ) {
                *self.saw.borrow_mut() = view.published.len();
            }
        }
        let saw = std::rc::Rc::new(std::cell::RefCell::new(0));
        let mut net = Network::new(
            3,
            2,
            0.3,
            Adversary::adaptive(EchoChecker { saw: saw.clone() }),
        );
        net.publish("R1", BitVec::from_bools(&[true]));
        let t = net.traffic();
        net.exchange(t);
        assert_eq!(*saw.borrow(), 1);
    }

    #[test]
    fn published_log_indexes_latest_by_label() {
        let mut net = Network::new(3, 2, 0.0, Adversary::none());
        assert!(net.published().is_empty());
        net.publish("R1", BitVec::from_bools(&[true]));
        net.publish("R2", BitVec::from_bools(&[false]));
        net.publish("R1", BitVec::from_bools(&[false, false]));
        let log = net.published();
        assert_eq!(log.len(), 3, "the log is append-only");
        assert_eq!(log.get("R1"), Some(&BitVec::from_bools(&[false, false])));
        assert_eq!(log.get("R2"), Some(&BitVec::from_bools(&[false])));
        assert_eq!(log.get("R3"), None);
        assert_eq!(log.entries()[0].0, "R1");
    }

    /// The tables come back; frames have no allocation to recycle.
    #[test]
    fn reclaim_recycles_tables_and_frames_across_rounds() {
        let mut net = Network::new(8, 4, 0.0, Adversary::none());
        let mut t = net.traffic();
        for (from, to) in [(0, 1), (3, 5)] {
            t.send(from, to, BitVec::from_bools(&[true, false]));
        }
        let d = net.exchange(t);
        net.reclaim(d);
        assert!(
            net.arena.pooled_tables() >= 8,
            "row and inbox tables must be pooled"
        );
    }

    #[test]
    fn set_adversary_swaps_mid_run_and_preserves_context() {
        let adv = Adversary::non_adaptive(single_edge_plan(0, 1), FlipEverything);
        let mut net = Network::new(4, 4, 0.5, adv);
        net.publish("R", BitVec::from_bools(&[true]));
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true]));
        net.exchange(t);
        assert_eq!(net.stats().edges_corrupted, 1);

        // Swap to fault-free between rounds: counters and the published log
        // survive; corruption stops.
        let old = net.set_adversary(Adversary::none());
        assert!(!old.is_adaptive());
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true]));
        let d = net.exchange(t);
        assert_eq!(d.received(1, 0), Some(BitVec::from_bools(&[true])));
        assert_eq!(net.rounds(), 2);
        assert_eq!(net.stats().edges_corrupted, 1, "no new corruption");
        assert_eq!(net.published().len(), 1);
    }

    #[test]
    fn set_alpha_raises_the_budget_between_rounds() {
        let mut net = Network::new(8, 4, 0.0, Adversary::none());
        assert_eq!(net.fault_budget(), 0);
        let t = net.traffic();
        net.exchange(t);
        net.set_alpha(0.5);
        assert_eq!(net.fault_budget(), 4);
        assert_eq!(net.rounds(), 1, "counters survive the switch");
    }

    #[test]
    fn densified_rounds_reuse_the_pooled_matrix() {
        // n = 4: the 1/16 load threshold is one frame, so every non-empty
        // round densifies; after the first reclaim the dense grid must
        // circulate instead of being reallocated.
        let mut net = Network::new(4, 2, 0.0, Adversary::none());
        for round in 0..3 {
            let mut t = net.traffic();
            t.send(0, 1, BitVec::from_bools(&[true]));
            t.send(2, 3, BitVec::from_bools(&[false]));
            let d = net.exchange(t);
            net.reclaim(d);
            assert_eq!(
                net.arena.pooled_matrices(),
                1,
                "round {round}: reclaimed matrix must be pooled"
            );
        }
    }

    #[test]
    fn sparse_topology_delivers_on_edges_only() {
        let topo = Topology::ring(4);
        let mut net = Network::on_topology(topo, 4, 0.0, Adversary::none());
        assert!(!net.topology().is_complete());
        assert_eq!(net.fault_budget_of(0), 0);
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true]));
        t.send(3, 0, BitVec::from_bools(&[false, true]));
        let d = net.exchange(t);
        assert_eq!(d.received(1, 0), Some(BitVec::from_bools(&[true])));
        assert_eq!(d.received(0, 3), Some(BitVec::from_bools(&[false, true])));
    }

    #[test]
    #[should_panic(expected = "not a topology edge")]
    fn sparse_topology_rejects_non_edge_sends() {
        let mut net = Network::on_topology(Topology::ring(4), 4, 0.0, Adversary::none());
        let mut t = net.traffic();
        t.send(0, 2, BitVec::from_bools(&[true])); // a chord, not a ring edge
    }

    #[test]
    #[should_panic(expected = "not a topology edge")]
    fn handleless_traffic_is_validated_at_exchange() {
        let mut net = Network::on_topology(Topology::ring(4), 4, 0.0, Adversary::none());
        // Traffic::new has no topology handle; try_exchange re-checks.
        let mut t = Traffic::new(4, 4);
        t.send(0, 2, BitVec::from_bools(&[true]));
        let _ = net.try_exchange(t);
    }

    #[test]
    fn sparse_plan_violations_are_errors() {
        struct Noop;
        impl crate::adversary::Corruptor for Noop {
            fn corrupt(&mut self, _: &AdversaryView<'_>, _: &EdgeSet, _: &mut CorruptionScope<'_>) {
            }
        }
        // An off-topology claim: the chord {0, 2} on a 4-ring.
        let chord = |_round: u64, n: usize, _budget: usize| {
            let mut es = EdgeSet::new(n);
            es.insert(0, 2);
            es
        };
        let mut net = Network::on_topology(
            Topology::ring(4),
            2,
            0.9,
            Adversary::non_adaptive(chord, Noop),
        );
        let t = net.traffic();
        assert_eq!(
            net.try_exchange(t),
            Err(NetworkError::EdgeOffTopology {
                round: 0,
                from: 0,
                to: 2
            })
        );

        // A per-node budget violation: both ring edges at node 0 while
        // α = 0.4 allows only ⌊0.4·3⌋ = 1 per node.
        let greedy = |_round: u64, n: usize, _budget: usize| {
            let mut es = EdgeSet::new(n);
            es.insert(0, 1);
            es.insert(3, 0);
            es
        };
        let mut net = Network::on_topology(
            Topology::ring(4),
            2,
            0.4,
            Adversary::non_adaptive(greedy, Noop),
        );
        let t = net.traffic();
        assert_eq!(
            net.try_exchange(t),
            Err(NetworkError::BudgetExceeded {
                round: 0,
                node: 0,
                degree: 2,
                budget: 1
            })
        );
    }

    #[test]
    fn sparse_nonadaptive_corruption_flows_through_edges_on() {
        // A topology-aware plan camping one real ring edge: corruption
        // proceeds and the stats count it.
        let plan = single_edge_plan(0, 1);
        let mut net = Network::on_topology(
            Topology::ring(4),
            4,
            0.9, // ⌊0.9·3⌋ = 2 per node: one edge is comfortably legal
            Adversary::non_adaptive(plan, FlipEverything),
        );
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true, true]));
        t.send(1, 2, BitVec::from_bools(&[false]));
        let d = net.exchange(t);
        assert_eq!(d.received(1, 0), Some(BitVec::from_bools(&[false, false])));
        assert_eq!(d.received(2, 1), Some(BitVec::from_bools(&[false])));
        assert_eq!(net.stats().edges_corrupted, 1);
        assert_eq!(net.stats().frames_corrupted, 1);
    }

    #[test]
    fn round_counter_advances() {
        let mut net = Network::new(2, 1, 0.0, Adversary::none());
        for i in 0..5 {
            assert_eq!(net.rounds(), i);
            let t = net.traffic();
            net.exchange(t);
        }
        assert_eq!(net.rounds(), 5);
    }
}

//! The mobile α-BD adversary framework: edge sets, budgets, and the
//! non-adaptive / adaptive strategy interfaces.
//!
//! # Clone-free rushing view
//!
//! The rushing adversary may read the round's *intended* traffic while it
//! rewrites frames. Earlier revisions materialized that view by cloning the
//! full `n × n` matrix every round; the scopes now keep a **copy-on-write
//! overlay** instead: the first rewrite of a slot moves the original frame
//! into the overlay, and [`CorruptionScope::intended`] /
//! [`AdaptiveScope::intended`] resolve reads through it. A round in which
//! the adversary touches `k` frames costs O(k) saved frames — never a
//! matrix clone, and nothing at all for frames it only reads.

use crate::network::{NetworkError, PublishedLog};
use crate::topology::Topology;
use crate::traffic::Traffic;
use bdclique_bits::BitVec;
use bdclique_snapshot::{Dec, Enc, SnapError};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A set of undirected clique edges with per-node degree tracking.
///
/// This is the per-round fault set `F_i`; the simulator rejects any set
/// whose degree exceeds the adversary's budget `⌊αn⌋`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSet {
    // BTreeSet so `iter()` yields ascending edges on every process — the
    // adversary's claim order feeds corruption decisions, and those must
    // be identical across processes (clippy.toml bans hash containers).
    edges: BTreeSet<(usize, usize)>,
    degrees: Vec<usize>,
}

impl EdgeSet {
    /// An empty edge set over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            edges: BTreeSet::new(),
            degrees: vec![0; n],
        }
    }

    fn norm(u: usize, v: usize) -> (usize, usize) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Inserts the undirected edge `{u, v}`. Returns `false` if already
    /// present.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn insert(&mut self, u: usize, v: usize) -> bool {
        assert_ne!(u, v, "no self-loops");
        assert!(
            u < self.degrees.len() && v < self.degrees.len(),
            "node out of range"
        );
        let inserted = self.edges.insert(Self::norm(u, v));
        if inserted {
            self.degrees[u] += 1;
            self.degrees[v] += 1;
        }
        inserted
    }

    /// Whether `{u, v}` is in the set.
    pub fn contains(&self, u: usize, v: usize) -> bool {
        self.edges.contains(&Self::norm(u, v))
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The faulty degree `deg(F)` — the maximum number of set edges incident
    /// to any single node (the quantity the α-BD model bounds).
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Degree of one node.
    pub fn degree(&self, u: usize) -> usize {
        self.degrees[u]
    }

    /// Iterates over the (normalized) edges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }
}

/// What an adversary may observe when acting, beyond the traffic itself.
///
/// The round's intended traffic is read through the scope
/// ([`CorruptionScope::intended`] / [`AdaptiveScope::intended`]), which
/// serves pre-corruption values without snapshotting the matrix. Adaptive
/// strategies additionally see everything the protocol
/// [`crate::Network::publish`]ed (internal randomness); for non-adaptive
/// ones that log is empty. Earlier rounds are not replayed here: a strategy
/// is called every round and remembers what it needs in its own state.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// Current round index (0-based).
    pub round: u64,
    /// Bit strings published by the protocol (e.g. broadcast randomness),
    /// indexed by label — visible to *adaptive* adversaries only; empty for
    /// non-adaptive ones.
    pub published: &'a PublishedLog,
}

/// Copy-on-write record of pre-corruption frames, shared by both scopes.
///
/// Keys are **directed** `(from, to)` slots; a slot is captured at most
/// once, on its first rewrite, by *moving* the displaced frame in (no clone).
#[derive(Debug, Default)]
struct IntendedOverlay {
    // BTreeMap: `intended_frames` iterates this, and its order reaches
    // adaptive strategies' corruption choices.
    originals: BTreeMap<(usize, usize), Option<BitVec>>,
}

impl IntendedOverlay {
    /// Records the frame displaced from `(from, to)` if this is the slot's
    /// first rewrite this round.
    fn capture(&mut self, from: usize, to: usize, displaced: Option<BitVec>) {
        self.originals.entry((from, to)).or_insert(displaced);
    }

    /// The round's intended frame on `from → to`: the saved original if the
    /// slot was rewritten, the live frame otherwise.
    fn resolve(&self, traffic: &Traffic, from: usize, to: usize) -> Option<BitVec> {
        match self.originals.get(&(from, to)) {
            Some(original) => original.clone(),
            None => traffic.frame(from, to),
        }
    }

    /// All directed slots carrying *intended* traffic, as
    /// `(from, to, frame bits)` in ascending `(from, to)` order —
    /// `O(frames + rewrites)` on the sparse backend, never an `n²` scan.
    /// This is the substrate behind the strategies' busy-edge discovery.
    fn intended_frames(&self, traffic: &Traffic) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        traffic.for_each_frame(|from, to, bits| {
            if !self.originals.contains_key(&(from, to)) {
                out.push((from, to, bits.len()));
            }
        });
        for (&(from, to), original) in &self.originals {
            if let Some(bits) = original {
                out.push((from, to, bits.len()));
            }
        }
        out.sort_unstable();
        out
    }

    /// The one corruption sequence both scopes share: enforce the bandwidth
    /// bound, displace the frame, capture the original, count the touch.
    /// Keeping it in one place keeps the two scopes' rushing-view semantics
    /// from drifting apart.
    ///
    /// # Panics
    ///
    /// Panics if the replacement exceeds the bandwidth.
    fn apply(
        &mut self,
        traffic: &mut Traffic,
        from: usize,
        to: usize,
        bits: Option<BitVec>,
        frames_touched: &mut u64,
    ) {
        if let Some(b) = &bits {
            assert!(
                b.len() <= traffic.bandwidth(),
                "corrupted frame exceeds bandwidth"
            );
        }
        let displaced = traffic.set_frame(from, to, bits);
        self.capture(from, to, displaced);
        *frames_touched += 1;
    }
}

/// Round-indexed choice of fault edges for a **non-adaptive** adversary.
///
/// The signature is the enforcement: the plan sees only the round index and
/// the topology, never traffic or randomness.
pub trait EdgePlan {
    /// The fault set for round `round` on `K_n`; must have
    /// `max_degree() ≤ budget`. The simulator reaches this only through
    /// [`EdgePlan::edges_on`].
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet;

    /// The method the simulator calls, every round, on every topology —
    /// the clique included. The returned set must lie inside the
    /// topology's edge set and respect every node's budget
    /// `⌊α·(deg(v)+1)⌋`; the simulator validates both.
    ///
    /// The default delegates to [`EdgePlan::edges`] with `⌊αn⌋`, which on
    /// `K_n` is exactly every node's budget; on a sparse graph it is only
    /// advisory, so clique-oriented plans fail validation loudly
    /// ([`crate::NetworkError`]) instead of silently camping on wires that
    /// do not exist. Plans that are meaningful off the clique (eclipse,
    /// partition) override this, and must agree with their own `edges` on
    /// [`Topology::complete`].
    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        let advisory = (alpha * topo.n() as f64).floor() as usize;
        self.edges(round, topo.n(), advisory)
    }

    /// Serializes any round-to-round mutable state (RNG positions, learned
    /// load tables). Plans that are pure functions of the round index — the
    /// common case — keep the empty default.
    fn save_state(&self, _enc: &mut Enc) {}

    /// Restores state written by [`EdgePlan::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    fn load_state(&mut self, _dec: &mut Dec<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl<F: FnMut(u64, usize, usize) -> EdgeSet> EdgePlan for F {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        self(round, n, budget)
    }
}

/// Content corruption for a **non-adaptive** adversary: restricted to the
/// planned edge set, but free to choose payloads based on intended traffic
/// (read via [`CorruptionScope::intended`]).
pub trait Corruptor {
    /// Rewrites frames crossing the controlled edges via `scope`.
    fn corrupt(
        &mut self,
        view: &AdversaryView<'_>,
        edges: &EdgeSet,
        scope: &mut CorruptionScope<'_>,
    );

    /// Serializes any round-to-round mutable state (typically an RNG
    /// position). Stateless corruptors keep the empty default.
    fn save_state(&self, _enc: &mut Enc) {}

    /// Restores state written by [`Corruptor::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    fn load_state(&mut self, _dec: &mut Dec<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Mutation handle restricted to a fixed edge set.
#[derive(Debug)]
pub struct CorruptionScope<'a> {
    traffic: &'a mut Traffic,
    allowed: &'a EdgeSet,
    overlay: IntendedOverlay,
    frames_touched: u64,
}

impl<'a> CorruptionScope<'a> {
    fn new(traffic: &'a mut Traffic, allowed: &'a EdgeSet) -> Self {
        Self {
            traffic,
            allowed,
            overlay: IntendedOverlay::default(),
            frames_touched: 0,
        }
    }

    /// Replaces (or suppresses, with `None`) the frame on `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `{from, to}` is not a controlled edge or the replacement
    /// exceeds the bandwidth.
    pub fn set(&mut self, from: usize, to: usize, bits: Option<BitVec>) {
        assert!(
            self.allowed.contains(from, to),
            "edge {{{from},{to}}} is not controlled this round"
        );
        self.overlay
            .apply(self.traffic, from, to, bits, &mut self.frames_touched);
    }

    /// The frame the honest sender *intended* on `from → to` this round —
    /// unaffected by any rewrites already applied (the rushing view). A
    /// copy; inline, so allocation-free, up to 64 bits.
    pub fn intended(&self, from: usize, to: usize) -> Option<BitVec> {
        self.overlay.resolve(self.traffic, from, to)
    }

    /// The frame currently queued on `from → to` (post any prior rewrites).
    pub fn current(&self, from: usize, to: usize) -> Option<BitVec> {
        self.traffic.frame(from, to)
    }

    /// All directed slots carrying intended traffic, as
    /// `(from, to, frame bits)` in ascending `(from, to)` order.
    /// `O(frames + rewrites)` — strategies should prefer this over probing
    /// all `n²` slots with [`CorruptionScope::intended`].
    pub fn intended_frames(&self) -> Vec<(usize, usize, usize)> {
        self.overlay.intended_frames(self.traffic)
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.traffic.n()
    }
}

/// An **adaptive** adversary: chooses edges and contents together, with the
/// degree budget enforced transactionally by [`AdaptiveScope`].
pub trait AdaptiveStrategy {
    /// Acts on the current round.
    fn corrupt(&mut self, view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>);

    /// Serializes any round-to-round mutable state (RNG positions, learned
    /// load tables). Stateless strategies keep the empty default.
    fn save_state(&self, _enc: &mut Enc) {}

    /// Restores state written by [`AdaptiveStrategy::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input.
    fn load_state(&mut self, _dec: &mut Dec<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Mutation handle that *acquires* edges on first touch, refusing any
/// acquisition that would push some node's faulty degree past the budget.
#[derive(Debug)]
pub struct AdaptiveScope<'a> {
    traffic: &'a mut Traffic,
    edges: EdgeSet,
    topo: &'a Topology,
    alpha: f64,
    overlay: IntendedOverlay,
    frames_touched: u64,
}

impl<'a> AdaptiveScope<'a> {
    fn new(traffic: &'a mut Traffic, topo: &'a Topology, alpha: f64) -> Self {
        let n = traffic.n();
        Self {
            traffic,
            edges: EdgeSet::new(n),
            topo,
            alpha,
            overlay: IntendedOverlay::default(),
            frames_touched: 0,
        }
    }

    /// Tries to corrupt the frame on `from → to` (acquiring the edge if not
    /// yet controlled). Returns `false` — without modifying anything — when
    /// acquiring the edge would exceed the degree budget.
    ///
    /// # Panics
    ///
    /// Panics if the replacement exceeds the bandwidth.
    pub fn try_corrupt(&mut self, from: usize, to: usize, bits: Option<BitVec>) -> bool {
        if !self.try_acquire(from, to) {
            return false;
        }
        self.overlay
            .apply(self.traffic, from, to, bits, &mut self.frames_touched);
        true
    }

    /// Tries to take control of edge `{from, to}` without touching traffic.
    /// Refused when the pair is not a topology edge, or when the
    /// acquisition would push either endpoint past its per-node budget
    /// `⌊α·(deg(v)+1)⌋` (on the clique: the uniform `⌊αn⌋`).
    pub fn try_acquire(&mut self, from: usize, to: usize) -> bool {
        if self.edges.contains(from, to) {
            return true;
        }
        if !self.topo.contains(from, to) {
            return false;
        }
        if self.edges.degree(from) + 1 > self.budget_of(from)
            || self.edges.degree(to) + 1 > self.budget_of(to)
        {
            return false;
        }
        self.edges.insert(from, to);
        true
    }

    /// How many more fault edges may touch `node` this round.
    pub fn remaining_degree(&self, node: usize) -> usize {
        self.budget_of(node).saturating_sub(self.edges.degree(node))
    }

    /// The clique-global per-round degree budget `⌊αn⌋`. On sparse
    /// topologies the binding constraint is the per-node
    /// [`AdaptiveScope::budget_of`]; on the clique the two coincide.
    pub fn budget(&self) -> usize {
        (self.alpha * self.traffic.n() as f64).floor() as usize
    }

    /// The per-node budget `⌊α·(deg(node)+1)⌋` — `⌊αn⌋` on the clique.
    pub fn budget_of(&self, node: usize) -> usize {
        self.topo.budget_of(node, self.alpha)
    }

    /// The communication graph — strategies walk real neighborhoods
    /// through this instead of probing all `n²` pairs.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The frame the honest sender *intended* on `from → to` this round —
    /// unaffected by any rewrites already applied (the rushing view). A
    /// copy; inline, so allocation-free, up to 64 bits.
    pub fn intended(&self, from: usize, to: usize) -> Option<BitVec> {
        self.overlay.resolve(self.traffic, from, to)
    }

    /// The frame currently queued on `from → to`.
    pub fn current(&self, from: usize, to: usize) -> Option<BitVec> {
        self.traffic.frame(from, to)
    }

    /// All directed slots carrying intended traffic, as
    /// `(from, to, frame bits)` in ascending `(from, to)` order.
    /// `O(frames + rewrites)` — strategies should prefer this over probing
    /// all `n²` slots with [`AdaptiveScope::intended`].
    pub fn intended_frames(&self) -> Vec<(usize, usize, usize)> {
        self.overlay.intended_frames(self.traffic)
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.traffic.n()
    }
}

enum Kind {
    None,
    NonAdaptive {
        plan: Box<dyn EdgePlan>,
        corruptor: Box<dyn Corruptor>,
    },
    Adaptive(Box<dyn AdaptiveStrategy>),
}

impl std::fmt::Debug for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::None => write!(f, "None"),
            Kind::NonAdaptive { .. } => write!(f, "NonAdaptive"),
            Kind::Adaptive(_) => write!(f, "Adaptive"),
        }
    }
}

/// The adversary attached to a [`crate::Network`].
#[derive(Debug)]
pub struct Adversary {
    kind: Kind,
}

impl Adversary {
    /// The fault-free setting.
    pub fn none() -> Self {
        Self { kind: Kind::None }
    }

    /// An α-NBD adversary: `plan` fixes the per-round edge sets up front,
    /// `corruptor` rewrites contents on those edges (rushing).
    pub fn non_adaptive(
        plan: impl EdgePlan + 'static,
        corruptor: impl Corruptor + 'static,
    ) -> Self {
        Self {
            kind: Kind::NonAdaptive {
                plan: Box::new(plan),
                corruptor: Box::new(corruptor),
            },
        }
    }

    /// An α-ABD adversary.
    pub fn adaptive(strategy: impl AdaptiveStrategy + 'static) -> Self {
        Self {
            kind: Kind::Adaptive(Box::new(strategy)),
        }
    }

    /// Whether this adversary is adaptive (sees published randomness).
    pub fn is_adaptive(&self) -> bool {
        matches!(self.kind, Kind::Adaptive(_))
    }

    fn kind_tag(&self) -> u8 {
        match self.kind {
            Kind::None => 0,
            Kind::NonAdaptive { .. } => 1,
            Kind::Adaptive(_) => 2,
        }
    }

    /// Serializes the adversary's mutable state (RNG positions, learned
    /// tables). Boxed plans and strategies cannot be *materialized* from
    /// bytes — the caller rebuilds the adversary from its spec at restore
    /// and overlays this state via [`Adversary::load_state`].
    pub fn save_state(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u8(self.kind_tag());
        match &self.kind {
            Kind::None => {}
            Kind::NonAdaptive { plan, corruptor } => {
                plan.save_state(&mut enc);
                corruptor.save_state(&mut enc);
            }
            Kind::Adaptive(strategy) => strategy.save_state(&mut enc),
        }
        enc.into_bytes()
    }

    /// Overlays state written by [`Adversary::save_state`] onto a freshly
    /// rebuilt adversary of the *same kind*.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the saved kind differs from this adversary's, or on
    /// truncated/corrupt input.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut dec = Dec::new(bytes);
        let saved = dec.get_u8()?;
        if saved != self.kind_tag() {
            return Err(SnapError::corrupt(format!(
                "adversary kind mismatch: saved {saved}, rebuilt {}",
                self.kind_tag()
            )));
        }
        match &mut self.kind {
            Kind::None => {}
            Kind::NonAdaptive { plan, corruptor } => {
                plan.load_state(&mut dec)?;
                corruptor.load_state(&mut dec)?;
            }
            Kind::Adaptive(strategy) => strategy.load_state(&mut dec)?,
        }
        dec.finish()
    }

    /// Runs one round of corruption; returns `(edge set used, frames touched)`.
    ///
    /// Non-adaptive plans go through [`EdgePlan::edges_on`] and the
    /// returned set is validated for topology membership and per-node
    /// budgets `⌊α·(deg(v)+1)⌋` — on `K_n`, every pair and `⌊αn⌋`.
    pub(crate) fn act(
        &mut self,
        round: u64,
        traffic: &mut Traffic,
        published: &PublishedLog,
        topo: &Topology,
        alpha: f64,
    ) -> Result<(EdgeSet, u64), NetworkError> {
        let n = traffic.n();
        let empty_published = PublishedLog::default();
        match &mut self.kind {
            Kind::None => Ok((EdgeSet::new(n), 0)),
            Kind::NonAdaptive { plan, corruptor } => {
                let edges = plan.edges_on(round, topo, alpha);
                if let Some((from, to)) = edges.iter().find(|&(u, v)| !topo.contains(u, v)) {
                    return Err(NetworkError::EdgeOffTopology { round, from, to });
                }
                for node in 0..n {
                    let budget = topo.budget_of(node, alpha);
                    if edges.degree(node) > budget {
                        return Err(NetworkError::BudgetExceeded {
                            round,
                            node,
                            degree: edges.degree(node),
                            budget,
                        });
                    }
                }
                let view = AdversaryView {
                    round,
                    // Non-adaptive adversaries never see randomness.
                    published: &empty_published,
                };
                let mut scope = CorruptionScope::new(traffic, &edges);
                corruptor.corrupt(&view, &edges, &mut scope);
                let touched = scope.frames_touched;
                Ok((edges, touched))
            }
            Kind::Adaptive(strategy) => {
                let view = AdversaryView { round, published };
                let mut scope = AdaptiveScope::new(traffic, topo, alpha);
                strategy.corrupt(&view, &mut scope);
                let touched = scope.frames_touched;
                let edges = scope.edges;
                debug_assert!((0..n).all(|v| edges.degree(v) <= topo.budget_of(v, alpha)));
                Ok((edges, touched))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_set_degree_tracking() {
        let mut es = EdgeSet::new(5);
        assert!(es.insert(0, 1));
        assert!(es.insert(1, 2));
        assert!(!es.insert(2, 1)); // duplicate, normalized
        assert_eq!(es.len(), 2);
        assert_eq!(es.degree(1), 2);
        assert_eq!(es.max_degree(), 2);
        assert!(es.contains(1, 0));
        assert!(!es.contains(0, 2));
    }

    #[test]
    #[should_panic(expected = "no self-loops")]
    fn edge_set_rejects_self_loop() {
        EdgeSet::new(3).insert(2, 2);
    }

    #[test]
    fn adaptive_scope_enforces_budget() {
        let mut traffic = Traffic::new(4, 4);
        traffic.send(0, 1, BitVec::from_bools(&[true]));
        let topo = Topology::complete(4);
        // ⌊0.25·4⌋ = 1 fault edge per node.
        let mut scope = AdaptiveScope::new(&mut traffic, &topo, 0.25);
        assert!(scope.try_corrupt(0, 1, None));
        // Node 0 is at budget: a second edge at node 0 must be refused.
        assert!(!scope.try_corrupt(0, 2, None));
        // Re-touching the same edge is fine.
        assert!(scope.try_corrupt(1, 0, Some(BitVec::from_bools(&[false]))));
        assert_eq!(scope.remaining_degree(0), 0);
        assert_eq!(scope.remaining_degree(3), 1);
    }

    #[test]
    fn adaptive_scope_respects_sparse_topology() {
        let mut traffic = Traffic::new(4, 4);
        traffic.send(0, 1, BitVec::from_bools(&[true]));
        // Star at node 0. α = 0.5: the hub (deg 3) gets ⌊0.5·4⌋ = 2 fault
        // edges, the leaves (deg 1) get ⌊0.5·2⌋ = 1.
        let topo = Topology::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let mut scope = AdaptiveScope::new(&mut traffic, &topo, 0.5);
        assert_eq!(scope.budget_of(0), 2);
        assert_eq!(scope.budget_of(1), 1);
        assert!(!scope.try_acquire(1, 2), "non-edges can never be acquired");
        assert!(scope.try_corrupt(0, 1, None));
        assert!(scope.try_acquire(0, 2));
        assert!(!scope.try_acquire(0, 3), "hub is at its per-node budget");
        assert_eq!(scope.remaining_degree(1), 0);
        assert_eq!(scope.remaining_degree(3), 1);
    }

    #[test]
    fn corruption_scope_restricted_to_allowed_edges() {
        let mut traffic = Traffic::new(4, 4);
        traffic.send(2, 3, BitVec::from_bools(&[true, true]));
        let mut allowed = EdgeSet::new(4);
        allowed.insert(2, 3);
        let mut scope = CorruptionScope::new(&mut traffic, &allowed);
        scope.set(3, 2, Some(BitVec::from_bools(&[false])));
        assert_eq!(scope.current(3, 2), Some(BitVec::from_bools(&[false])));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope.set(0, 1, None);
        }));
        assert!(result.is_err(), "uncontrolled edge must be rejected");
    }

    /// The copy-on-write view must keep serving the *original* frame through
    /// any sequence of rewrites of the same slot, and must not be fooled by
    /// rewrites of other slots.
    #[test]
    fn intended_view_survives_rewrites() {
        let original = BitVec::from_bools(&[true, false, true]);
        let mut traffic = Traffic::new(3, 4);
        traffic.send(0, 1, original.clone());
        traffic.send(1, 0, BitVec::from_bools(&[false]));
        let topo = Topology::complete(3);
        // ⌊0.7·3⌋ = 2 fault edges per node.
        let mut scope = AdaptiveScope::new(&mut traffic, &topo, 0.7);

        // Before any rewrite, intended == current == the live frame.
        assert_eq!(scope.intended(0, 1), Some(original.clone()));
        assert_eq!(scope.current(0, 1), Some(original.clone()));

        // First rewrite: suppress. The view keeps the original.
        assert!(scope.try_corrupt(0, 1, None));
        assert_eq!(scope.intended(0, 1), Some(original.clone()));
        assert_eq!(scope.current(0, 1), None);

        // Second rewrite of the same slot: still the original, not the
        // intermediate suppression.
        assert!(scope.try_corrupt(0, 1, Some(BitVec::from_bools(&[false, false]))));
        assert_eq!(scope.intended(0, 1), Some(original.clone()));
        assert_eq!(
            scope.current(0, 1),
            Some(BitVec::from_bools(&[false, false]))
        );

        // Untouched slots read through to the live matrix.
        assert_eq!(scope.intended(1, 0), Some(BitVec::from_bools(&[false])));
        // An empty slot is empty in both views.
        assert_eq!(scope.intended(2, 0), None);
        assert_eq!(scope.current(2, 0), None);
    }

    /// Busy-edge discovery must list exactly the pre-corruption slots, in
    /// ascending order, unaffected by suppressions or injections.
    #[test]
    fn intended_frames_lists_precorruption_slots() {
        let mut traffic = Traffic::new(4, 4);
        traffic.send(2, 3, BitVec::from_bools(&[false]));
        traffic.send(0, 1, BitVec::from_bools(&[true, true]));
        let topo = Topology::complete(4);
        // ⌊0.5·4⌋ = 2 fault edges per node.
        let mut scope = AdaptiveScope::new(&mut traffic, &topo, 0.5);
        assert_eq!(scope.intended_frames(), vec![(0, 1, 2), (2, 3, 1)]);
        // Suppress one slot, inject on an intended-empty one: the intended
        // view is unchanged.
        assert!(scope.try_corrupt(0, 1, None));
        assert!(scope.try_corrupt(1, 0, Some(BitVec::from_bools(&[true]))));
        assert_eq!(scope.intended_frames(), vec![(0, 1, 2), (2, 3, 1)]);
    }

    /// Same property for the non-adaptive scope, including slots that were
    /// intended-empty and get a frame injected.
    #[test]
    fn corruption_scope_intended_view_is_precorruption() {
        let mut traffic = Traffic::new(3, 4);
        traffic.send(0, 1, BitVec::from_bools(&[true]));
        let mut allowed = EdgeSet::new(3);
        allowed.insert(0, 1);
        let mut scope = CorruptionScope::new(&mut traffic, &allowed);

        // Inject into the intended-empty reverse direction: intended stays
        // empty, current shows the injection.
        scope.set(1, 0, Some(BitVec::from_bools(&[true, true])));
        assert_eq!(scope.intended(1, 0), None);
        assert_eq!(scope.current(1, 0), Some(BitVec::from_bools(&[true, true])));

        scope.set(0, 1, None);
        assert_eq!(scope.intended(0, 1), Some(BitVec::from_bools(&[true])));
        assert_eq!(scope.current(0, 1), None);
    }
}

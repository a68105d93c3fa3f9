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
//!
//! # Busy-edge discovery
//!
//! Strategies find the round's traffic through two walks, both sort-free
//! and neither building a frame (the dense store reads only each slot's
//! length prefix):
//!
//! * [`AdaptiveScope::intended_frames`] / [`CorruptionScope::intended_frames`]
//!   — every directed slot, merging the live store walk with the overlay's
//!   ascending originals: `O(frames + rewrites)`, plus the dense store's
//!   `n²/64`-word presence scan.
//! * [`AdaptiveScope::intended_pairs`] — every undirected pair, both
//!   directions' bits summed: two such walks (a counting pass, then a fill
//!   that transposes the `from > to` frames into per-node lists), then one
//!   merge of each node's out-row with its transposed list —
//!   `O(frames + rewrites + n)`, in 8-byte entries per frame.

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

/// One undirected pair carrying intended traffic this round, as listed by
/// [`AdaptiveScope::intended_pairs`]: `u < v`, and `bits` is the total
/// length of the intended frames on `u → v` and `v → u` (zero when every
/// frame between them is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyPair {
    /// The lower endpoint.
    pub u: u32,
    /// The higher endpoint.
    pub v: u32,
    /// Intended bits summed over both directions.
    pub bits: u32,
}

impl BusyPair {
    /// `(u, v)` as node ids.
    pub fn endpoints(&self) -> (usize, usize) {
        (self.u as usize, self.v as usize)
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
    // BTreeMap: the intended walks merge this in key order with the live
    // store, and that order reaches adaptive strategies' corruption choices.
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

    /// Visits every directed slot carrying *intended* traffic as
    /// `(from, to, frame bits)`, in ascending `(from, to)` order: the live
    /// store's length walk merged with the (ascending) saved originals,
    /// which shadow the live slots they were displaced from. No sort, and no
    /// frame is built.
    fn for_each_intended(&self, traffic: &Traffic, mut f: impl FnMut(usize, usize, usize)) {
        let mut saved = self.originals.iter().peekable();
        traffic.for_each_frame_len(|from, to, len| {
            let mut shadowed = false;
            while let Some((&(a, b), original)) = saved.next_if(|&(&key, _)| key <= (from, to)) {
                if let Some(bits) = original {
                    f(a, b, bits.len());
                }
                shadowed = (a, b) == (from, to);
            }
            if !shadowed {
                f(from, to, len);
            }
        });
        for (&(a, b), original) in saved {
            if let Some(bits) = original {
                f(a, b, bits.len());
            }
        }
    }

    /// All directed slots carrying *intended* traffic, as
    /// `(from, to, frame bits)` in ascending `(from, to)` order.
    fn intended_frames(&self, traffic: &Traffic) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        self.for_each_intended(traffic, |from, to, len| out.push((from, to, len)));
        out
    }

    /// All undirected pairs carrying *intended* traffic, ascending `(u, v)`,
    /// each with the summed bits of both directions. Pass one counts each
    /// node's upper-triangle frames (`u → v`, `u < v`: its out-row) and
    /// lower-triangle frames (`v → u`, `v > u`: keyed by the receiver `u`);
    /// pass two fills both lists, the lower ones by prefix-sum cursors. The
    /// walk is `from`-ascending, so every list comes out partner-ascending,
    /// and each node's two lists merge without a sort.
    fn intended_pairs(&self, traffic: &Traffic) -> Vec<BusyPair> {
        let n = traffic.n();
        assert!(
            u32::try_from(n).is_ok() && u32::try_from(2 * traffic.bandwidth()).is_ok(),
            "busy pairs keep node ids and summed frame bits in u32"
        );
        let mut up_start = vec![0usize; n + 1];
        let mut down_start = vec![0usize; n + 1];
        self.for_each_intended(traffic, |from, to, _| {
            if from < to {
                up_start[from + 1] += 1;
            } else {
                down_start[to + 1] += 1;
            }
        });
        for u in 0..n {
            up_start[u + 1] += up_start[u];
            down_start[u + 1] += down_start[u];
        }
        // `(partner, bits)`; the upper list arrives in order, the lower one
        // is scattered through per-node cursors.
        let mut up: Vec<(u32, u32)> = Vec::with_capacity(up_start[n]);
        let mut down = vec![(0u32, 0u32); down_start[n]];
        let mut cursor = down_start.clone();
        self.for_each_intended(traffic, |from, to, len| {
            if from < to {
                up.push((to as u32, len as u32));
            } else {
                down[cursor[to]] = (from as u32, len as u32);
                cursor[to] += 1;
            }
        });
        let mut pairs = Vec::with_capacity(up.len().max(down.len()));
        for u in 0..n {
            let outs = &up[up_start[u]..up_start[u + 1]];
            let ins = &down[down_start[u]..down_start[u + 1]];
            let (mut i, mut j) = (0, 0);
            while i < outs.len() || j < ins.len() {
                // Node ids are below `n ≤ u32::MAX`: MAX marks an exhausted list.
                let next_out = outs.get(i).map_or(u32::MAX, |&(v, _)| v);
                let next_in = ins.get(j).map_or(u32::MAX, |&(v, _)| v);
                let v = next_out.min(next_in);
                let mut bits = 0;
                if next_out == v {
                    bits += outs[i].1;
                    i += 1;
                }
                if next_in == v {
                    bits += ins[j].1;
                    j += 1;
                }
                pairs.push(BusyPair {
                    u: u as u32,
                    v,
                    bits,
                });
            }
        }
        pairs
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
    /// `O(frames + rewrites)`, sort-free — strategies should prefer this
    /// over probing all `n²` slots with [`CorruptionScope::intended`].
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
        // The degree test comes first, so the tree is searched once per
        // call: by the insert when both endpoints have room, else to tell a
        // refusal from an edge already held.
        if self.remaining_degree(from) == 0 || self.remaining_degree(to) == 0 {
            return self.edges.contains(from, to);
        }
        if !self.topo.contains(from, to) {
            return false;
        }
        // Held or newly taken, the edge is now controlled; `insert` leaves
        // the degrees alone when it was already held.
        self.edges.insert(from, to);
        true
    }

    /// The edges acquired so far this round.
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
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
    /// `O(frames + rewrites)`, sort-free — strategies should prefer this
    /// over probing all `n²` slots with [`AdaptiveScope::intended`].
    pub fn intended_frames(&self) -> Vec<(usize, usize, usize)> {
        self.overlay.intended_frames(self.traffic)
    }

    /// All undirected pairs carrying intended traffic — zero-length frames
    /// included — in ascending `(u, v)` order, each with both directions'
    /// bits summed. `O(frames + rewrites + n)` and sort-free: the busy-edge
    /// list strategies rank or shuffle, without merging
    /// [`AdaptiveScope::intended_frames`]' two directions themselves.
    pub fn intended_pairs(&self) -> Vec<BusyPair> {
        self.overlay.intended_pairs(self.traffic)
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

    /// `try_acquire` tests the budgets before the edge set: an edge already
    /// held must still be granted once both its endpoints are full, while a
    /// new edge at a full endpoint is refused.
    #[test]
    fn held_edge_is_granted_at_full_budget() {
        let mut traffic = Traffic::new(4, 4);
        let topo = Topology::complete(4);
        // ⌊0.25·4⌋ = 1 fault edge per node.
        let mut scope = AdaptiveScope::new(&mut traffic, &topo, 0.25);
        assert!(scope.try_acquire(1, 2));
        assert_eq!(scope.remaining_degree(1), 0);
        assert_eq!(scope.remaining_degree(2), 0);
        assert!(scope.try_acquire(2, 1), "held edge, both endpoints full");
        assert!(scope.try_acquire(1, 2));
        assert!(!scope.try_acquire(1, 3), "new edge at a full endpoint");
        assert!(!scope.try_acquire(0, 2), "new edge at a full endpoint");
        assert!(scope.try_acquire(0, 3));
        assert_eq!(scope.edges().len(), 2);
        assert_eq!(scope.edges().max_degree(), 1);
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

//! Adaptive (rushing) strategies: edge choice informed by the round's
//! intended traffic and any published protocol randomness.

use crate::corruptors::Payload;
use crate::rng_state;
use bdclique_netsim::{AdaptiveScope, AdaptiveStrategy, AdversaryView, BusyPair};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Corrupts the edges carrying the most payload bits this round, saturating
/// the degree budget greedily. This attacks exactly the concentration points
/// protocols create (relay nodes, leaders), making it a strong generic
/// adaptive adversary.
#[derive(Debug)]
pub struct GreedyLoad {
    payload: Payload,
    rng: ChaCha8Rng,
}

impl GreedyLoad {
    /// Creates the strategy with the given payload policy.
    pub fn new(payload: Payload, seed: u64) -> Self {
        Self {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl AdaptiveStrategy for GreedyLoad {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        // Undirected edges scored by total bits both ways, from the sort-free
        // busy-pair walk.
        let ranked = loaded_by_weight(&scope.intended_pairs());
        let pairs = ranked.iter().map(|&(u, v)| (u as usize, v as usize));
        corrupt_pairs(scope, pairs, self.payload, &mut self.rng);
    }

    fn save_state(&self, enc: &mut Enc) {
        rng_state::save(enc, &self.rng);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = rng_state::load(dec)?;
        Ok(())
    }
}

/// Offers `pairs` — each pair at most once — to the scope in order, and
/// rewrites both directions of every pair it grants with `payload`.
///
/// When the scope arrives holding no edge, a pair reached with a full
/// endpoint cannot be held (only granted pairs are touched, and none is
/// offered twice), so it is refused without consulting the edge set — once
/// the budget binds, that is most of the list. A scope that already holds
/// edges, because a wrapping strategy acted first, takes the plain
/// [`AdaptiveScope::try_acquire`] path.
fn corrupt_pairs(
    scope: &mut AdaptiveScope<'_>,
    pairs: impl IntoIterator<Item = (usize, usize)>,
    payload: Payload,
    rng: &mut ChaCha8Rng,
) {
    let fresh = scope.edges().is_empty();
    for (u, v) in pairs {
        let full = scope.remaining_degree(u) == 0 || scope.remaining_degree(v) == 0;
        if (fresh && full) || !scope.try_acquire(u, v) {
            continue;
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Some(frame) = scope.intended(a, b) {
                let new = payload.apply(Some(&frame), rng);
                scope.try_corrupt(a, b, new);
            }
        }
    }
}

/// The endpoints of the loaded `pairs` (ascending `(u, v)`), heaviest
/// first. A stable counting sort keeps ties in `(u, v)` order, so this is the
/// `(load desc, u asc, v asc)` order in `O(pairs + max load)` — loads are at
/// most twice the bandwidth. Empty pairs are dropped: zero-length frames
/// carry no payload worth the degree budget.
fn loaded_by_weight(pairs: &[BusyPair]) -> Vec<(u32, u32)> {
    let max = pairs.iter().map(|p| p.bits as usize).max().unwrap_or(0);
    let loaded = || pairs.iter().filter(|p| p.bits > 0);
    // Load `l ≥ 1` has rank `max - l`; `start[rank]` is where its run begins.
    let mut start = vec![0usize; max + 1];
    for p in loaded() {
        start[max - p.bits as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut ranked = vec![(0, 0); start[max]];
    for p in loaded() {
        let slot = &mut start[max - p.bits as usize];
        ranked[*slot] = (p.u, p.v);
        *slot += 1;
    }
    ranked
}

/// Concentrates the entire budget on edges incident to one victim node,
/// preferring the busiest ones (the attack the paper's α-BD bound is
/// designed to survive: the victim loses an α fraction of its links every
/// round, forever).
#[derive(Debug)]
pub struct TargetNode {
    /// The attacked node.
    pub victim: usize,
    payload: Payload,
    rng: ChaCha8Rng,
}

impl TargetNode {
    /// Creates the strategy.
    pub fn new(victim: usize, payload: Payload, seed: u64) -> Self {
        Self {
            victim,
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl AdaptiveStrategy for TargetNode {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let v = self.victim;
        // The victim's real neighborhood: ascending ids — on the clique
        // that is exactly the historical `0..n` minus `v` sweep.
        let mut others: Vec<(usize, usize)> = scope
            .topology()
            .neighbors(v)
            .map(|u| {
                let load = scope.intended(u, v).map_or(0, |f| f.len())
                    + scope.intended(v, u).map_or(0, |f| f.len());
                (load, u)
            })
            .collect();
        others.sort_unstable_by(|a, b| b.cmp(a));
        for (load, u) in others {
            if load == 0 || scope.remaining_degree(v) == 0 {
                break;
            }
            if !scope.try_acquire(u, v) {
                continue;
            }
            for (a, b) in [(u, v), (v, u)] {
                if let Some(frame) = scope.intended(a, b) {
                    let new = self.payload.apply(Some(&frame), &mut self.rng);
                    scope.try_corrupt(a, b, new);
                }
            }
        }
    }

    fn save_state(&self, enc: &mut Enc) {
        rng_state::save(enc, &self.rng);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = rng_state::load(dec)?;
        Ok(())
    }
}

/// Random busy edges, chosen *after* seeing the round's traffic (rushing):
/// the natural randomized adaptive baseline.
#[derive(Debug)]
pub struct RushingRandom {
    payload: Payload,
    rng: ChaCha8Rng,
}

impl RushingRandom {
    /// Creates the strategy.
    pub fn new(payload: Payload, seed: u64) -> Self {
        Self {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl AdaptiveStrategy for RushingRandom {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        // Busy undirected pairs — empty frames included — ascending: the
        // same candidate list the old n² probe sweep produced, discovered
        // in O(frames).
        let mut busy = scope.intended_pairs();
        for i in (1..busy.len()).rev() {
            busy.swap(i, self.rng.gen_range(0..=i));
        }
        corrupt_pairs(
            scope,
            busy.iter().map(BusyPair::endpoints),
            self.payload,
            &mut self.rng,
        );
    }

    fn save_state(&self, enc: &mut Enc) {
        rng_state::save(enc, &self.rng);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = rng_state::load(dec)?;
        Ok(())
    }
}

/// Suppresses every frame to and from one victim, as far as the budget at
/// the victim allows — an eclipse attack. The α-BD model caps the victim's
/// lost links at `⌊αn⌋` per round, which is exactly the isolation bound the
/// compilers are designed around.
#[derive(Debug)]
pub struct Eclipse {
    /// The eclipsed node.
    pub victim: usize,
}

impl AdaptiveStrategy for Eclipse {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let v = self.victim;
        // Walk the victim's real neighborhood (ascending — identical to
        // the historical `0..n` sweep on the clique).
        let neighbors: Vec<usize> = scope.topology().neighbors(v).collect();
        for u in neighbors {
            if scope.remaining_degree(v) == 0 {
                continue;
            }
            let busy = scope.intended(u, v).is_some() || scope.intended(v, u).is_some();
            if !busy {
                continue;
            }
            if scope.try_acquire(u, v) {
                scope.try_corrupt(u, v, None);
                scope.try_corrupt(v, u, None);
            }
        }
    }
}

/// A history-driven strategy: camps on the edges that have carried the most
/// traffic **across all prior rounds**, ranked by the cumulative per-edge
/// load it records itself from every round's intended traffic — the
/// knowledge footnote 4 grants the adaptive adversary, kept as checkpointed
/// strategy state. Protocols with fixed communication patterns
/// (deterministic compilers) reuse edges across rounds, and this strategy
/// finds them.
#[derive(Debug)]
pub struct HistoryCamper {
    payload: Payload,
    rng: ChaCha8Rng,
    // BTreeMap so ranking and snapshots iterate in a fixed order on every
    // process (clippy.toml bans the hash containers workspace-wide).
    load: std::collections::BTreeMap<(usize, usize), u64>,
}

impl HistoryCamper {
    /// Creates the strategy.
    pub fn new(payload: Payload, seed: u64) -> Self {
        Self {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
            load: std::collections::BTreeMap::new(),
        }
    }
}

impl AdaptiveStrategy for HistoryCamper {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        // Accumulate the current round's loads into long-term memory.
        // O(frames) via the busy-pair walk; pairs whose frames are all empty
        // carry no load and must not enter the ranking.
        for p in scope.intended_pairs() {
            if p.bits > 0 {
                *self.load.entry(p.endpoints()).or_insert(0) += u64::from(p.bits);
            }
        }
        let mut ranked: Vec<((usize, usize), u64)> =
            self.load.iter().map(|(&e, &l)| (e, l)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let pairs = ranked.into_iter().map(|(pair, _)| pair);
        corrupt_pairs(scope, pairs, self.payload, &mut self.rng);
    }

    fn save_state(&self, enc: &mut Enc) {
        rng_state::save(enc, &self.rng);
        // BTreeMap iteration is already ascending by key — byte-identical
        // to the sorted HashMap encoding this replaces.
        let entries: Vec<((usize, usize), u64)> = self.load.iter().map(|(&e, &l)| (e, l)).collect();
        enc.put_seq(&entries, |e, &((u, v), load)| {
            e.put_u32(u as u32);
            e.put_u32(v as u32);
            e.put_u64(load);
        });
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = rng_state::load(dec)?;
        let entries = dec.get_seq(16, |d| {
            let u = d.get_u32()? as usize;
            let v = d.get_u32()? as usize;
            let load = d.get_u64()?;
            Ok(((u, v), load))
        })?;
        self.load = entries.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_bits::BitVec;
    use bdclique_netsim::{Adversary, Network};

    fn busy_network(strategy: impl AdaptiveStrategy + 'static, alpha: f64) -> (Network, u64) {
        let mut net = Network::new(8, 4, alpha, Adversary::adaptive(strategy));
        let mut t = net.traffic();
        for u in 0..8 {
            for v in 0..8 {
                if u != v {
                    t.send(u, v, BitVec::from_bools(&[true, false]));
                }
            }
        }
        net.exchange(t);
        let corrupted = net.stats().edges_corrupted;
        (net, corrupted)
    }

    #[test]
    fn greedy_load_saturates_budget() {
        let (net, corrupted) = busy_network(GreedyLoad::new(Payload::Flip, 1), 0.5);
        // budget 4 per node, 8 nodes: at most 16 edges; greedy should grab
        // a maximal set.
        assert!(corrupted > 0);
        assert!(net.stats().peak_fault_degree <= 4);
    }

    #[test]
    fn target_node_respects_victim_budget() {
        let (net, corrupted) = busy_network(TargetNode::new(3, Payload::Suppress, 2), 0.25);
        assert!(corrupted <= 2); // budget = 2 at the victim
        assert!(net.stats().peak_fault_degree <= 2);
    }

    #[test]
    fn rushing_random_stays_within_budget() {
        let (net, corrupted) = busy_network(RushingRandom::new(Payload::Random, 3), 0.25);
        assert!(corrupted > 0);
        assert!(net.stats().peak_fault_degree <= 2);
    }

    #[test]
    fn eclipse_only_touches_victim_edges() {
        let (net, corrupted) = busy_network(Eclipse { victim: 5 }, 0.25);
        assert!(corrupted <= 2);
        assert!(net.stats().peak_fault_degree <= 2);
    }

    #[test]
    fn history_camper_acts_and_respects_budget() {
        let (net, corrupted) = busy_network(HistoryCamper::new(Payload::Flip, 8), 0.25);
        assert!(corrupted > 0);
        assert!(net.stats().peak_fault_degree <= 2);
    }

    #[test]
    fn zero_budget_means_no_corruption() {
        let (net, corrupted) = busy_network(GreedyLoad::new(Payload::Flip, 4), 0.1);
        // alpha = 0.1, n = 8 => budget 0.
        assert_eq!(corrupted, 0);
        assert_eq!(net.stats().frames_corrupted, 0);
    }
}

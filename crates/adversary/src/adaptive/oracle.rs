//! Oracle: [`GreedyLoad`], [`RushingRandom`] and [`HistoryCamper`] against
//! the bodies they had when they merged the directed-frame list into
//! undirected pairs themselves. On random
//! sparse and dense rounds, with and without frames rewritten earlier in
//! the round, both sides must acquire the same [`EdgeSet`], deliver the
//! same traffic, leave their RNGs at the same position and end with the
//! same network counters.

use super::{GreedyLoad, HistoryCamper, RushingRandom};
use crate::Payload;
use bdclique_bits::BitVec;
use bdclique_netsim::{
    AdaptiveScope, AdaptiveStrategy, Adversary, AdversaryView, Delivery, EdgeSet, NetStats,
    Network, Traffic,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const BANDWIDTH: usize = 6;
const ROUNDS: u64 = 3;

/// `GreedyLoad` as it was: sort the directed slots into undirected pairs,
/// merge the two directions, drop empty pairs, sort by load.
#[derive(Debug)]
struct ReferenceGreedyLoad {
    payload: Payload,
    rng: ChaCha8Rng,
}

impl AdaptiveStrategy for ReferenceGreedyLoad {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let mut scored: Vec<(usize, usize, usize)> = scope
            .intended_frames()
            .into_iter()
            .map(|(from, to, bits)| {
                let (u, v) = if from < to { (from, to) } else { (to, from) };
                (bits, u, v)
            })
            .collect();
        scored.sort_unstable_by_key(|&(_, u, v)| (u, v));
        scored.dedup_by(|a, b| {
            if (a.1, a.2) == (b.1, b.2) {
                b.0 += a.0;
                true
            } else {
                false
            }
        });
        scored.retain(|&(load, _, _)| load > 0);
        scored.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for (_, u, v) in scored {
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
}

/// `RushingRandom` as it was: sort and dedup the directed slots into
/// undirected pairs, then shuffle.
#[derive(Debug)]
struct ReferenceRushingRandom {
    payload: Payload,
    rng: ChaCha8Rng,
}

impl AdaptiveStrategy for ReferenceRushingRandom {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let mut busy: Vec<(usize, usize)> = scope
            .intended_frames()
            .into_iter()
            .map(|(from, to, _)| if from < to { (from, to) } else { (to, from) })
            .collect();
        busy.sort_unstable();
        busy.dedup();
        for i in (1..busy.len()).rev() {
            busy.swap(i, self.rng.gen_range(0..=i));
        }
        for (u, v) in busy {
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
}

/// `HistoryCamper` as it was: fold each directed frame's bits into the
/// undirected pair's running load.
#[derive(Debug)]
struct ReferenceHistoryCamper {
    payload: Payload,
    rng: ChaCha8Rng,
    load: BTreeMap<(usize, usize), u64>,
}

impl AdaptiveStrategy for ReferenceHistoryCamper {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        for (from, to, bits) in scope.intended_frames() {
            if bits == 0 {
                continue;
            }
            let key = if from < to { (from, to) } else { (to, from) };
            *self.load.entry(key).or_insert(0) += bits as u64;
        }
        let mut ranked: Vec<((usize, usize), u64)> =
            self.load.iter().map(|(&e, &l)| (e, l)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((u, v), _) in ranked {
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
}

/// Runs a strategy the test can still inspect afterwards. When `prewrite`
/// is set, a few slots are rewritten (suppressed, replaced or injected)
/// before the strategy acts, so it reads through a non-empty overlay; the
/// rewrites are a function of the seed and round only, identical on both
/// sides. Records the edge set each round ends with.
struct Observed<S> {
    inner: Rc<RefCell<S>>,
    prewrite: Option<u64>,
    edges: Rc<RefCell<Vec<EdgeSet>>>,
}

impl<S: AdaptiveStrategy> AdaptiveStrategy for Observed<S> {
    fn corrupt(&mut self, view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        if let Some(seed) = self.prewrite {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ view.round);
            let n = scope.n();
            for _ in 0..n / 2 {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if from == to {
                    continue;
                }
                let len = rng.gen_range(0..=BANDWIDTH);
                let bits = rng
                    .gen_bool(0.7)
                    .then(|| BitVec::from_fn(len, |_| rng.gen()));
                scope.try_corrupt(from, to, bits);
            }
        }
        self.inner.borrow_mut().corrupt(view, scope);
        self.edges.borrow_mut().push(scope.edges().clone());
    }
}

/// One random round: `frames` sends on random slots, lengths `0..=BANDWIDTH`
/// (empty frames included), so overwrites may leave fewer.
fn round_traffic(net: &mut Network, seed: u64, frames: usize) -> Traffic {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = net.n();
    let mut t = net.traffic();
    for _ in 0..frames {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if from != to {
            let len = rng.gen_range(0..=BANDWIDTH);
            t.send(from, to, BitVec::from_fn(len, |_| rng.gen()));
        }
    }
    t
}

struct Case {
    seed: u64,
    n: usize,
    frames: usize,
    alpha: f64,
    prewrite: bool,
}

type Outcome = (Vec<Delivery>, Vec<EdgeSet>, NetStats, Vec<bool>);

fn run<S: AdaptiveStrategy + 'static>(strategy: &Rc<RefCell<S>>, case: &Case) -> Outcome {
    let edges = Rc::new(RefCell::new(Vec::new()));
    let observed = Observed {
        inner: Rc::clone(strategy),
        prewrite: case.prewrite.then_some(case.seed),
        edges: Rc::clone(&edges),
    };
    let mut net = Network::new(case.n, BANDWIDTH, case.alpha, Adversary::adaptive(observed));
    let mut deliveries = Vec::new();
    let mut dense = Vec::new();
    for round in 0..ROUNDS {
        let traffic = round_traffic(&mut net, case.seed * 31 + round, case.frames);
        dense.push(traffic.is_dense());
        deliveries.push(net.exchange(traffic));
    }
    let stats = *net.stats();
    let edges = edges.borrow().clone();
    (deliveries, edges, stats, dense)
}

fn cases() -> Vec<Case> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x04AC_1E00);
    (0..48u64)
        .map(|seed| {
            let n = rng.gen_range(4..28);
            // Even seeds stay well below the n²/16 densify switch, odd ones
            // go well past it.
            let frames = if seed % 2 == 0 {
                rng.gen_range(1..=n * n / 20 + 1)
            } else {
                rng.gen_range(n * n / 4..=n * n)
            };
            Case {
                seed,
                n,
                frames,
                alpha: rng.gen_range(0.1..0.6),
                prewrite: seed % 4 >= 2,
            }
        })
        .collect()
}

fn assert_same(case: &Case, new: &Outcome, reference: &Outcome) {
    let what = format!(
        "seed {} n {} frames {} alpha {:.3} prewrite {}",
        case.seed, case.n, case.frames, case.alpha, case.prewrite
    );
    assert_eq!(new.1, reference.1, "edge sets, {what}");
    assert_eq!(new.0, reference.0, "delivered traffic, {what}");
    assert_eq!(new.2, reference.2, "network counters, {what}");
}

/// Both densify sides and both overlay states must come up among the
/// rounds the strategies corrupted in, or the oracle would be vacuous on
/// one of them.
fn assert_coverage(seen: &[(bool, bool)]) {
    for want in [(false, false), (false, true), (true, false), (true, true)] {
        assert!(
            seen.contains(&want),
            "no corrupted round with (dense, prewrite) = {want:?}"
        );
    }
}

/// The `(dense, prewrite)` shape of every round whose strategy acquired an
/// edge beyond any the prewrite took (the prewrite alone corrupts too).
fn shapes(case: &Case, outcome: &Outcome) -> Vec<(bool, bool)> {
    outcome
        .1
        .iter()
        .zip(&outcome.3)
        .filter(|(edges, _)| edges.len() > if case.prewrite { case.n / 2 } else { 0 })
        .map(|(_, &dense)| (dense, case.prewrite))
        .collect()
}

/// Runs `new` and `reference`, built from the same payload and seed, over
/// every case, and holds them to the same outcome and the same final
/// strategy state.
fn check<A, B>(
    payloads: [Payload; 2],
    new: impl Fn(Payload, u64) -> A,
    reference: impl Fn(Payload, u64) -> B,
    same_state: impl Fn(&A, &B) -> bool,
) where
    A: AdaptiveStrategy + 'static,
    B: AdaptiveStrategy + 'static,
{
    let mut seen = Vec::new();
    for case in cases() {
        for payload in payloads {
            let a = Rc::new(RefCell::new(new(payload, case.seed)));
            let b = Rc::new(RefCell::new(reference(payload, case.seed)));
            let got = run(&a, &case);
            let want = run(&b, &case);
            assert_same(&case, &got, &want);
            assert!(
                same_state(&a.borrow(), &b.borrow()),
                "strategy state, seed {}",
                case.seed
            );
            seen.extend(shapes(&case, &got));
        }
    }
    assert_coverage(&seen);
}

#[test]
fn greedy_load_matches_the_sort_and_merge_reference() {
    check(
        [Payload::Flip, Payload::Random],
        GreedyLoad::new,
        |payload, seed| ReferenceGreedyLoad {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        },
        |a, b| a.rng == b.rng,
    );
}

#[test]
fn rushing_random_matches_the_sort_and_dedup_reference() {
    check(
        [Payload::Suppress, Payload::Random],
        RushingRandom::new,
        |payload, seed| ReferenceRushingRandom {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        },
        |a, b| a.rng == b.rng,
    );
}

#[test]
fn history_camper_matches_the_per_frame_reference() {
    check(
        [Payload::Flip, Payload::Random],
        HistoryCamper::new,
        |payload, seed| ReferenceHistoryCamper {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
            load: BTreeMap::new(),
        },
        |a, b| a.rng == b.rng && a.load == b.load,
    );
}

//! Property tests: the one load-factor-switching [`Traffic`] agrees with a
//! `BTreeMap<(from, to), BitVec>` model through arbitrary interleavings of
//! sends, overwrites, clears, and adversarial corruption, on both sides of
//! the sparse → dense switch — same frames, same volume counters, same
//! iteration order, same [`Delivery`], same [`NetStats`].

use bdclique_bits::BitVec;
use bdclique_netsim::{
    Adversary, AdversaryView, CorruptionScope, Corruptor, Delivery, EdgeSet, NetStats, Network,
    Traffic,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod common;

const BANDWIDTH: usize = 12;
const ALPHA: f64 = 0.9;

/// The reference: present frames keyed by `(from, to)`, which a `BTreeMap`
/// iterates in the ascending order `for_each_frame` promises.
type Model = BTreeMap<(usize, usize), BitVec>;

/// Deterministic frame content derived from the slot and length.
fn payload(from: usize, to: usize, len: usize) -> BitVec {
    BitVec::from_fn(len, |i| (i * 7 + from * 3 + to) % 5 < 2)
}

/// One random operation, applied to the traffic and to the model.
#[derive(Debug, Clone)]
struct Op {
    from: usize,
    to: usize,
    len: usize,
    clear: bool,
}

fn ops_from(raw: Vec<(usize, usize, usize, bool)>) -> Vec<Op> {
    raw.into_iter()
        .map(|(from, to, len, clear)| Op {
            from,
            to,
            len,
            clear,
        })
        .collect()
}

/// How many queued frames turn a fresh `n`-node round dense.
fn switch_load(n: usize) -> usize {
    common::densify(&mut Traffic::new(n, BANDWIDTH))
}

/// Applies `ops` to both; returns whether the load ever reached
/// [`switch_load`], i.e. whether the traffic must now be dense — whichever
/// slots carried the load and whatever was cleared since.
fn apply_ops(t: &mut Traffic, model: &mut Model, n: usize, ops: &[Op]) -> bool {
    let switch_load = switch_load(n);
    let mut switched = false;
    for op in ops {
        let (from, to) = (op.from % n, op.to % n);
        if from == to {
            continue;
        }
        if op.clear {
            t.clear(from, to);
            model.remove(&(from, to));
        } else {
            t.send(from, to, payload(from, to, op.len));
            model.insert((from, to), payload(from, to, op.len));
        }
        switched |= model.len() >= switch_load;
    }
    switched
}

fn model_bits(model: &Model) -> u64 {
    model.values().map(|b| b.len() as u64).sum()
}

fn assert_matches_model(t: &Traffic, model: &Model) {
    let n = t.n();
    assert_eq!(t.frame_count(), model.len() as u64);
    assert_eq!(t.total_bits(), model_bits(model));
    for from in 0..n {
        for to in (0..n).filter(|&to| to != from) {
            assert_eq!(
                t.frame(from, to).as_ref(),
                model.get(&(from, to)),
                "slot ({from},{to})"
            );
        }
    }
    let mut walked = Vec::new();
    t.for_each_frame(|from, to, bits| walked.push(((from, to), bits.clone())));
    let expected: Vec<_> = model.iter().map(|(k, b)| (*k, b.clone())).collect();
    assert_eq!(walked, expected, "for_each_frame order");
}

/// Flips every even-length frame, suppresses odd-length ones, and injects
/// into intended-empty slots — rewrite, erasure, and injection in one.
struct MixedCorruptor;

fn corrupted(intended: Option<&BitVec>) -> Option<BitVec> {
    match intended {
        Some(frame) if frame.len() % 2 == 1 => None,
        Some(frame) => Some(BitVec::from_fn(frame.len(), |i| !frame.get(i))),
        None => Some(BitVec::from_bools(&[true, false])),
    }
}

impl Corruptor for MixedCorruptor {
    fn corrupt(
        &mut self,
        _view: &AdversaryView<'_>,
        edges: &EdgeSet,
        scope: &mut CorruptionScope<'_>,
    ) {
        for (u, v) in edges.iter() {
            for (a, b) in [(u, v), (v, u)] {
                let rewritten = corrupted(scope.intended(a, b).as_ref());
                scope.set(a, b, rewritten);
            }
        }
    }
}

/// A degree-capped edge set derived from raw pairs.
fn edge_set(pairs: &[(usize, usize)], n: usize, budget: usize) -> EdgeSet {
    let mut set = EdgeSet::new(n);
    for &(a, b) in pairs {
        let (u, v) = (a % n, b % n);
        if u != v && set.degree(u) < budget && set.degree(v) < budget {
            set.insert(u, v);
        }
    }
    set
}

fn assert_delivery_matches(d: &Delivery, delivered: &Model) {
    let n = d.n();
    let inbox_of = |to: usize| -> Vec<(usize, BitVec)> {
        delivered
            .iter()
            .filter(|((_, t), _)| *t == to)
            .map(|((from, _), bits)| (*from, bits.clone()))
            .collect()
    };
    for to in 0..n {
        for from in (0..n).filter(|&from| from != to) {
            assert_eq!(d.received(to, from).as_ref(), delivered.get(&(from, to)));
        }
        let walked: Vec<(usize, BitVec)> = d.inbox_of(to).collect();
        assert_eq!(walked, inbox_of(to), "inbox {to}");
    }
    let moved = d.clone().into_inboxes();
    for (to, inbox) in moved.into_iter().enumerate() {
        let inbox: Vec<(usize, BitVec)> = inbox.into_iter().map(|(f, b)| (f as usize, b)).collect();
        assert_eq!(inbox, inbox_of(to), "moved inbox {to}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Queued traffic equals the model slot by slot, in its counters and in
    /// its iteration order, and sits on the store its load history selects.
    #[test]
    fn backends_agree_before_exchange(
        n in 4usize..14,
        raw_ops in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0usize..BANDWIDTH, any::<bool>()),
            0..60,
        ),
    ) {
        let mut t = Traffic::new(n, BANDWIDTH);
        let mut model = Model::new();
        let switched = apply_ops(&mut t, &mut model, n, &ops_from(raw_ops));
        prop_assert_eq!(t.is_dense(), switched, "store must follow the load factor");
        assert_matches_model(&t, &model);
    }

    /// A full queue → corrupt → deliver round matches the model on either
    /// store: delivery by probe, by inbox walk and by move, and stats.
    #[test]
    fn corrupted_rounds_agree_across_backends(
        n in 4usize..14,
        raw_ops in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0usize..BANDWIDTH, any::<bool>()),
            0..60,
        ),
        pairs in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
    ) {
        let plan_pairs = pairs.clone();
        let plan = move |_round: u64, n: usize, budget: usize| edge_set(&plan_pairs, n, budget);
        let mut net = Network::new(n, BANDWIDTH, ALPHA, Adversary::non_adaptive(plan, MixedCorruptor));
        let mut t = net.traffic();
        let mut model = Model::new();
        let switched = apply_ops(&mut t, &mut model, n, &ops_from(raw_ops));
        prop_assert_eq!(t.is_dense(), switched);
        let d = net.exchange(t);

        let edges = edge_set(&pairs, n, net.fault_budget());
        let mut delivered = model.clone();
        for (u, v) in edges.iter() {
            for slot in [(u, v), (v, u)] {
                match corrupted(model.get(&slot)) {
                    Some(bits) => delivered.insert(slot, bits),
                    None => delivered.remove(&slot),
                };
            }
        }
        assert_delivery_matches(&d, &delivered);

        prop_assert_eq!(
            net.stats(),
            &NetStats {
                rounds: 1,
                bits_sent: model_bits(&model),
                frames_sent: model.len() as u64,
                edges_corrupted: edges.len() as u64,
                frames_corrupted: 2 * edges.len() as u64,
                peak_fault_degree: edges.max_degree(),
            }
        );
    }
}

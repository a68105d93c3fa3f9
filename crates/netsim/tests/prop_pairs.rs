//! Property tests: the sort-free busy-pair walk
//! ([`AdaptiveScope::intended_pairs`]) equals the pairs a reference builds
//! from [`AdaptiveScope::intended_frames`] by normalizing each slot to
//! `(min, max)`, sorting and merging — on either side of the sparse → dense
//! switch, with zero-length frames, and after rewrites earlier in the round
//! have filled the copy-on-write overlay. `intended_frames` itself is held
//! to the traffic as it was sent.

use bdclique_bits::BitVec;
use bdclique_netsim::{
    AdaptiveScope, AdaptiveStrategy, Adversary, AdversaryView, BusyPair, Network, Traffic,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

mod common;

const BANDWIDTH: usize = 9;
/// `⌊0.99·n⌋ = n − 1` for every `n` here: no rewrite is ever refused.
const ALPHA: f64 = 0.99;

/// What the probe saw: the intended slots and pairs, after its rewrites.
#[derive(Debug, Default)]
struct Seen {
    frames: Vec<(usize, usize, usize)>,
    pairs: Vec<BusyPair>,
}

/// Rewrites `(from, to, Some(len) | None)` slots first — suppressions,
/// replacements and injections into intended-empty slots — then reads the
/// two walks.
struct Probe {
    rewrites: Vec<(usize, usize, Option<usize>)>,
    seen: Rc<RefCell<Seen>>,
}

impl AdaptiveStrategy for Probe {
    fn corrupt(&mut self, _view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let n = scope.n();
        for &(from, to, len) in &self.rewrites {
            let (from, to) = (from % n, to % n);
            if from != to {
                let bits = len.map(|len| BitVec::from_fn(len, |i| i % 2 == 0));
                assert!(
                    scope.try_corrupt(from, to, bits),
                    "budget n − 1 never binds"
                );
            }
        }
        let mut seen = self.seen.borrow_mut();
        seen.frames = scope.intended_frames();
        seen.pairs = scope.intended_pairs();
    }
}

/// The reference: normalize, sort, merge the two directions.
fn reference_pairs(frames: &[(usize, usize, usize)]) -> Vec<BusyPair> {
    let mut pairs: Vec<(usize, usize, usize)> = frames
        .iter()
        .map(|&(from, to, bits)| (from.min(to), from.max(to), bits))
        .collect();
    pairs.sort_by_key(|&(u, v, _)| (u, v));
    let mut merged: Vec<BusyPair> = Vec::new();
    for (u, v, bits) in pairs {
        let (u, v, bits) = (u as u32, v as u32, bits as u32);
        match merged.last_mut() {
            Some(last) if (last.u, last.v) == (u, v) => last.bits += bits,
            _ => merged.push(BusyPair { u, v, bits }),
        }
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn intended_pairs_match_the_sorted_merge_of_intended_frames(
        n in 4usize..16,
        sends in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0usize..=BANDWIDTH),
            0..120,
        ),
        rewrites in prop::collection::vec(
            (any::<usize>(), any::<usize>(), any::<bool>(), 0usize..=BANDWIDTH),
            0..10,
        ),
    ) {
        let rewrites = rewrites
            .into_iter()
            .map(|(from, to, suppress, len)| (from, to, (!suppress).then_some(len)))
            .collect();
        let seen = Rc::new(RefCell::new(Seen::default()));
        let probe = Probe { rewrites, seen: Rc::clone(&seen) };
        let mut net = Network::new(n, BANDWIDTH, ALPHA, Adversary::adaptive(probe));
        let mut t: Traffic = net.traffic();
        let mut sent = BTreeMap::new();
        for (from, to, len) in sends {
            let (from, to) = (from % n, to % n);
            if from != to {
                t.send(from, to, BitVec::zeros(len));
                sent.insert((from, to), len);
            }
        }
        let dense = t.is_dense();
        prop_assert_eq!(dense, sent.len() >= common::densify(&mut Traffic::new(n, BANDWIDTH)));
        net.exchange(t);

        let seen = seen.borrow();
        let expected: Vec<_> = sent.iter().map(|(&(from, to), &len)| (from, to, len)).collect();
        prop_assert_eq!(&seen.frames, &expected, "intended_frames is the traffic as sent");
        prop_assert_eq!(&seen.pairs, &reference_pairs(&seen.frames));
    }
}

/// Fixed cases the random ones might miss: an empty round, a pair whose
/// frames are both empty, a pair carried by its reverse direction alone,
/// and a rewrite of the round's last slot.
#[test]
fn intended_pairs_edge_cases() {
    let run = |n: usize, sends: &[(usize, usize, usize)], rewrites| {
        let seen = Rc::new(RefCell::new(Seen::default()));
        let probe = Probe {
            rewrites,
            seen: Rc::clone(&seen),
        };
        let mut net = Network::new(n, BANDWIDTH, ALPHA, Adversary::adaptive(probe));
        let mut t = net.traffic();
        for &(from, to, len) in sends {
            t.send(from, to, BitVec::zeros(len));
        }
        net.exchange(t);
        let pairs = std::mem::take(&mut seen.borrow_mut().pairs);
        pairs
    };
    let pair = |u, v, bits| BusyPair { u, v, bits };
    assert_eq!(run(4, &[], vec![]), vec![]);
    assert_eq!(
        run(4, &[(1, 0, 0), (0, 1, 0), (3, 2, 5)], vec![]),
        vec![pair(0, 1, 0), pair(2, 3, 5)]
    );
    // Suppressing 3 → 2 and injecting 2 → 3 change nothing intended.
    assert_eq!(
        run(
            4,
            &[(1, 0, 0), (0, 1, 0), (3, 2, 5)],
            vec![(3, 2, None), (2, 3, Some(4))]
        ),
        vec![pair(0, 1, 0), pair(2, 3, 5)]
    );
    // Injecting into an empty round adds no pair.
    assert_eq!(run(4, &[], vec![(0, 3, Some(2))]), vec![]);
}

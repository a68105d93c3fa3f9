//! Paper conformance: round counts checked against the theorems' bounds,
//! not against whatever the code last produced.

use bdclique_adversary::corruptors::PayloadCorruptor;
use bdclique_adversary::plans::RandomMatchings;
use bdclique_adversary::Payload;
use bdclique_bits::BitVec;
use bdclique_core::protocols::{AllToAllProtocol, DetHypercube};
use bdclique_core::routing::{route, RouterConfig, RoutingInstance, SuperMessage};
use bdclique_core::AllToAllInstance;
use bdclique_netsim::{Adversary, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Packs (scatter + forward round pairs) Thm 4.1 needs for iteration `i`'s
/// `k = 2` instance: `⌈stages · chunks / lanes⌉`, from the router's own
/// report on the same shape (engine choice, stages and chunks depend on the
/// shape and α, never on payload contents). `stages` is 1 on the cover-free
/// engine; at small `n` its margin fails and the unit engine schedules 2–3.
fn iteration_packs(n: usize, bandwidth: usize, alpha: f64, i: usize) -> u64 {
    let ell = n.trailing_zeros() as usize;
    let bit = 1usize << (ell - i);
    let shape = RoutingInstance {
        n,
        payload_bits: n / 2,
        messages: (0..n)
            .flat_map(|u| {
                [0, 1].map(|c| SuperMessage {
                    src: u,
                    slot: c,
                    payload: BitVec::zeros(n / 2),
                    targets: vec![(u & !bit) | (c * bit)],
                })
            })
            .collect(),
    };
    let mut net = Network::new(n, bandwidth, alpha, Adversary::none());
    let report = route(&mut net, &shape, &RouterConfig::default())
        .unwrap()
        .report;
    // The router's wire slot: an 8-bit symbol plus its validity bit.
    let lanes = bandwidth / 9;
    let packs = (report.stages * report.chunks).div_ceil(lanes) as u64;
    assert_eq!(report.rounds, 2 * packs, "Thm 4.1: two rounds per pack");
    packs
}

/// Thm 1.4 as an executable bound: det-hypercube is `log2(n)` iterations,
/// each one `k = 2` routing instance of two rounds per pack — so exactly
/// `2 · Σ_i packs_i` rounds, which is exactly `2·log2(n)` once the
/// bandwidth fits an iteration into one pack — with zero errors, fault-free
/// and under random matchings at budget 1.
#[test]
fn det_hypercube_rounds_match_theorem_1_4() {
    for n in [8usize, 16, 32, 64] {
        let ell = n.trailing_zeros() as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let inst = AllToAllInstance::random(n, 1, &mut rng);
        for bandwidth in [9usize, 20, 72] {
            for budget in [0usize, 1] {
                let alpha = budget as f64 * 1.2 / n as f64;
                let adversary = if budget == 0 {
                    Adversary::none()
                } else {
                    Adversary::non_adaptive(
                        RandomMatchings::new(5),
                        PayloadCorruptor::new(Payload::Flip, 13),
                    )
                };
                let mut net = Network::new(n, bandwidth, alpha, adversary);
                assert_eq!(net.fault_budget(), budget);
                let out = DetHypercube::default().run(&mut net, &inst).unwrap();
                let case = format!("n = {n}, bandwidth {bandwidth}, budget {budget}");
                assert_eq!(inst.count_errors(&out), 0, "{case}");
                assert_eq!(net.stats().edges_corrupted > 0, budget > 0, "{case}");
                let packs: u64 = (1..=ell as usize)
                    .map(|i| iteration_packs(n, bandwidth, alpha, i))
                    .sum();
                assert_eq!(net.rounds(), 2 * packs, "{case}");
                if bandwidth == 72 {
                    assert_eq!(net.rounds(), 2 * ell, "{case}: one pack per dimension");
                }
            }
        }
    }
}

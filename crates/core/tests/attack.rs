//! Adversarial integration tests: every protocol against the strategies it
//! claims to survive — and the baselines against the strategies that break
//! them (the paper's motivating separations).
//!
//! All seeds are fixed, so these tests are deterministic.

use bdclique_adversary::adaptive::{GreedyLoad, RushingRandom, TargetNode};
use bdclique_adversary::corruptors::PayloadCorruptor;
use bdclique_adversary::plans::{RandomMatchings, RotatingMatching};
use bdclique_adversary::Payload;
use bdclique_core::protocols::{
    AdaptiveAllToAll, AdaptiveTakeOne, AllToAllProtocol, DetHypercube, DetSqrt, NaiveExchange,
    NonAdaptiveAllToAll, RelayReplication,
};
use bdclique_core::AllToAllInstance;
use bdclique_netsim::{Adversary, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn instance(n: usize, b: usize, seed: u64) -> AllToAllInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    AllToAllInstance::random(n, b, &mut rng)
}

fn greedy_flip() -> Adversary {
    Adversary::adaptive(GreedyLoad::new(Payload::Flip, 11))
}

fn matching_flip() -> Adversary {
    Adversary::non_adaptive(
        RotatingMatching::new(),
        PayloadCorruptor::new(Payload::Flip, 12),
    )
}

fn random_matchings_flip() -> Adversary {
    Adversary::non_adaptive(
        RandomMatchings::new(5),
        PayloadCorruptor::new(Payload::Flip, 13),
    )
}

#[test]
fn det_sqrt_survives_adaptive_greedy() {
    let inst = instance(16, 2, 1);
    // budget = ⌊0.07·16⌋ = 1 faulty edge per node per round.
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let out = DetSqrt::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0, "adversary must have acted");
}

#[test]
fn det_sqrt_survives_adaptive_greedy_n64() {
    let inst = instance(64, 1, 2);
    // budget = ⌊0.04·64⌋ = 2.
    let mut net = Network::new(64, 9, 0.04, greedy_flip());
    let out = DetSqrt::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn det_sqrt_survives_victim_concentration() {
    let inst = instance(16, 2, 3);
    let adv = Adversary::adaptive(TargetNode::new(7, Payload::Random, 14));
    let mut net = Network::new(16, 9, 0.07, adv);
    let out = DetSqrt::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
}

#[test]
fn det_hypercube_survives_adaptive_greedy() {
    let inst = instance(16, 2, 4);
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let out = DetHypercube::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn det_hypercube_survives_matching_mobile_adversary() {
    // The α = 1/n rotating matching: one faulty edge per node per round,
    // moving every round — the attack that defeats tree aggregation.
    let inst = instance(32, 1, 5);
    let mut net = Network::new(32, 9, 1.0 / 16.0, matching_flip());
    let out = DetHypercube::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn naive_exchange_is_defenseless() {
    let inst = instance(16, 2, 6);
    let mut net = Network::new(16, 9, 0.2, greedy_flip());
    let out = NaiveExchange.run(&mut net, &inst).unwrap();
    // Every corrupted edge corrupts messages: 16 nodes × budget 3 edges / 2.
    assert!(inst.count_errors(&out) > 0);
}

#[test]
fn relay_baseline_survives_static_but_not_mobile() {
    // Static adversary: the same single edge every round — replication wins.
    let static_plan = bdclique_adversary::plans::FixedEdges::new(vec![vec![(0usize, 1usize)]]);
    let inst = instance(16, 2, 7);
    let mut net = Network::new(
        16,
        9,
        0.07,
        Adversary::non_adaptive(static_plan, PayloadCorruptor::new(Payload::Flip, 15)),
    );
    let out = RelayReplication { copies: 3 }.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0, "static faults must be outvoted");

    // Mobile adaptive greedy with the same budget: the replication baseline
    // loses messages while DetSqrt (same budget) stays perfect.
    let inst2 = instance(16, 2, 8);
    let mut net2 = Network::new(16, 9, 0.07, greedy_flip());
    let out2 = RelayReplication { copies: 3 }
        .run(&mut net2, &inst2)
        .unwrap();
    let relay_errors = inst2.count_errors(&out2);
    let mut net3 = Network::new(16, 9, 0.07, greedy_flip());
    let out3 = DetSqrt::default().run(&mut net3, &inst2).unwrap();
    assert_eq!(inst2.count_errors(&out3), 0);
    assert!(
        relay_errors > 0,
        "the mobile adversary must beat plain replication"
    );
}

#[test]
fn nonadaptive_protocol_survives_planned_matchings() {
    let inst = instance(16, 2, 9);
    let proto = NonAdaptiveAllToAll {
        copies: 7,
        ..Default::default()
    };
    // budget 1 (α = 1/16), plan fixed up front, contents rushing.
    let mut net = Network::new(16, 16, 1.0 / 16.0, random_matchings_flip());
    let out = proto.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn adaptive_take1_survives_adaptive_greedy() {
    let inst = instance(16, 1, 10);
    let proto = AdaptiveTakeOne {
        line_capacity: 1,
        lines: 5,
        ..Default::default()
    };
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let out = proto.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn adaptive_take2_direct_pull_survives_adaptive_greedy() {
    let inst = instance(16, 1, 11);
    let proto = AdaptiveAllToAll {
        query_via_ldc: false,
        line_capacity: 1,
        ..Default::default()
    };
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let out = proto.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn adaptive_take2_ldc_survives_adaptive_greedy() {
    let inst = instance(16, 1, 12);
    let proto = AdaptiveAllToAll {
        line_capacity: 1,
        lines: 5,
        ..Default::default()
    };
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let out = proto.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn adaptive_take2_survives_rushing_random() {
    let inst = instance(16, 1, 13);
    let proto = AdaptiveAllToAll {
        query_via_ldc: false,
        ..Default::default()
    };
    let adv = Adversary::adaptive(RushingRandom::new(Payload::Random, 16));
    let mut net = Network::new(16, 9, 0.07, adv);
    let out = proto.run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
}

#[test]
fn compiled_algorithm_correct_under_attack() {
    use bdclique_core::cc::SumAll;
    use bdclique_core::compiler::{compile, run_fault_free};

    let algo = SumAll {
        inputs: (0..16).map(|i| (i * 7 + 3) as u64).collect(),
        width: 8,
    };
    let reference = run_fault_free(&algo, 16);
    let mut net = Network::new(16, 9, 0.07, greedy_flip());
    let run = compile(&mut net, &algo, &DetHypercube::default()).unwrap();
    assert_eq!(run.outputs, reference, "compiled run must match fault-free");
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn det_sqrt_survives_eclipse() {
    use bdclique_adversary::adaptive::Eclipse;
    let inst = instance(16, 2, 20);
    let mut net = Network::new(16, 9, 0.07, Adversary::adaptive(Eclipse { victim: 3 }));
    let out = DetSqrt::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
}

#[test]
fn det_hypercube_survives_history_camper() {
    use bdclique_adversary::adaptive::HistoryCamper;
    let inst = instance(16, 2, 21);
    let adv = Adversary::adaptive(HistoryCamper::new(Payload::Flip, 22));
    let mut net = Network::new(16, 9, 0.07, adv);
    let out = DetHypercube::default().run(&mut net, &inst).unwrap();
    assert_eq!(inst.count_errors(&out), 0);
    assert!(net.stats().edges_corrupted > 0);
}

#[test]
fn compiled_matmul_under_attack() {
    use bdclique_core::cc::BooleanMatMul;
    use bdclique_core::compiler::{compile, run_fault_free};

    let n = 16usize;
    let algo = BooleanMatMul {
        a: (0..n as u64)
            .map(|u| (u.wrapping_mul(0x9e37) ^ u) & 0xffff)
            .collect(),
        b: (0..n as u64)
            .map(|u| (u.wrapping_mul(0x5851) + 7) & 0xffff)
            .collect(),
    };
    let reference = run_fault_free(&algo, n);
    let mut net = Network::new(n, 18, 0.07, greedy_flip());
    let run = compile(&mut net, &algo, &DetHypercube::default()).unwrap();
    assert_eq!(run.outputs, reference);
}

//! Criterion wall-time benchmarks: one group per Table 1 row (plus the
//! baselines), each at a fixed small configuration under attack. The
//! *shape* claims (round counts vs n) live in the `tables` binary; these
//! benches track the simulator-side cost of each protocol.

use bdclique_bench::{run_trial, AdversarySpec, TrialSeeds, TrialSpec};
use bdclique_core::protocols::{
    AdaptiveTakeOne, DetHypercube, DetSqrt, NaiveExchange, NonAdaptiveAllToAll,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10).measurement_time(Duration::from_secs(3));

    g.bench_function("baseline/naive/n16", |b| {
        let spec = TrialSpec::clique(16, 2, 18, 0.07, AdversarySpec::GreedyFlip);
        b.iter(|| run_trial(&NaiveExchange, &spec, TrialSeeds::derive(1), None).unwrap())
    });
    g.bench_function("row1/nonadaptive/n16", |b| {
        let proto = NonAdaptiveAllToAll {
            copies: 7,
            ..Default::default()
        };
        let spec = TrialSpec::clique(16, 2, 18, 1.0 / 16.0, AdversarySpec::RandomMatchingsFlip);
        b.iter(|| run_trial(&proto, &spec, TrialSeeds::derive(2), None).unwrap())
    });
    g.bench_function("row2/adaptive-take1/n16", |b| {
        let proto = AdaptiveTakeOne {
            line_capacity: 1,
            ..Default::default()
        };
        let spec = TrialSpec::clique(16, 1, 18, 0.07, AdversarySpec::GreedyFlip);
        b.iter(|| run_trial(&proto, &spec, TrialSeeds::derive(3), None).unwrap())
    });
    g.bench_function("row3/det-hypercube/n32", |b| {
        let proto = DetHypercube::default();
        let spec = TrialSpec::clique(32, 1, 18, 1.0 / 16.0, AdversarySpec::GreedyFlip);
        b.iter(|| run_trial(&proto, &spec, TrialSeeds::derive(4), None).unwrap())
    });
    g.bench_function("row4/det-sqrt/n64", |b| {
        let proto = DetSqrt::default();
        let spec = TrialSpec::clique(64, 1, 18, 0.5 / 8.0, AdversarySpec::GreedyFlip);
        b.iter(|| run_trial(&proto, &spec, TrialSeeds::derive(5), None).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);

//! Property tests for the seeding discipline: adversary determinism,
//! seed-stream distinctness across cell coordinates, and the `⌊αn⌋` degree
//! budget.

use bdclique_bench::{run_trial, AdversarySpec, TrialSeeds, TrialSpec};
use bdclique_core::protocols::RelayReplication;
use bdclique_netsim::SeedStream;
use proptest::prelude::*;

/// Every spec, with in-range parameters for an `n`-node clique.
fn spec_for(n: usize, which: usize, a: usize, b: usize) -> AdversarySpec {
    let a = a % n;
    let b = b % n;
    let b = if a == b { (a + 1) % n } else { b };
    match which % 7 {
        0 => AdversarySpec::None,
        1 => AdversarySpec::RandomMatchingsFlip,
        2 => AdversarySpec::RotatingMatchingFlip,
        3 => AdversarySpec::RelayHunter(a, b),
        4 => AdversarySpec::GreedyFlip,
        5 => AdversarySpec::TargetNodeFlip(a),
        _ => AdversarySpec::RushingRandom,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) `AdversarySpec::build` — and the whole trial around it — is
    /// deterministic in its seed: identical [`TrialSeeds`] replay an
    /// identical trial, field for field.
    #[test]
    fn trials_are_deterministic_in_their_seeds(
        root in proptest::arbitrary::any::<u64>(),
        n in 6usize..14,
        which in 0usize..7,
        a in 0usize..64,
        b in 0usize..64,
    ) {
        // Budget ≥ 1 so the fixed-degree non-adaptive plans stay legal.
        let alpha = 1.5 / n as f64;
        let spec = TrialSpec::clique(n, 1, 18, alpha, spec_for(n, which, a, b));
        let seeds = TrialSeeds::derive(root);
        let proto = RelayReplication { copies: 3 };
        let first = run_trial(&proto, &spec, seeds, None);
        let second = run_trial(&proto, &spec, seeds, None);
        prop_assert_eq!(first.unwrap(), second.unwrap());
    }

    /// (b) distinct cell coordinates yield distinct seed streams: labelled
    /// forks differ whenever any path component differs, and the derived
    /// per-trial component seeds inherit that distinctness.
    #[test]
    fn distinct_coordinates_give_distinct_streams(
        scenario_tag in 0u64..1000,
        n in 2usize..4096,
        trial in 0u64..64,
    ) {
        let name = format!("scenario-{scenario_tag}");
        let base = SeedStream::from_label(&name).fork(&format!("n={n}"));
        let other_n = SeedStream::from_label(&name).fork(&format!("n={}", n + 1));
        let other_name =
            SeedStream::from_label(&format!("scenario-{}", scenario_tag + 1))
                .fork(&format!("n={n}"));
        prop_assert_ne!(base, other_n);
        prop_assert_ne!(base, other_name);
        // Trial indices fork apart, and the three component seeds of one
        // trial are pairwise distinct.
        prop_assert_ne!(base.fork_u64(trial), base.fork_u64(trial + 1));
        let seeds = TrialSeeds::derive(base.fork_u64(trial).seed());
        prop_assert_ne!(seeds.instance, seeds.adversary);
        prop_assert_ne!(seeds.instance, seeds.protocol);
        prop_assert_ne!(seeds.adversary, seeds.protocol);
    }

    /// (c) every adversary respects the `⌊αn⌋` degree budget: the
    /// simulator-tracked peak faulty degree never exceeds it, across all
    /// specs, sizes, and fault fractions.
    #[test]
    fn every_adversary_respects_the_degree_budget(
        root in proptest::arbitrary::any::<u64>(),
        n in 6usize..14,
        which in 0usize..7,
        a in 0usize..64,
        b in 0usize..64,
        budget_frac in 0.1f64..0.9,
    ) {
        let spec = spec_for(n, which, a, b);
        // α chosen so budget ∈ [1, n-1]; fixed-degree plans need ≥ 1.
        let alpha = (1.0 + budget_frac * (n as f64 - 2.0)) / n as f64;
        let budget = (alpha * n as f64).floor() as usize;
        prop_assume!(budget >= 1);
        let proto = RelayReplication { copies: 3 };
        let trial_spec = TrialSpec::clique(n, 1, 18, alpha, spec);
        let trial = run_trial(&proto, &trial_spec, TrialSeeds::derive(root), None).unwrap();
        prop_assert!(
            trial.peak_fault_degree <= budget,
            "spec {:?} used degree {} with budget {} (n = {}, alpha = {})",
            spec, trial.peak_fault_degree, budget, n, alpha
        );
    }
}

//! Property tests for the protocol-level invariants the paper proves:
//! Lemma 6.2's hypercube message-set characterization and the compiler's
//! fault-free equivalence.

#![expect(
    clippy::needless_range_loop,
    reason = "matches the crate-wide stance: indexed loops mirror the paper's formulas"
)]

use bdclique_core::cc::{BooleanMatMul, SumAll};
use bdclique_core::compiler::{compile, run_fault_free};
use bdclique_core::protocols::{AllToAllProtocol, DetHypercube, NaiveExchange};
use bdclique_core::AllToAllInstance;
use bdclique_netsim::{Adversary, Network};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The hypercube protocol is a permutation router: any instance,
    /// any message width, fault-free, must deliver exactly.
    #[test]
    fn hypercube_exact_for_any_instance(seed in 0u64..500, b in 1usize..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = AllToAllInstance::random(16, b, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let out = DetHypercube::default().run(&mut net, &inst).unwrap();
        prop_assert_eq!(inst.count_errors(&out), 0);
    }

    /// Compiling with a perfect AllToAllComm protocol is the identity on
    /// algorithm semantics (the paper's simulation statement).
    #[test]
    fn compiler_preserves_semantics(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 8usize;
        let algo = SumAll {
            inputs: (0..n).map(|_| rng.gen_range(0..1000u64)).collect(),
            width: 12,
        };
        let reference = run_fault_free(&algo, n);
        let mut net = Network::new(n, 12, 0.0, Adversary::none());
        let run = compile(&mut net, &algo, &NaiveExchange).unwrap();
        prop_assert_eq!(run.outputs, reference);
    }

    /// Boolean matmul agrees with the naive cubic computation for random
    /// matrices.
    #[test]
    fn matmul_agrees_with_reference(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 8usize;
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256u64)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256u64)).collect();
        let algo = BooleanMatMul { a: a.clone(), b: b.clone() };
        let outs = run_fault_free(&algo, n);
        for v in 0..n {
            for u in 0..n {
                let mut expect = false;
                for k in 0..n {
                    expect |= (a[u] >> k & 1 == 1) && (b[k] >> v & 1 == 1);
                }
                prop_assert_eq!(outs[v].get(u), expect, "C[{}][{}]", u, v);
            }
        }
    }
}

//! The round-by-round Congested Clique compiler.
//!
//! The paper's framing: an `r`-round resilient `AllToAllComm` protocol turns
//! any fault-free `r'`-round Congested Clique algorithm into an
//! `O(r'·r)`-round algorithm resilient to the same adversary — simulate each
//! fault-free round by one `AllToAllComm` instance. [`compile`] implements
//! exactly that loop; [`crate::cc`] provides fault-free algorithms to feed
//! it.
//!
//! # Parallelism and determinism
//!
//! The per-node send/receive phases are embarrassingly parallel (node `u`'s
//! messages and state transition depend only on `u`'s own state and inbox),
//! so [`compile`] and [`run_fault_free`] fan them out across the rayon
//! thread pool and fold the results back **in node order** — the output
//! does not depend on the pool's size. The oracle is the same entry point
//! inside a one-thread `rayon::ThreadPool::install`, which also serialises
//! whatever the protocol fans out underneath (a regression test holds the
//! two bit-identical, the same pattern as `bdclique_bench::scenario::run`).
//! The network rounds themselves stay strictly sequential: rounds are the
//! unit of synchrony in the model.
//!
//! Inbox assembly reads the protocol output row by row: row `u` of the
//! receiver-major output is node `u`'s inbox, each message a by-value read
//! of `B` packed bits.

use crate::error::CoreError;
use crate::problem::AllToAllInstance;
use crate::protocols::AllToAllProtocol;
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use rayon::prelude::*;

/// A fault-free Congested Clique algorithm, written node-locally.
pub trait CliqueAlgorithm {
    /// Per-node state.
    type State: Clone;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Message width `B` in bits.
    fn message_bits(&self) -> usize;

    /// Number of communication rounds.
    fn round_count(&self) -> usize;

    /// Initial state of node `u` in an `n`-clique.
    fn init(&self, u: usize, n: usize) -> Self::State;

    /// The message node `u` sends to `v` in round `r` (exactly
    /// [`Self::message_bits`] bits).
    fn send(&self, r: usize, u: usize, v: usize, state: &Self::State) -> BitVec;

    /// Delivers round `r`'s received messages (`inbox[u']` = message from
    /// `u'`; `inbox[u]` is `u`'s own message to itself).
    fn receive(&self, r: usize, u: usize, state: &mut Self::State, inbox: &[BitVec]);

    /// Node `u`'s output after the final round.
    fn output(&self, u: usize, state: &Self::State) -> BitVec;
}

/// Result of a compiled execution.
#[derive(Debug, Clone)]
pub struct CompiledRun {
    /// Per-node outputs.
    pub outputs: Vec<BitVec>,
    /// Total network rounds consumed (the simulation overhead × algorithm
    /// rounds).
    pub rounds: u64,
}

/// Runs `algo` on `net` by simulating each of its rounds with `protocol`
/// (Definition 1's reduction), fanning the node-local send/receive work out
/// across threads. The fault-free behaviour is recovered exactly whenever
/// the protocol delivers all messages correctly.
///
/// # Errors
///
/// Propagates the protocol's [`CoreError`]s.
pub fn compile<A>(
    net: &mut Network,
    algo: &A,
    protocol: &dyn AllToAllProtocol,
) -> Result<CompiledRun, CoreError>
where
    A: CliqueAlgorithm + Sync,
    A::State: Send + Sync,
{
    // The simulation's correctness argument needs every round's full n × n
    // message matrix delivered, which only the complete topology supports
    // (a sparse graph cannot carry messages between non-adjacent pairs).
    if !net.topology().is_complete() {
        return Err(CoreError::infeasible(
            "the round compiler requires the complete topology (K_n): each simulated \
             round exchanges a full n x n message matrix"
                .to_string(),
        ));
    }
    let n = net.n();
    let b = algo.message_bits();
    let rounds_before = net.rounds();
    let mut states: Vec<A::State> = (0..n).map(|u| algo.init(u, n)).collect();
    for r in 0..algo.round_count() {
        let messages: Vec<Vec<BitVec>> = {
            let states = &states;
            (0..n)
                .into_par_iter()
                .map(|u| {
                    (0..n)
                        .map(|v| {
                            let m = algo.send(r, u, v, &states[u]);
                            assert_eq!(m.len(), b, "algorithm produced wrong message width");
                            m
                        })
                        .collect()
                })
                .collect()
        };
        let inst = AllToAllInstance::new(n, b, messages);
        let output = protocol.run(net, &inst)?;
        // Row `u` of the receiver-major output is node `u`'s inbox (missing
        // messages become zeros, the node's own slot its local message).
        let work: Vec<_> = states.into_iter().enumerate().collect();
        states = work
            .into_par_iter()
            .map(|(u, mut state)| {
                let inbox: Vec<BitVec> = (0..n)
                    .map(|s| {
                        if s == u {
                            inst.message(u, u)
                        } else {
                            output.received(u, s).unwrap_or_else(|| BitVec::zeros(b))
                        }
                    })
                    .collect();
                algo.receive(r, u, &mut state, &inbox);
                state
            })
            .collect();
    }
    Ok(CompiledRun {
        outputs: (0..n).map(|u| algo.output(u, &states[u])).collect(),
        rounds: net.rounds() - rounds_before,
    })
}

/// Runs `algo` with no adversary and no simulation (the ground truth), with
/// the per-node phases parallelized.
pub fn run_fault_free<A>(algo: &A, n: usize) -> Vec<BitVec>
where
    A: CliqueAlgorithm + Sync,
    A::State: Send + Sync,
{
    let mut states: Vec<A::State> = (0..n).map(|u| algo.init(u, n)).collect();
    for r in 0..algo.round_count() {
        let all: Vec<Vec<BitVec>> = {
            let states = &states;
            (0..n)
                .into_par_iter()
                .map(|u| (0..n).map(|v| algo.send(r, u, v, &states[u])).collect())
                .collect()
        };
        // Transpose by move: inbox[u][s] = all[s][u], no clones.
        let mut senders: Vec<_> = all.into_iter().map(Vec::into_iter).collect();
        let inboxes: Vec<Vec<BitVec>> = (0..n)
            .map(|_| {
                senders
                    .iter_mut()
                    .map(|row| row.next().expect("square message matrix"))
                    .collect()
            })
            .collect();
        let work: Vec<_> = states.into_iter().zip(inboxes).enumerate().collect();
        states = work
            .into_par_iter()
            .map(|(u, (mut state, inbox))| {
                algo.receive(r, u, &mut state, &inbox);
                state
            })
            .collect();
    }
    (0..n).map(|u| algo.output(u, &states[u])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{BooleanMatMul, MaxTwoPhase, SumAll, Transpose};
    use crate::protocols::{DetHypercube, NaiveExchange};
    use bdclique_adversary::adaptive::GreedyLoad;
    use bdclique_adversary::Payload;
    use bdclique_netsim::{Adversary, Network};

    fn attacked_net(n: usize) -> Network {
        let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 77));
        Network::new(n, 9, 0.07, adversary)
    }

    /// `op` on one thread: inside the scope every rayon fan-out `op` reaches
    /// — the compiler's and the protocol's — runs on the calling thread.
    fn on_one_thread<R: Send>(op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(op)
    }

    /// The thread fan-out must be invisible: every output bit, the round
    /// count and the network's stats match the same call on a one-thread
    /// pool exactly, across heterogeneous algorithms, protocols, and an
    /// active adversary — the same contract `bdclique_bench::scenario::run`
    /// keeps.
    #[test]
    fn parallel_compile_is_bit_identical_to_serial() {
        let n = 16usize;
        let sum = SumAll {
            inputs: (0..n as u64).map(|i| i * 13 + 7).collect(),
            width: 8,
        };
        let max = MaxTwoPhase {
            inputs: (0..n as u64).map(|i| (i * 37) % 101).collect(),
            width: 8,
        };
        let transpose = Transpose {
            rows: (0..n)
                .map(|u| (0..n).map(|v| (u * n + v) as u64).collect())
                .collect(),
            width: 8,
        };
        let matmul = BooleanMatMul {
            a: (0..n as u64).map(|u| (u * 0x9e) & 0xffff).collect(),
            b: (0..n as u64).map(|u| (u * 0x5b + 3) & 0xffff).collect(),
        };

        macro_rules! check {
            ($algo:expr) => {{
                assert_eq!(
                    run_fault_free(&$algo, n),
                    on_one_thread(|| run_fault_free(&$algo, n)),
                    "{}: fault-free parallel/serial divergence",
                    $algo.name()
                );
                for proto in [
                    &NaiveExchange as &dyn AllToAllProtocol,
                    &DetHypercube::default(),
                ] {
                    // `Network` is not `Send`: build it inside the scope.
                    let run = || {
                        let mut net = attacked_net(n);
                        let compiled = compile(&mut net, &$algo, proto).unwrap();
                        (compiled.outputs, compiled.rounds, *net.stats())
                    };
                    assert_eq!(
                        run(),
                        on_one_thread(run),
                        "{} via {}: compiled parallel/serial divergence",
                        $algo.name(),
                        proto.name()
                    );
                }
            }};
        }
        check!(sum);
        check!(max);
        check!(transpose);
        check!(matmul);
    }

    /// The compiler simulates full n × n rounds, so sparse topologies are
    /// refused up front.
    #[test]
    fn sparse_topology_is_infeasible_for_compilation() {
        use bdclique_netsim::Topology;
        let algo = SumAll {
            inputs: (0..8u64).collect(),
            width: 8,
        };
        let mut net = Network::on_topology(Topology::ring(8), 9, 0.0, Adversary::none());
        assert!(matches!(
            compile(&mut net, &algo, &NaiveExchange),
            Err(CoreError::Infeasible { .. })
        ));
        assert_eq!(net.rounds(), 0);
    }

    /// The compiled clean path still recovers the fault-free reference (the
    /// row-by-row inbox reads must not reorder or drop messages).
    #[test]
    fn clone_free_inboxes_preserve_semantics() {
        let n = 8usize;
        let algo = Transpose {
            rows: (0..n)
                .map(|u| (0..n).map(|v| (u * n + v) as u64).collect())
                .collect(),
            width: 6,
        };
        let reference = run_fault_free(&algo, n);
        let mut net = Network::new(n, 8, 0.0, Adversary::none());
        let run = compile(&mut net, &algo, &NaiveExchange).unwrap();
        assert_eq!(run.outputs, reference);
    }
}

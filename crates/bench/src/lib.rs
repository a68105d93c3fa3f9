//! Shared experiment harness behind the `tables` binary: protocol/adversary
//! factories, trial execution, the declarative [`scenario`] engine, and
//! plain-text table rendering.
//!
//! Every experiment id (`T1.R1` … `A.SKETCH`) is one scenario builder in
//! [`crate::experiments`], named in its doc comment; the `tables` binary
//! regenerates the measured outcomes to hold against the paper's claims.
//!
//! # Seeding discipline
//!
//! Every trial draws three *independent* seeds — instance, adversary,
//! protocol — derived from one root via labelled [`SeedStream`] forks
//! ([`TrialSeeds::derive`]). Trial roots are in turn forked from a per-cell
//! stream that hashes the full cell coordinates (scenario name, protocol,
//! adversary, `n`, `b`, bandwidth, α), so no two experiment cells replay
//! each other's random streams and no component within a trial can be
//! correlated with another.

pub mod checkpoint;
pub mod expect;
pub mod experiments;
pub mod json;
pub mod merge;
pub mod scenario;

use bdclique_adversary::adaptive::{GreedyLoad, RushingRandom, TargetNode};
use bdclique_adversary::corruptors::PayloadCorruptor;
use bdclique_adversary::plans::{
    Alternate, Burst, EclipseCamp, PartitionCut, RandomMatchings, RelayPathHunter,
    RotatingMatching, RotatingStar,
};
use bdclique_adversary::Payload;
use bdclique_core::driver::{RoundObserver, RoundTrace};
use bdclique_core::protocols::AllToAllProtocol;
use bdclique_core::{AllToAllInstance, AllToAllOutput, CoreError, Driver};
use bdclique_netsim::{Adversary, Network, SeedStream, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which adversary to attach to a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// Fault-free.
    None,
    /// Non-adaptive: `⌊αn⌋` random matchings per round, planned up front,
    /// flipping every controlled frame.
    RandomMatchingsFlip,
    /// Non-adaptive: the rotating tournament matching (α = 1/n class).
    RotatingMatchingFlip,
    /// Non-adaptive: the degree-1 relay-path hunter for pair (src, dst).
    RelayHunter(usize, usize),
    /// Non-adaptive, time-varying: random matchings active only in the
    /// first `burst` rounds of every `period`-round window
    /// ([`Burst`]-composed).
    BurstFlip {
        /// Window length in rounds.
        period: u64,
        /// Active rounds at the start of each window.
        burst: u64,
    },
    /// Non-adaptive, time-varying: periodic phase alternation — random
    /// matchings for the first `split` rounds of every window, then a
    /// rotating star on node 0 ([`Alternate`]-composed).
    PhasedFlip {
        /// Window length in rounds.
        period: u64,
        /// Matching rounds at the start of each window.
        split: u64,
    },
    /// Adaptive: greedily corrupt the busiest edges (rushing).
    GreedyFlip,
    /// Adaptive: concentrate the budget on one victim.
    TargetNodeFlip(usize),
    /// Adaptive: random busy edges, rushing, random payloads.
    RushingRandom,
    /// Non-adaptive, topology-aware: camps **all** of `target`'s incident
    /// edges for the first `rounds` rounds ([`EclipseCamp`]). Only fully
    /// realizable on sparse graphs, where the degree-relative budget
    /// `⌊α·(deg(v)+1)⌋` can reach `deg(v)`; on the clique it degrades to
    /// camping `⌊αn⌋` spokes.
    Eclipse {
        /// The eclipsed node.
        target: usize,
        /// Camp duration in rounds.
        rounds: u64,
    },
    /// Non-adaptive, topology-aware: camps the crossing edges of a seeded
    /// balanced bipartition ([`PartitionCut`]). Closes the whole cut only on
    /// sparse graphs (`Θ(n²)` crossing edges on the clique vs. `O(n)`
    /// budgets).
    Partition {
        /// Seed of the camped bipartition.
        cut_seed: u64,
    },
}

impl AdversarySpec {
    /// Short name for table rows.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::None => "none",
            AdversarySpec::RandomMatchingsFlip => "nbd-matchings",
            AdversarySpec::RotatingMatchingFlip => "nbd-rotating",
            AdversarySpec::RelayHunter(..) => "nbd-hunter",
            AdversarySpec::BurstFlip { .. } => "nbd-burst",
            AdversarySpec::PhasedFlip { .. } => "nbd-phased",
            AdversarySpec::GreedyFlip => "abd-greedy",
            AdversarySpec::TargetNodeFlip(_) => "abd-victim",
            AdversarySpec::RushingRandom => "abd-rushing",
            AdversarySpec::Eclipse { .. } => "nbd-eclipse",
            AdversarySpec::Partition { .. } => "nbd-partition",
        }
    }

    /// Canonical key naming the spec *and* its parameters — the string that
    /// distinguishes e.g. `RelayHunter(3, 11)` from `RelayHunter(0, 1)` in
    /// seed derivation and JSON output, where [`AdversarySpec::name`] would
    /// collide.
    pub fn key(&self) -> String {
        match self {
            AdversarySpec::RelayHunter(src, dst) => format!("nbd-hunter({src},{dst})"),
            AdversarySpec::TargetNodeFlip(victim) => format!("abd-victim({victim})"),
            AdversarySpec::BurstFlip { period, burst } => {
                format!("nbd-burst({burst}/{period})")
            }
            AdversarySpec::PhasedFlip { period, split } => {
                format!("nbd-phased({split}/{period})")
            }
            AdversarySpec::Eclipse { target, rounds } => {
                format!("nbd-eclipse({target},{rounds})")
            }
            AdversarySpec::Partition { cut_seed } => format!("nbd-partition({cut_seed})"),
            other => other.name().to_string(),
        }
    }

    /// Builds the adversary (deterministic in `seed`).
    ///
    /// Components with their own randomness — the edge plan / adaptive
    /// strategy and the payload corruptor — are seeded from *separate*
    /// [`SeedStream`] forks of `seed`, so a plan can never be correlated
    /// with the payloads it carries.
    pub fn build(&self, seed: u64) -> Adversary {
        let stream = SeedStream::new(seed);
        let plan_seed = stream.fork("plan").seed();
        let payload_seed = stream.fork("payload").seed();
        match *self {
            AdversarySpec::None => Adversary::none(),
            AdversarySpec::RandomMatchingsFlip => Adversary::non_adaptive(
                RandomMatchings::new(plan_seed),
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::RotatingMatchingFlip => Adversary::non_adaptive(
                RotatingMatching::new(),
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::RelayHunter(src, dst) => Adversary::non_adaptive(
                RelayPathHunter { src, dst },
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::BurstFlip { period, burst } => Adversary::non_adaptive(
                Burst::new(RandomMatchings::new(plan_seed), period, burst),
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::PhasedFlip { period, split } => Adversary::non_adaptive(
                Alternate::new(
                    RandomMatchings::new(plan_seed),
                    RotatingStar { victim: 0 },
                    split,
                    period,
                ),
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::GreedyFlip => {
                Adversary::adaptive(GreedyLoad::new(Payload::Flip, plan_seed))
            }
            AdversarySpec::TargetNodeFlip(victim) => {
                Adversary::adaptive(TargetNode::new(victim, Payload::Flip, plan_seed))
            }
            AdversarySpec::RushingRandom => {
                Adversary::adaptive(RushingRandom::new(Payload::Random, plan_seed))
            }
            AdversarySpec::Eclipse { target, rounds } => Adversary::non_adaptive(
                EclipseCamp { target, rounds },
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
            AdversarySpec::Partition { cut_seed } => Adversary::non_adaptive(
                PartitionCut { cut_seed },
                PayloadCorruptor::new(Payload::Flip, payload_seed),
            ),
        }
    }
}

/// Which communication graph a trial runs on.
///
/// [`TopologySpec::Complete`] is the historical default: trials build the
/// network with [`Network::new`] and draw instances with
/// [`AllToAllInstance::random`], keeping every pre-topology seed sequence
/// and golden byte-identical. Sparse specs build the graph per trial,
/// mask the instance to its edge set ([`AllToAllInstance::random_on`]),
/// and open the network with [`Network::on_topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// The complete graph `K_n` — the paper's model and the default.
    #[default]
    Complete,
    /// The `log₂ n`-dimensional hypercube (`n` must be a power of two).
    Hypercube,
    /// A seeded random `d`-regular graph (constant-degree expander).
    RandomRegular {
        /// Degree.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Whether this is the clique (the zero-overhead legacy path).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }

    /// Canonical key for seed derivation and JSON coordinates. Only ever
    /// hashed for non-complete specs — clique cells keep their historical
    /// seed streams.
    pub fn key(&self) -> String {
        match self {
            TopologySpec::Complete => "complete".to_string(),
            TopologySpec::Hypercube => "hypercube".to_string(),
            TopologySpec::RandomRegular { d, seed } => {
                format!("random-regular(d={d},seed={seed})")
            }
        }
    }

    /// Materializes the graph on `n` nodes.
    pub fn build(&self, n: usize) -> Topology {
        match *self {
            TopologySpec::Complete => Topology::complete(n),
            TopologySpec::Hypercube => Topology::hypercube(n),
            TopologySpec::RandomRegular { d, seed } => Topology::random_regular(n, d, seed),
        }
    }
}

/// The three independent seeds one trial consumes.
///
/// Derived from a single root by labelled [`SeedStream`] forks, so the
/// components are decorrelated while the whole trial stays reproducible
/// from one `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSeeds {
    /// Seeds the RNG that draws the random [`AllToAllInstance`].
    pub instance: u64,
    /// Passed to [`AdversarySpec::build`].
    pub adversary: u64,
    /// For the protocol's internal coins (`seed` field of the randomized
    /// protocols); unused by deterministic ones.
    pub protocol: u64,
}

impl TrialSeeds {
    /// Derives the three component seeds from one root.
    pub fn derive(root: u64) -> Self {
        let stream = SeedStream::new(root);
        Self {
            instance: stream.fork("instance").seed(),
            adversary: stream.fork("adversary").seed(),
            protocol: stream.fork("protocol").seed(),
        }
    }
}

/// Outcome of one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// Wrong or missing messages (out of `n²`).
    pub errors: usize,
    /// Network rounds consumed.
    pub rounds: u64,
    /// Honest bits queued.
    pub bits_sent: u64,
    /// Corrupted (edge, round) slots used by the adversary.
    pub edges_corrupted: u64,
    /// Maximum faulty degree the adversary actually used in any round — by
    /// the model's enforcement, always `≤ ⌊αn⌋`.
    pub peak_fault_degree: usize,
}

impl Trial {
    /// Scores a finished run: `out` against the instance, cost counters off
    /// the network.
    pub fn score(inst: &AllToAllInstance, net: &Network, out: &AllToAllOutput) -> Self {
        let stats = net.stats();
        Self {
            errors: inst.count_errors(out),
            rounds: net.rounds(),
            bits_sent: stats.bits_sent,
            edges_corrupted: stats.edges_corrupted,
            peak_fault_degree: stats.peak_fault_degree,
        }
    }
}

/// The coordinates of one trial besides its protocol and seeds: which graph,
/// how big, and against whom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSpec {
    /// Communication graph.
    pub topology: TopologySpec,
    /// Nodes.
    pub n: usize,
    /// Message bits per ordered pair.
    pub b: usize,
    /// Link bandwidth `B` in bits.
    pub bandwidth: usize,
    /// Fault fraction α (degree budget `⌊αn⌋`, degree-relative off the
    /// clique).
    pub alpha: f64,
    /// Attached adversary.
    pub adversary: AdversarySpec,
}

impl TrialSpec {
    /// A trial on the complete graph `K_n`.
    pub fn clique(
        n: usize,
        b: usize,
        bandwidth: usize,
        alpha: f64,
        adversary: AdversarySpec,
    ) -> Self {
        Self {
            topology: TopologySpec::Complete,
            n,
            b,
            bandwidth,
            alpha,
            adversary,
        }
    }

    /// Draws the trial's instance from `seeds.instance` and opens its
    /// network with the adversary built from `seeds.adversary` — the one
    /// place seeds become an `(instance, network)` pair, so every runner,
    /// checkpointed or not, faces the same trial. The instance is masked to
    /// the topology's edge set (on `K_n`, nothing is masked) and the
    /// network runs under the degree-relative budget `⌊α·(deg(v)+1)⌋`
    /// (on `K_n`, `⌊αn⌋`).
    pub fn build(&self, seeds: TrialSeeds) -> (AllToAllInstance, Network) {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.instance);
        let adversary = self.adversary.build(seeds.adversary);
        let topo = self.topology.build(self.n);
        let inst = AllToAllInstance::random_on(&topo, self.b, &mut rng);
        let net = Network::on_topology(topo, self.bandwidth, self.alpha, adversary);
        (inst, net)
    }
}

/// Runs one trial of `proto` on a fresh network, under the session
/// [`Driver`] — with `trace` as its one observer when given, recording the
/// per-round stat deltas. Observers never touch protocol or adversary
/// randomness, so the [`Trial`] is identical with tracing on or off (the
/// session-regression suite covers this).
///
/// # Errors
///
/// Propagates protocol parameter errors ([`CoreError`]), including
/// `Infeasible` from clique-only protocols on sparse graphs.
pub fn run_trial(
    proto: &dyn AllToAllProtocol,
    spec: &TrialSpec,
    seeds: TrialSeeds,
    trace: Option<&mut RoundTrace>,
) -> Result<Trial, CoreError> {
    let (inst, mut net) = spec.build(seeds);
    let mut observers: Vec<&mut dyn RoundObserver> = Vec::new();
    if let Some(trace) = trace {
        observers.push(trace);
    }
    let out = Driver::with_observers(&mut observers).run(proto, &mut net, &inst)?;
    Ok(Trial::score(&inst, &net, &out))
}

/// Aggregates several trials of the same configuration.
///
/// The means are `None` — never `NaN`, and never a misleading `0.0` — when
/// no trial completed (all infeasible or failed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Number of trials.
    pub trials: usize,
    /// Trials that completed (ran to an output, with or without errors).
    pub completed: usize,
    /// Trials with zero errors.
    pub perfect: usize,
    /// Total errors across trials.
    pub total_errors: usize,
    /// Mean rounds over completed trials; `None` if none completed.
    pub mean_rounds: Option<f64>,
    /// Mean corrupted edge-slots per completed trial; `None` if none
    /// completed.
    pub mean_corrupted: Option<f64>,
    /// Mean honest bits queued per completed trial; `None` if none
    /// completed.
    pub mean_bits: Option<f64>,
    /// Maximum faulty degree the adversary used across all completed trials.
    pub max_fault_degree: usize,
    /// Infeasible-parameter failures.
    pub infeasible: usize,
    /// Trials that failed with any other protocol error (excluded from the
    /// means; nonzero here flags a configuration bug, not a protocol loss).
    pub failed: usize,
}

/// Folds per-trial results (in trial order) into an [`Aggregate`]. The fold
/// order is part of the determinism contract: floating-point means are
/// computed from integer sums, so any ordering of the same multiset of
/// results yields identical fields — but keeping input order makes that
/// trivially true. Public so oracle harnesses can fold hand-run trials
/// exactly like the engine does.
pub fn fold_trials(trials: usize, results: Vec<Result<Trial, CoreError>>) -> Aggregate {
    let mut agg = Aggregate {
        trials,
        ..Default::default()
    };
    let mut rounds_sum = 0u64;
    let mut corrupted_sum = 0u64;
    let mut bits_sum = 0u64;
    for result in results {
        match result {
            Ok(trial) => {
                agg.completed += 1;
                if trial.errors == 0 {
                    agg.perfect += 1;
                }
                agg.total_errors += trial.errors;
                rounds_sum += trial.rounds;
                corrupted_sum += trial.edges_corrupted;
                bits_sum += trial.bits_sent;
                agg.max_fault_degree = agg.max_fault_degree.max(trial.peak_fault_degree);
            }
            Err(CoreError::Infeasible { .. }) => agg.infeasible += 1,
            Err(_) => agg.failed += 1,
        }
    }
    if agg.completed > 0 {
        agg.mean_rounds = Some(rounds_sum as f64 / agg.completed as f64);
        agg.mean_corrupted = Some(corrupted_sum as f64 / agg.completed as f64);
        agg.mean_bits = Some(bits_sum as f64 / agg.completed as f64);
    }
    agg
}

/// A plain-text table printer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a titled table with column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns. A table with no rows (e.g. a
    /// zero-trial or fully filtered scenario) still renders its header block
    /// rather than panicking or printing misleading placeholder rows.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_core::protocols::NaiveExchange;

    #[test]
    fn trial_runs_fault_free() {
        let spec = TrialSpec::clique(8, 1, 9, 0.0, AdversarySpec::None);
        let t = run_trial(&NaiveExchange, &spec, TrialSeeds::derive(1), None).unwrap();
        assert_eq!(t.errors, 0);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.peak_fault_degree, 0);
    }

    /// The two component seeds of one trial must never coincide — the old
    /// `seed` / `seed ^ 0xfeed` scheme handed the adversary the instance
    /// stream.
    #[test]
    fn trial_seeds_are_pairwise_distinct() {
        for root in [0u64, 1, 1000, u64::MAX] {
            let s = TrialSeeds::derive(root);
            assert_ne!(s.instance, s.adversary, "root {root}");
            assert_ne!(s.instance, s.protocol, "root {root}");
            assert_ne!(s.adversary, s.protocol, "root {root}");
        }
    }

    /// An all-infeasible cell must keep its means well-defined (`None`), not
    /// `NaN`, `0/0`, or a misleading `0.0`.
    #[test]
    fn all_infeasible_fold_has_no_means() {
        let results: Vec<Result<Trial, CoreError>> = (0..3)
            .map(|i| {
                Err(CoreError::Infeasible {
                    reason: format!("trial {i}"),
                })
            })
            .collect();
        let agg = fold_trials(3, results);
        assert_eq!(agg.trials, 3);
        assert_eq!(agg.infeasible, 3);
        assert_eq!(agg.completed, 0);
        assert_eq!(agg.mean_rounds, None);
        assert_eq!(agg.mean_corrupted, None);
        assert_eq!(agg.mean_bits, None);
    }

    #[test]
    fn empty_fold_is_well_defined_too() {
        let agg = fold_trials(0, Vec::new());
        assert_eq!(agg.trials, 0);
        assert_eq!(agg.mean_rounds, None);
        assert_eq!(agg.perfect, 0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
    }

    #[test]
    fn adversary_specs_build() {
        for spec in [
            AdversarySpec::None,
            AdversarySpec::RandomMatchingsFlip,
            AdversarySpec::RotatingMatchingFlip,
            AdversarySpec::RelayHunter(0, 1),
            AdversarySpec::BurstFlip {
                period: 8,
                burst: 2,
            },
            AdversarySpec::PhasedFlip {
                period: 6,
                split: 3,
            },
            AdversarySpec::GreedyFlip,
            AdversarySpec::TargetNodeFlip(2),
            AdversarySpec::RushingRandom,
            AdversarySpec::Eclipse {
                target: 1,
                rounds: 4,
            },
            AdversarySpec::Partition { cut_seed: 9 },
        ] {
            let _ = spec.build(7);
            assert!(!spec.name().is_empty());
        }
        assert_eq!(
            AdversarySpec::Eclipse {
                target: 1,
                rounds: 4
            }
            .key(),
            "nbd-eclipse(1,4)"
        );
        assert_eq!(
            AdversarySpec::Partition { cut_seed: 9 }.key(),
            "nbd-partition(9)"
        );
    }

    /// Sparse trials run end to end: a fault-free naive exchange on a random
    /// regular graph delivers every neighbor message (masked instances hold
    /// zeros elsewhere), and an eclipse at `α = 0.9` on the same graph
    /// corrupts — the budget `⌊0.9·9⌋ = 8` covers the full degree.
    #[test]
    fn sparse_trial_runs_on_random_regular() {
        let clean_spec = TrialSpec {
            topology: TopologySpec::RandomRegular { d: 8, seed: 21 },
            n: 32,
            b: 2,
            bandwidth: 18,
            alpha: 0.0,
            adversary: AdversarySpec::None,
        };
        let seeds = TrialSeeds::derive(3);
        let clean = run_trial(&NaiveExchange, &clean_spec, seeds, None).unwrap();
        assert_eq!(clean.errors, 0);
        assert_eq!(clean.rounds, 1);
        let eclipse_spec = TrialSpec {
            alpha: 0.9,
            adversary: AdversarySpec::Eclipse {
                target: 0,
                rounds: 64,
            },
            ..clean_spec
        };
        let eclipsed = run_trial(&NaiveExchange, &eclipse_spec, seeds, None).unwrap();
        assert!(eclipsed.edges_corrupted > 0, "eclipse must close on d=8");
        assert!(eclipsed.errors > 0);
    }

    /// Clique-only protocols report `Infeasible` (not an error) on sparse
    /// topologies, so grid cells fold them into the `infeasible` column.
    #[test]
    fn clique_only_protocol_is_infeasible_on_sparse() {
        use bdclique_core::protocols::DetSqrt;
        let spec = TrialSpec {
            topology: TopologySpec::RandomRegular { d: 8, seed: 21 },
            ..TrialSpec::clique(16, 1, 9, 0.0, AdversarySpec::None)
        };
        let err = run_trial(&DetSqrt::default(), &spec, TrialSeeds::derive(4), None).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn topology_spec_keys_and_builds() {
        assert!(TopologySpec::Complete.is_complete());
        assert_eq!(TopologySpec::Complete.key(), "complete");
        assert_eq!(TopologySpec::Hypercube.key(), "hypercube");
        assert_eq!(
            TopologySpec::RandomRegular { d: 8, seed: 7 }.key(),
            "random-regular(d=8,seed=7)"
        );
        assert_eq!(TopologySpec::Hypercube.build(16).max_degree(), 4);
        let rr = TopologySpec::RandomRegular { d: 4, seed: 7 }.build(16);
        assert!((0..16).all(|v| rr.degree(v) == 4));
    }

    /// A burst adversary corrupts only inside its windows, and the trace
    /// plumbed through the traced trial runner shows exactly that shape.
    #[test]
    fn traced_trial_sees_burst_windows() {
        use bdclique_core::protocols::RelayReplication;
        let burst = AdversarySpec::BurstFlip {
            period: 3,
            burst: 1,
        };
        let spec = TrialSpec::clique(16, 2, 9, 0.25, burst);
        let proto = RelayReplication { copies: 3 };
        let seeds = TrialSeeds::derive(5);
        let mut trace = RoundTrace::new();
        let trial = run_trial(&proto, &spec, seeds, Some(&mut trace)).unwrap();
        let frames = trace.frames;
        assert_eq!(frames.len() as u64, trial.rounds);
        for frame in &frames {
            let active = frame.round % 3 == 0;
            assert_eq!(
                frame.stats.edges_corrupted > 0,
                active,
                "round {}: burst gating must shape the per-round corruption",
                frame.round
            );
        }
        // Tracing must not perturb the trial outcome.
        let untracked = run_trial(&proto, &spec, seeds, None).unwrap();
        assert_eq!(trial, untracked);
    }
}

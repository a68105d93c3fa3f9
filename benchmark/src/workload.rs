//! The four workloads and the code that runs one trial of one of them.
//!
//! Everything here drives the program through its public seams only: a
//! protocol's `Default`, `session`, `step`, the network constructor and its
//! counters, and the adversary constructors. The program only ever sees the
//! generated instance and adversary; seeds derive from `--seed` through
//! [`SeedStream`] forks labelled by workload and trial index.

use crate::decor::{TimedCorruptor, TimedPlan, TimedStrategy, ACT};
use crate::proc;
use crate::trace::Trace;
use bdclique_adversary::adaptive::GreedyLoad;
use bdclique_adversary::corruptors::PayloadCorruptor;
use bdclique_adversary::plans::RandomMatchings;
use bdclique_adversary::Payload;
use bdclique_core::protocols::{
    AllToAllProtocol, DetHypercube, DetSqrt, NaiveExchange, ProtocolSession, Step,
};
use bdclique_core::routing::{shared_codeword_cache, CodewordCache, SharedCodewordCache};
use bdclique_core::{restore_run, snapshot_run, AllToAllInstance, AllToAllOutput, CoreError};
use bdclique_netsim::{Adversary, NetStats, Network, SeedStream};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The seed whose exact counts `expected.json` pins.
pub const DEFAULT_SEED: u64 = 1;

/// Message size `B` in bits, and the per-edge bandwidth, of every workload.
pub const MESSAGE_BITS: usize = 1;
/// Bits per ordered pair per round.
pub const BANDWIDTH: usize = 20;

/// Which protocol a workload drives, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// `DetSqrt::default()`, a fresh network per trial.
    DetSqrt,
    /// `DetHypercube::default()`, a fresh network per trial.
    DetHypercube,
    /// `NaiveExchange` sessions back to back on one long-lived network;
    /// each session is one trial.
    NaiveStream,
}

/// The adversary attached to a workload's network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// `Adversary::none()`.
    None,
    /// Adaptive `GreedyLoad` flipping every bit of the busiest edges.
    GreedyFlip,
    /// Non-adaptive `RandomMatchings` with a flipping `PayloadCorruptor`.
    MatchingsFlip,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses and which it
    /// bypasses.
    pub why: &'static str,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Adversary under test.
    pub attack: Attack,
    /// Clique size.
    pub n: usize,
    /// Fault fraction; the per-round degree budget is `⌊α·n⌋`.
    pub alpha: f64,
    /// Timed trials when no `--seconds` budget is given.
    pub trials: usize,
    /// Leading trials of the main sequence that are checked but not timed.
    pub warmups: usize,
    /// The round after which the traced run checkpoints one extra trial,
    /// restores it and finishes both copies; `None` to skip that.
    pub checkpoint_round: Option<u64>,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sqrt-clean",
        why: "Thm 1.5 headline cell, no faults: routing pack build, RS encode, erasure-only \
              decode and sparse-to-dense netsim rounds do the work; the adversary does none",
        protocol: Protocol::DetSqrt,
        attack: Attack::None,
        n: 1024,
        alpha: 0.0,
        trials: 12,
        warmups: 0,
        checkpoint_round: Some(32),
    },
    Workload {
        name: "sqrt-greedy",
        why: "same protocol under adaptive GreedyLoad at budget 8: per-round intended-frame \
              discovery and RS decoding of real errors; shows a clean-path gain that costs the \
              faulty path",
        protocol: Protocol::DetSqrt,
        attack: Attack::GreedyFlip,
        n: 1024,
        alpha: 8.2 / 1024.0,
        trials: 6,
        warmups: 0,
        checkpoint_round: None,
    },
    Workload {
        name: "hypercube-matchings",
        why: "Thm 1.4 under random matchings at budget 1: the k = 2 router once per dimension, \
              5x fewer rounds than det-sqrt yet slower per round, the unexplained ledger anomaly",
        protocol: Protocol::DetHypercube,
        attack: Attack::MatchingsFlip,
        n: 1024,
        alpha: 1.2 / 1024.0,
        trials: 8,
        warmups: 0,
        checkpoint_round: None,
    },
    Workload {
        name: "naive-stream",
        why: "back-to-back NaiveExchange sessions on one network at budget 4: bypasses codes and \
              routing, so dense full-load netsim dominates; codes or routing changes must not \
              move it",
        protocol: Protocol::NaiveStream,
        attack: Attack::MatchingsFlip,
        n: 1024,
        alpha: 4.2 / 1024.0,
        trials: 160,
        warmups: 10,
        checkpoint_round: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exact, simulated quantities of one trial. They depend on the seed
/// and the program's logic only, never on the host, so two runs with one
/// seed must agree on every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Network rounds the trial consumed.
    pub rounds: u64,
    /// Payload bits honest nodes put on the wire.
    pub wire_bits: u64,
    /// Non-empty frames honest nodes queued.
    pub frames_sent: u64,
    /// Frames the adversary rewrote or suppressed.
    pub frames_corrupted: u64,
    /// (edge, round) slots the adversary used.
    pub edges_corrupted: u64,
    /// Wrong or missing messages out of `n²`, by `count_errors`.
    pub errors: u64,
}

impl Counts {
    fn between(before: &NetStats, after: &NetStats, errors: usize) -> Self {
        Self {
            rounds: after.rounds - before.rounds,
            wire_bits: after.bits_sent - before.bits_sent,
            frames_sent: after.frames_sent - before.frames_sent,
            frames_corrupted: after.frames_corrupted - before.frames_corrupted,
            edges_corrupted: after.edges_corrupted - before.edges_corrupted,
            errors: errors as u64,
        }
    }
}

/// What one trial measured.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Position in the workload's trial sequence (fixes the seeds).
    pub index: usize,
    /// `AllToAllInstance::random`.
    pub instance_s: f64,
    /// `Network::new`; 0 when the trial reused the stream's network.
    pub network_new_s: f64,
    /// Protocol construction, cache attachment and
    /// `AllToAllProtocol::session`.
    pub session_open_s: f64,
    /// From the first `ProtocolSession::step` to `Step::Done`.
    pub trial_s: f64,
    /// `AllToAllInstance::count_errors`.
    pub check_s: f64,
    /// From the start of instance generation to the end of the check.
    pub wall_s: f64,
    /// CPU seconds (all threads) spent between the first step and `Done`;
    /// traced trials only.
    pub cpu_s: f64,
    /// Per-step durations in milliseconds; traced trials only.
    pub step_ms: Vec<f64>,
    /// Seconds inside the adversary's trait methods; traced trials only.
    pub act_s: f64,
    /// Calls into the adversary's trait methods; traced trials only.
    pub act_calls: u64,
    /// Codeword-cache `(hits, misses)` of the trial's fresh cache.
    pub cache: (u64, u64),
    /// Simulated counts; `None` when the protocol returned an error.
    pub counts: Option<Counts>,
    /// The protocol's error, if it returned one.
    pub error: Option<String>,
}

impl Trial {
    /// Set-up time as `setup_s` defines it.
    pub fn setup_s(&self) -> f64 {
        self.instance_s + self.network_new_s + self.session_open_s
    }

    /// Whether the trial delivered what its workload promises: no protocol
    /// error, and no more wrong messages than `tolerance` allows.
    pub fn delivered(&self, w: &Workload) -> bool {
        self.counts.is_some_and(|c| c.errors <= tolerance(w, &c))
    }
}

/// Wrong messages a trial may end with. The three compilers tolerate their
/// adversary, so none; `NaiveExchange` has no protection, and each
/// corrupted edge can damage the message in either direction.
pub fn tolerance(w: &Workload, counts: &Counts) -> u64 {
    match w.protocol {
        Protocol::DetSqrt | Protocol::DetHypercube => 0,
        Protocol::NaiveStream => 2 * counts.edges_corrupted,
    }
}

fn protocol(kind: Protocol) -> Box<dyn AllToAllProtocol> {
    match kind {
        Protocol::DetSqrt => Box::new(DetSqrt::default()),
        Protocol::DetHypercube => Box::new(DetHypercube::default()),
        Protocol::NaiveStream => Box::new(NaiveExchange),
    }
}

/// Builds the workload's adversary, wrapped in the timing decorators when
/// `trace` is given.
pub fn adversary(attack: Attack, seeds: &SeedStream, trace: Option<&Trace>) -> Adversary {
    let seed = |label: &str| seeds.fork(label).seed();
    match attack {
        Attack::None => Adversary::none(),
        Attack::GreedyFlip => {
            let strategy = GreedyLoad::new(Payload::Flip, seed("strategy"));
            match trace {
                Some(t) => Adversary::adaptive(TimedStrategy::new(strategy, t.clone())),
                None => Adversary::adaptive(strategy),
            }
        }
        Attack::MatchingsFlip => {
            let plan = RandomMatchings::new(seed("plan"));
            let corruptor = PayloadCorruptor::new(Payload::Flip, seed("corruptor"));
            match trace {
                Some(t) => Adversary::non_adaptive(
                    TimedPlan::new(plan, t.clone()),
                    TimedCorruptor::new(corruptor, t.clone()),
                ),
                None => Adversary::non_adaptive(plan, corruptor),
            }
        }
    }
}

/// Runs `f`, as a span when tracing, and returns its result and duration.
fn timed<T>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match trace {
        Some(t) => t.time(name, f),
        None => {
            let start = Instant::now();
            let value = f();
            (value, start.elapsed().as_secs_f64())
        }
    }
}

/// What checkpointing one trial mid-run cost, and whether it was faithful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// `snapshot_run`, in milliseconds.
    pub encode_ms: f64,
    /// `restore_run`, in milliseconds.
    pub restore_ms: f64,
    /// Size of the snapshot document.
    pub bytes: usize,
    /// Whether the restored copy finished with the same output and network
    /// counters as the original, and without errors.
    pub identical: bool,
}

/// Runs the trials of one workload in sequence.
///
/// A compiler workload gets a fresh network per trial. `naive-stream` keeps
/// one network alive across its sessions, built by the first trial.
#[derive(Debug)]
pub struct Runner {
    workload: Workload,
    seeds: SeedStream,
    trace: Option<Trace>,
    /// The stream's long-lived network, between trials.
    stream_net: Option<Network>,
}

impl Runner {
    /// A runner for `workload` whose seeds derive from `seed`; with a
    /// `trace`, steps and adversary calls are recorded as spans.
    pub fn new(workload: &Workload, seed: u64, trace: Option<Trace>) -> Self {
        Self {
            workload: *workload,
            seeds: SeedStream::new(seed).fork(workload.name),
            trace,
            stream_net: None,
        }
    }

    fn instance(&self, trial_seeds: &SeedStream) -> AllToAllInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seeds.fork("instance").seed());
        AllToAllInstance::random(self.workload.n, MESSAGE_BITS, &mut rng)
    }

    fn network(&self, trial_seeds: &SeedStream) -> Network {
        let w = &self.workload;
        let adversary = adversary(w.attack, trial_seeds, self.trace.as_ref());
        Network::new(w.n, BANDWIDTH, w.alpha, adversary)
    }

    /// Set-up only: builds the instance, a network and an open session for
    /// trial `index`, drops them, and returns the `setup_s` sample.
    pub fn setup_only(&self, index: usize) -> Result<f64, CoreError> {
        let trial_seeds = self.seeds.fork_u64(index as u64);
        let start = Instant::now();
        let inst = self.instance(&trial_seeds);
        let net = self.network(&trial_seeds);
        let proto = self.open_protocol().0;
        let session = proto.session(&net, &inst)?;
        let secs = start.elapsed().as_secs_f64();
        drop(session);
        Ok(secs)
    }

    /// The protocol with a fresh codeword cache attached, as
    /// `scenario::run_trials` attaches one per cell.
    fn open_protocol(&self) -> (Box<dyn AllToAllProtocol>, SharedCodewordCache) {
        let cache = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
        let mut proto = protocol(self.workload.protocol);
        proto.attach_codeword_cache(cache.clone());
        (proto, cache)
    }

    /// Runs trial `index` and returns its measurements.
    pub fn trial(&mut self, index: usize) -> Trial {
        self.trial_inspect(index, |_, _| {})
    }

    /// [`Runner::trial`], showing `inspect` the network and the output once
    /// the trial has been checked (not at all when the protocol failed).
    /// The transparency tests read the payloads, counters and adversary
    /// state through it.
    pub fn trial_inspect(
        &mut self,
        index: usize,
        inspect: impl FnOnce(&mut Network, &AllToAllOutput),
    ) -> Trial {
        let trace = self.trace.clone();
        let trace = trace.as_ref();
        let trial_id = trace.map(Trace::begin_trial);
        let trial_seeds = self.seeds.fork_u64(index as u64);
        let wall = Instant::now();

        let (inst, instance_s) = timed(trace, "bench.instance", || self.instance(&trial_seeds));
        let (mut net, network_new_s) = match self.stream_net.take() {
            Some(net) => (net, 0.0),
            None => timed(trace, "netsim.network_new", || self.network(&trial_seeds)),
        };
        let before = *net.stats();
        let mut trial = Trial {
            index,
            instance_s,
            network_new_s,
            ..Trial::default()
        };

        let ((proto, cache), open_a) = timed(trace, "core.protocols.session_open", || {
            self.open_protocol()
        });
        let (session, open_b) = timed(trace, "core.protocols.session_open", || {
            proto.session(&net, &inst)
        });
        trial.session_open_s = open_a + open_b;

        match session.and_then(|s| run_steps(s, &mut net, trace, &mut trial)) {
            Ok(output) => {
                let (errors, check_s) = timed(trace, "bench.check", || inst.count_errors(&output));
                trial.check_s = check_s;
                trial.counts = Some(Counts::between(&before, net.stats(), errors));
                trial.wall_s = wall.elapsed().as_secs_f64();
                inspect(&mut net, &output);
            }
            Err(e) => {
                trial.error = Some(e.to_string());
                trial.wall_s = wall.elapsed().as_secs_f64();
            }
        }
        trial.cache = cache.lock().expect("codeword cache poisoned").stats();
        if let (Some(t), Some(id)) = (trace, trial_id) {
            trial.step_ms = t.durations(id, "core.protocols.step", 1e3);
            let acts = t.durations(id, ACT, 1.0);
            // `+ 0.0`: the empty sum is -0.0, which prints as "-0".
            trial.act_s = acts.iter().sum::<f64>() + 0.0;
            trial.act_calls = acts.len() as u64;
        }
        if self.workload.protocol == Protocol::NaiveStream {
            self.stream_net = Some(net);
        }
        trial
    }

    /// Runs trial `index` up to `round`, snapshots it, restores the
    /// snapshot next to the original, and finishes both.
    ///
    /// # Errors
    ///
    /// The protocol's error, or `InvalidInput` when the trial finishes
    /// before `round`.
    pub fn checkpoint(&self, index: usize, round: u64) -> Result<Checkpoint, CoreError> {
        let trial_seeds = self.seeds.fork_u64(index as u64);
        let inst = self.instance(&trial_seeds);
        let mut net = self.network(&trial_seeds);
        let (proto, _cache) = self.open_protocol();
        let mut session = proto.session(&net, &inst)?;
        while net.rounds() < round {
            if let Step::Done(_) = session.step(&mut net)? {
                return Err(CoreError::InvalidInput {
                    reason: "trial finished before the checkpoint".into(),
                });
            }
        }
        let start = Instant::now();
        let bytes = snapshot_run(&mut net, session.as_mut())?;
        let encode_ms = start.elapsed().as_secs_f64() * 1e3;

        // The adversary is rebuilt from its spec, as a resuming process
        // would, and the snapshot overlays its state.
        let rebuilt = adversary(self.workload.attack, &trial_seeds, self.trace.as_ref());
        let start = Instant::now();
        let (mut net2, session2) = restore_run(&bytes, rebuilt, proto.as_ref(), &inst)?;
        let restore_ms = start.elapsed().as_secs_f64() * 1e3;

        let original = finish(session, &mut net, None)?;
        let resumed = finish(session2, &mut net2, None)?;
        Ok(Checkpoint {
            encode_ms,
            restore_ms,
            bytes: bytes.len(),
            identical: original == resumed
                && net.stats() == net2.stats()
                && inst.count_errors(&resumed) == 0,
        })
    }
}

/// Steps `session` to completion, one span per step when tracing.
fn finish(
    mut session: Box<dyn ProtocolSession + '_>,
    net: &mut Network,
    trace: Option<&Trace>,
) -> Result<AllToAllOutput, CoreError> {
    loop {
        let step = match trace {
            Some(t) => t.time("core.protocols.step", || session.step(net)).0,
            None => session.step(net),
        };
        if let Step::Done(output) = step? {
            return Ok(output);
        }
    }
}

/// [`finish`], timing from the first step to `Done` into `trial`.
fn run_steps(
    session: Box<dyn ProtocolSession + '_>,
    net: &mut Network,
    trace: Option<&Trace>,
    trial: &mut Trial,
) -> Result<AllToAllOutput, CoreError> {
    let cpu_before = trace.and_then(|_| proc::cpu_seconds());
    let start = Instant::now();
    let output = finish(session, net, trace)?;
    trial.trial_s = start.elapsed().as_secs_f64();
    if let (Some(before), Some(after)) = (cpu_before, trace.and_then(|_| proc::cpu_seconds())) {
        trial.cpu_s = after - before;
    }
    Ok(output)
}

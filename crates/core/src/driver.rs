//! The round-stepped execution driver: runs a [`ProtocolSession`] to
//! completion while letting pluggable [`RoundObserver`]s watch — or
//! intervene in — the network **between** rounds.
//!
//! The paper's mobile adversary re-chooses its corrupted edge set every
//! round; the driver is the honest-side mirror of that granularity. Before
//! each round an observer may mutate the network (e.g. [`ScheduleSwitch`]
//! swaps the adversary plan, modeling burst and periodic attack phases) or
//! abort the run ([`RoundBudget`]); after each round it sees the exact
//! per-round stat deltas ([`RoundTrace`] records them for the bench
//! harness's per-round JSON section).

use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::protocols::{AllToAllProtocol, ProtocolSession, Step};
use bdclique_netsim::{Adversary, NetStats, Network};

/// What one completed round changed, as seen by [`RoundObserver::on_round_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundDelta {
    /// Index of the completed round **within the driven session** (0-based;
    /// equals the absolute network round when the session starts on a fresh
    /// network).
    pub round: u64,
    /// Stat deltas for exactly this round ([`NetStats::delta_since`]);
    /// `peak_fault_degree` carries the cumulative peak, not a per-round
    /// value.
    pub stats: NetStats,
}

/// Hooks invoked by the [`Driver`] around every network round.
///
/// `on_round_start` fires once per round index, *before* the session step
/// that will execute that round — with mutable network access, so observers
/// can swap the adversary or abort; `on_round_end` fires after the round's
/// `exchange` with the per-round stat deltas. A session step that performs
/// no `exchange` (only the final output-assembling step may) triggers no
/// `on_round_end`.
pub trait RoundObserver {
    /// Called before round `round` runs. Returning an error aborts the run
    /// cleanly — the round never executes, no partial `exchange`.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] to abort; [`CoreError::Aborted`] is conventional.
    fn on_round_start(&mut self, net: &mut Network, round: u64) -> Result<(), CoreError> {
        let _ = (net, round);
        Ok(())
    }

    /// Called after a round completed, with that round's stat deltas.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] to abort the run after this round. An abort takes
    /// precedence even when that round was the session's last: the
    /// completed output is discarded and the error is returned — "abort on
    /// condition X" means the caller never sees a result from a run where
    /// X occurred, final round included.
    fn on_round_end(&mut self, net: &Network, delta: &RoundDelta) -> Result<(), CoreError> {
        let _ = (net, delta);
        Ok(())
    }
}

/// Drives a [`ProtocolSession`] step by step, dispatching round hooks.
///
/// With no observers, [`Driver::run`] is behaviorally identical to
/// [`AllToAllProtocol::run`] (the default `step()` loop).
pub struct Driver<'d, 'o> {
    observers: &'d mut [&'o mut dyn RoundObserver],
}

impl<'d, 'o> Driver<'d, 'o> {
    /// A driver dispatching to the given observers, in order.
    pub fn with_observers(observers: &'d mut [&'o mut dyn RoundObserver]) -> Self {
        Self { observers }
    }

    /// Opens a session for `protocol` and runs it to completion.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and observer aborts ([`CoreError`]).
    pub fn run(
        &mut self,
        protocol: &dyn AllToAllProtocol,
        net: &mut Network,
        inst: &AllToAllInstance,
    ) -> Result<AllToAllOutput, CoreError> {
        let mut session = protocol.session(net, inst)?;
        self.run_session(session.as_mut(), net)
    }

    /// Runs an already-open session to completion. Round indices handed to
    /// observers are **session-relative** (the first round this driver
    /// executes is round 0), so budgets and schedules apply to *this* run
    /// even on a network that already carries rounds from earlier sessions.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and observer aborts ([`CoreError`]).
    pub fn run_session(
        &mut self,
        session: &mut dyn ProtocolSession,
        net: &mut Network,
    ) -> Result<AllToAllOutput, CoreError> {
        let start = net.rounds();
        let mut last_started: Option<u64> = None;
        loop {
            let round = net.rounds() - start;
            // Once per round index: a step that ran no exchange (an empty
            // routed wave) must not show observers the same round twice.
            if last_started != Some(round) {
                for obs in self.observers.iter_mut() {
                    obs.on_round_start(net, round)?;
                }
                last_started = Some(round);
            }
            let before = *net.stats();
            let step = session.step(net)?;
            if net.rounds() - start > round {
                let delta = RoundDelta {
                    round,
                    stats: net.stats().delta_since(&before),
                };
                for obs in self.observers.iter_mut() {
                    obs.on_round_end(net, &delta)?;
                }
            }
            if let Step::Done(out) = step {
                return Ok(out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shipped observers
// ---------------------------------------------------------------------------

/// Records every round's stat deltas — the per-round perf trajectory that
/// `bdclique-bench` surfaces into the scenario JSON's `round_trace` section.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// One entry per completed round, in order.
    pub frames: Vec<RoundDelta>,
}

impl RoundTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoundObserver for RoundTrace {
    fn on_round_end(&mut self, _net: &Network, delta: &RoundDelta) -> Result<(), CoreError> {
        self.frames.push(*delta);
        Ok(())
    }
}

/// Aborts the run with a clean [`CoreError::Aborted`] the moment a session
/// would start round `cap` — instead of letting a buggy or adversarially
/// stalled protocol loop forever. The round at the cap never executes: no
/// partial `exchange`, and `net.rounds()` stays at exactly `cap`.
#[derive(Debug, Clone, Copy)]
pub struct RoundBudget {
    /// Maximum number of rounds the session may execute.
    pub cap: u64,
}

impl RoundBudget {
    /// A budget of `cap` rounds.
    pub fn new(cap: u64) -> Self {
        Self { cap }
    }
}

impl RoundObserver for RoundBudget {
    fn on_round_start(&mut self, _net: &mut Network, round: u64) -> Result<(), CoreError> {
        if round >= self.cap {
            return Err(CoreError::aborted(format!(
                "round budget exhausted: {round} rounds run, cap {}",
                self.cap
            )));
        }
        Ok(())
    }
}

/// Swaps the network's adversary on a round schedule — the time-varying
/// attack of the ROADMAP: burst windows, periodic phases, or a mid-run
/// switch between adversary *classes* (something no single
/// `bdclique_netsim::EdgePlan` can express, since a plan cannot turn a
/// non-adaptive adversary into an adaptive one).
///
/// Built from `(start_round, adversary)` segments: when the driver reaches
/// session-relative round `start_round`, that segment's adversary is
/// installed via [`Network::set_adversary`] and stays until the next
/// segment starts.
pub struct ScheduleSwitch {
    /// `(start_round, adversary)` — sorted ascending by start round; each
    /// adversary is taken exactly once when its segment begins.
    segments: Vec<(u64, Option<Adversary>)>,
    next: usize,
}

impl ScheduleSwitch {
    /// Creates the schedule. Segments are sorted by start round; a segment
    /// starting at round 0 replaces the network's initial adversary before
    /// the first round.
    pub fn new(segments: Vec<(u64, Adversary)>) -> Self {
        let mut segments: Vec<(u64, Option<Adversary>)> = segments
            .into_iter()
            .map(|(round, adversary)| (round, Some(adversary)))
            .collect();
        segments.sort_by_key(|(round, _)| *round);
        Self { segments, next: 0 }
    }
}

impl RoundObserver for ScheduleSwitch {
    fn on_round_start(&mut self, net: &mut Network, round: u64) -> Result<(), CoreError> {
        while let Some((start, adversary)) = self.segments.get_mut(self.next) {
            if *start > round {
                break;
            }
            if let Some(adversary) = adversary.take() {
                net.set_adversary(adversary);
            }
            self.next += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::NaiveExchange;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(n: usize, b: usize, seed: u64) -> AllToAllInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        AllToAllInstance::random(n, b, &mut rng)
    }

    #[test]
    fn driver_without_observers_matches_run() {
        let inst = instance(8, 4, 1);
        let mut net_a = Network::new(8, 8, 0.0, Adversary::none());
        let out_a = NaiveExchange.run(&mut net_a, &inst).unwrap();
        let mut net_b = Network::new(8, 8, 0.0, Adversary::none());
        let out_b = Driver::with_observers(&mut [])
            .run(&NaiveExchange, &mut net_b, &inst)
            .unwrap();
        assert_eq!(inst.count_errors(&out_a), inst.count_errors(&out_b));
        assert_eq!(net_a.rounds(), net_b.rounds());
        assert_eq!(net_a.stats().bits_sent, net_b.stats().bits_sent);
    }

    #[test]
    fn round_trace_records_one_delta_per_round() {
        let inst = instance(4, 10, 2); // 3 slices -> 3 rounds
        let mut net = Network::new(4, 4, 0.0, Adversary::none());
        let mut trace = RoundTrace::new();
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut trace];
        Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap();
        assert_eq!(net.rounds(), 3);
        assert_eq!(trace.frames.len(), 3);
        assert_eq!(
            trace.frames.iter().map(|f| f.round).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for frame in &trace.frames {
            assert_eq!(frame.stats.rounds, 1);
            assert!(frame.stats.bits_sent > 0);
        }
        let traced: u64 = trace.frames.iter().map(|f| f.stats.bits_sent).sum();
        assert_eq!(traced, net.stats().bits_sent, "deltas partition the totals");
    }

    #[test]
    fn round_budget_aborts_exactly_at_cap() {
        let inst = instance(4, 10, 3); // needs 3 rounds
        let mut net = Network::new(4, 4, 0.0, Adversary::none());
        let mut budget = RoundBudget::new(2);
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut budget];
        let err = Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap_err();
        assert!(matches!(err, CoreError::Aborted { .. }), "{err}");
        assert_eq!(net.rounds(), 2, "the capped round must never execute");
    }

    #[test]
    fn round_budget_at_exact_cost_completes() {
        let inst = instance(4, 10, 4); // exactly 3 rounds
        let mut net = Network::new(4, 4, 0.0, Adversary::none());
        let mut budget = RoundBudget::new(3);
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut budget];
        let out = Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap();
        assert_eq!(inst.count_errors(&out), 0);
        assert_eq!(net.rounds(), 3);
    }

    /// On a reused network, budgets and schedules are relative to the
    /// driven session, not to the network's lifetime round counter.
    #[test]
    fn observer_rounds_are_session_relative_on_reused_networks() {
        let inst = instance(4, 10, 6); // 3 rounds per run
        let mut net = Network::new(4, 4, 0.0, Adversary::none());
        NaiveExchange.run(&mut net, &inst).unwrap(); // rounds 0..3 consumed
        assert_eq!(net.rounds(), 3);

        /// Records the network's absolute round count at every round end.
        #[derive(Default)]
        struct NetClock(Vec<u64>);
        impl RoundObserver for NetClock {
            fn on_round_end(&mut self, net: &Network, _: &RoundDelta) -> Result<(), CoreError> {
                self.0.push(net.rounds());
                Ok(())
            }
        }

        // A budget of 3 covers the SECOND run in full…
        let mut budget = RoundBudget::new(3);
        let mut trace = RoundTrace::new();
        let mut clock = NetClock::default();
        let mut observers: [&mut dyn RoundObserver; 3] = [&mut budget, &mut trace, &mut clock];
        Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap();
        assert_eq!(net.rounds(), 6);
        // …and the trace restarts at session round 0, while `net.rounds()`
        // keeps counting on the shared network's absolute clock.
        assert_eq!(
            trace.frames.iter().map(|f| f.round).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(clock.0, vec![4, 5, 6]);

        // A budget of 2 cuts a third run after exactly 2 more rounds.
        let mut budget = RoundBudget::new(2);
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut budget];
        let err = Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap_err();
        assert!(matches!(err, CoreError::Aborted { .. }));
        assert_eq!(net.rounds(), 8);
    }

    #[test]
    fn schedule_switch_swaps_adversary_mid_run() {
        struct FlipAll;
        impl bdclique_netsim::AdaptiveStrategy for FlipAll {
            fn corrupt(
                &mut self,
                _view: &bdclique_netsim::AdversaryView<'_>,
                scope: &mut bdclique_netsim::AdaptiveScope<'_>,
            ) {
                for (from, to, _) in scope.intended_frames() {
                    if let Some(frame) = scope.intended(from, to) {
                        let mut flipped = frame;
                        for i in 0..flipped.len() {
                            flipped.flip(i);
                        }
                        scope.try_corrupt(from, to, Some(flipped));
                    }
                }
            }
        }
        // Fault-free start; the flipper arrives at round 2 of 3.
        let inst = instance(4, 10, 5);
        let mut net = Network::new(4, 4, 0.25, Adversary::none());
        let mut schedule = ScheduleSwitch::new(vec![(2, Adversary::adaptive(FlipAll))]);
        let mut trace = RoundTrace::new();
        let mut observers: [&mut dyn RoundObserver; 2] = [&mut schedule, &mut trace];
        Driver::with_observers(&mut observers)
            .run(&NaiveExchange, &mut net, &inst)
            .unwrap();
        assert_eq!(net.rounds(), 3);
        assert_eq!(trace.frames[0].stats.edges_corrupted, 0);
        assert_eq!(trace.frames[1].stats.edges_corrupted, 0);
        assert!(
            trace.frames[2].stats.edges_corrupted > 0,
            "the scheduled adversary must act from round 2 on"
        );
    }
}

//! Timing decorators around the adversary traits.
//!
//! The mobile adversary re-chooses its edges every round, so its own host
//! cost is a per-round layer. The simulator calls the adversary from inside
//! `Network::try_exchange`, where the benchmark cannot put a span; these
//! wrappers put one around each trait call instead. Every method is
//! forwarded — `save_state`/`load_state` too — so a decorated adversary is
//! indistinguishable from the bare one to the program (tested in
//! `tests/transparency.rs`).

use crate::trace::Trace;
use bdclique_netsim::{
    AdaptiveScope, AdaptiveStrategy, AdversaryView, CorruptionScope, Corruptor, EdgePlan, EdgeSet,
    Topology,
};
use bdclique_snapshot::{Dec, Enc, SnapError};

/// Span name shared by all three decorators: one layer, `adversary.act`.
pub const ACT: &str = "adversary.act";

/// An [`EdgePlan`] whose `edges`/`edges_on` calls are recorded as spans.
#[derive(Debug)]
pub struct TimedPlan<P> {
    inner: P,
    trace: Trace,
}

impl<P> TimedPlan<P> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: P, trace: Trace) -> Self {
        Self { inner, trace }
    }
}

impl<P: EdgePlan> EdgePlan for TimedPlan<P> {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let id = self.trace.enter(ACT);
        let edges = self.inner.edges(round, n, budget);
        self.trace.exit(id);
        edges
    }

    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        let id = self.trace.enter(ACT);
        let edges = self.inner.edges_on(round, topo, alpha);
        self.trace.exit(id);
        edges
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

/// A [`Corruptor`] whose `corrupt` calls are recorded as spans.
#[derive(Debug)]
pub struct TimedCorruptor<C> {
    inner: C,
    trace: Trace,
}

impl<C> TimedCorruptor<C> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: C, trace: Trace) -> Self {
        Self { inner, trace }
    }
}

impl<C: Corruptor> Corruptor for TimedCorruptor<C> {
    fn corrupt(
        &mut self,
        view: &AdversaryView<'_>,
        edges: &EdgeSet,
        scope: &mut CorruptionScope<'_>,
    ) {
        let id = self.trace.enter(ACT);
        self.inner.corrupt(view, edges, scope);
        self.trace.exit(id);
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

/// An [`AdaptiveStrategy`] whose `corrupt` calls are recorded as spans.
#[derive(Debug)]
pub struct TimedStrategy<S> {
    inner: S,
    trace: Trace,
}

impl<S> TimedStrategy<S> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: S, trace: Trace) -> Self {
        Self { inner, trace }
    }
}

impl<S: AdaptiveStrategy> AdaptiveStrategy for TimedStrategy<S> {
    fn corrupt(&mut self, view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let id = self.trace.enter(ACT);
        self.inner.corrupt(view, scope);
        self.trace.exit(id);
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

//! The timing decorators and step spans must be invisible to the program:
//! a traced trial ends with the same payloads, the same `NetStats` and the
//! same adversary state as the bare trial of the same seed.

use bdclique_benchmark::decor::ACT;
use bdclique_benchmark::trace::Trace;
use bdclique_benchmark::workload::{find, Runner, Trial, Workload};
use bdclique_core::AllToAllOutput;
use bdclique_netsim::{Adversary, NetStats};

const SEED: u64 = 7;

/// The named workload shrunk to n = 64 at fault budget `⌊αn⌋ = 1`.
fn small(name: &str) -> Workload {
    Workload {
        n: 64,
        alpha: 1.2 / 64.0,
        ..*find(name).expect("known workload")
    }
}

/// Runs trials 0 and 1 and returns the second with what the program left
/// behind after it: output payloads, network counters, adversary state.
fn observe(w: &Workload, trace: Option<Trace>) -> (Trial, (AllToAllOutput, NetStats, Vec<u8>)) {
    let mut runner = Runner::new(w, SEED, trace);
    assert!(runner.trial(0).delivered(w), "{}: trial 0 failed", w.name);
    let mut seen = None;
    let trial = runner.trial_inspect(1, |net, output| {
        let state = net.set_adversary(Adversary::none()).save_state();
        seen = Some((output.clone(), *net.stats(), state));
    });
    assert!(trial.delivered(w), "{}: {:?}", w.name, trial);
    (trial, seen.expect("a delivered trial is inspected"))
}

fn assert_transparent(name: &str) {
    let w = small(name);
    let trace = Trace::new();
    let (_, bare) = observe(&w, None);
    let (last, traced) = observe(&w, Some(trace.clone()));
    assert!(
        bare.2.len() > 1,
        "{name}: adversary has no state to compare"
    );
    assert!(bare.1.edges_corrupted > 0, "{name}: adversary never acted");
    assert_eq!(bare.0, traced.0, "{name}: output payloads differ");
    assert_eq!(bare.1, traced.1, "{name}: NetStats differ");
    assert_eq!(bare.2, traced.2, "{name}: adversary state differs");

    // Not vacuous: the traced run really went through the decorators.
    let spans = trace.spans();
    assert_eq!(
        last.step_ms.len() as u64,
        last.counts.expect("delivered").rounds,
        "{name}: one step span per round"
    );
    assert!(last.act_calls > 0, "{name}: no adversary span recorded");
    let act = spans.iter().find(|s| s.name == ACT).expect("checked above");
    let parent = &spans[act.parent.expect("the adversary acts inside a step")];
    assert_eq!(parent.name, "core.protocols.step");
    assert_eq!(parent.trial, act.trial);
}

#[test]
fn non_adaptive_decorators_are_transparent() {
    // RandomMatchings + PayloadCorruptor under DetHypercube, and the same
    // adversary carried across the sessions of one stream network.
    assert_transparent("hypercube-matchings");
    assert_transparent("naive-stream");
}

#[test]
fn adaptive_decorator_is_transparent() {
    assert_transparent("sqrt-greedy");
}

//! A custom experiment on the scenario engine: sweep the fault fraction α
//! for two protocols, hold the result to an `expect` clause, and emit both
//! the rendered table and the scenario-v1 JSON document.
//!
//! ```sh
//! cargo run --release --example scenario_sweep
//! ```
//!
//! The engine handles the rest: every `(protocol, budget)` cell gets its
//! own seed stream derived from the scenario name and the cell
//! coordinates, cells run in parallel, and each trial splits its seed into
//! independent instance / adversary / protocol streams.

use bdclique_bench::expect::{self, Clause, Expectation};
use bdclique_bench::scenario::{self, Cell, CellKind, Scenario, TrialJob, Value};
use bdclique_bench::{AdversarySpec, TopologySpec};
use bdclique_core::protocols::{DetHypercube, DetSqrt};
use std::sync::Arc;

fn main() {
    let n = 64usize;
    let trials = 3usize;
    let mut cells = Vec::new();
    for (label, protocol) in [
        (
            "det-hypercube",
            Arc::new(|_seed: u64| {
                Box::new(DetHypercube::default())
                    as Box<dyn bdclique_core::protocols::AllToAllProtocol>
            }) as scenario::ProtocolFactory,
        ),
        (
            "det-sqrt",
            Arc::new(|_seed: u64| {
                Box::new(DetSqrt::default()) as Box<dyn bdclique_core::protocols::AllToAllProtocol>
            }) as scenario::ProtocolFactory,
        ),
    ] {
        for budget in [0usize, 1, 2, 4] {
            let alpha = (budget as f64 + 0.2) / n as f64;
            cells.push(Cell {
                coords: vec![
                    ("protocol", Value::s(label)),
                    ("budget", Value::u(budget)),
                    ("alpha", Value::f3(alpha)),
                ],
                kind: CellKind::Trials(TrialJob {
                    protocol: protocol.clone(),
                    protocol_key: label,
                    adversary: AdversarySpec::GreedyFlip,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: 18,
                    alpha,
                    trials,
                    trace: false,
                }),
            });
        }
    }
    let spec = Scenario {
        name: "alpha-sweep-demo",
        title: format!("alpha sweep, n = {n}, adaptive greedy flip"),
        columns: vec!["rounds", "perfect", "errors", "infeasible", "secs"],
        cells,
        // Hold the sweep to a claim `scenario::run` + `expect::check` verify:
        // det-hypercube tolerates every budget here with zero errors.
        expect: vec![Expectation::on(
            &[("protocol", "det-hypercube")],
            vec![Clause::Completed, Clause::ZeroErrors],
        )],
        ..Scenario::default()
    };

    let result = scenario::run(&spec);
    println!("{}", result.table().render());
    let violations = expect::check(&spec.expect, &result);
    assert!(violations.is_empty(), "{}", violations.join("\n"));

    let json = scenario::emit_json(&[result], trials);
    let preview: String = json.chars().take(240).collect();
    println!("JSON document ({} bytes): {preview}…", json.len());
}

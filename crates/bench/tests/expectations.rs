//! The expectation checker, both ways: the registry scenarios CI smokes
//! satisfy their own `expect` clauses (the function `tables --check`
//! calls), and every clause kind fails on a hand-built result that
//! violates it — a checker that cannot fail is worse than none.

use bdclique_bench::expect::{check, Clause, Expectation};
use bdclique_bench::experiments::build_scenario;
use bdclique_bench::scenario::{self, CellResult, ScenarioResult, Value};
use bdclique_bench::Aggregate;
use bdclique_core::driver::RoundDelta;
use bdclique_netsim::NetStats;

/// The tier-1 half of `tables --scenario … --trials 2 --check`.
#[test]
fn registry_expectations_hold() {
    for name in ["compiler", "schedules", "topologies", "t1r3"] {
        let spec = build_scenario(name, 2).expect("registry scenario");
        assert!(!spec.expect.is_empty(), "{name} states no expectation");
        let violations = check(&spec.expect, &scenario::run(&spec));
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }
}

const SEED: u64 = 0x00c0_ffee_0000_0001;

/// A healthy two-trial cell: everything every clause asks for.
fn healthy(protocol: &str) -> CellResult {
    let frame = |round| RoundDelta {
        round,
        stats: NetStats {
            rounds: 1,
            bits_sent: 64,
            frames_sent: 8,
            ..NetStats::default()
        },
    };
    CellResult {
        coords: vec![("protocol", Value::s(protocol)), ("n", Value::u(8))],
        metrics: Vec::new(),
        aggregate: Some(Aggregate {
            trials: 2,
            completed: 2,
            perfect: 2,
            mean_rounds: Some(2.0),
            mean_corrupted: Some(3.5),
            mean_bits: Some(128.0),
            ..Aggregate::default()
        }),
        round_trace: Some(vec![frame(0), frame(1)]),
        seed: SEED,
        secs: 0.25,
    }
}

/// A cell where every trial was refused as infeasible.
fn refused(protocol: &str) -> CellResult {
    CellResult {
        aggregate: Some(Aggregate {
            trials: 2,
            infeasible: 2,
            ..Aggregate::default()
        }),
        round_trace: None,
        ..healthy(protocol)
    }
}

fn result(cells: Vec<CellResult>) -> ScenarioResult {
    ScenarioResult {
        name: "hand-built",
        title: "hand-built".into(),
        headers: vec!["protocol", "n"],
        cells,
        wall_secs: 0.0,
    }
}

fn on(protocol: &'static str, clause: Clause) -> Vec<Expectation> {
    vec![Expectation::on(&[("protocol", protocol)], vec![clause])]
}

fn with_agg(edit: impl FnOnce(&mut Aggregate)) -> CellResult {
    let mut cell = healthy("a");
    edit(cell.aggregate.as_mut().unwrap());
    cell
}

#[test]
fn every_clause_holds_of_a_cell_that_satisfies_it() {
    let run = result(vec![healthy("a"), refused("b")]);
    let all = vec![
        Expectation::on(&[], vec![Clause::Matched]),
        Expectation::on(
            &[("protocol", "a")],
            vec![
                Clause::Completed,
                Clause::ZeroErrors,
                Clause::Corrupted,
                Clause::SecsBelow(1.0),
                Clause::Traced,
            ],
        ),
        Expectation::on(&[("protocol", "b")], vec![Clause::Infeasible]),
        // Selectors compare typed values, not renderings.
        Expectation {
            select: vec![("n", Value::u(8))],
            clauses: vec![Clause::Matched],
        },
    ];
    assert_eq!(check(&all, &run), Vec::<String>::new());
}

/// One violating cell per clause kind; each report names the scenario, the
/// cell's coordinates and its seed.
#[test]
fn every_clause_kind_can_fail() {
    let mut untraced = healthy("a");
    untraced.round_trace = None;
    let mut misnumbered = healthy("a");
    misnumbered.round_trace.as_mut().unwrap()[1].round = 5;
    let mut silent = healthy("a");
    for frame in silent.round_trace.as_mut().unwrap() {
        frame.stats.bits_sent = 0;
    }
    let mut slow = healthy("a");
    slow.secs = 60.0;
    let mut untimed = healthy("a");
    untimed.secs = 0.0;
    let mut custom = healthy("a");
    custom.aggregate = None;
    let cases: Vec<(Clause, CellResult, &str)> = vec![
        (
            Clause::Completed,
            with_agg(|a| a.completed = 1),
            "1 of 2 trials completed",
        ),
        (
            Clause::Completed,
            with_agg(|a| (a.trials, a.completed) = (0, 0)),
            "0 of 0 trials completed",
        ),
        (
            Clause::ZeroErrors,
            with_agg(|a| a.total_errors = 7),
            "7 errors",
        ),
        (Clause::Infeasible, healthy("a"), "0 infeasible"),
        (
            Clause::Infeasible,
            with_agg(|a| (a.completed, a.infeasible, a.failed) = (0, 1, 1)),
            "1 failed",
        ),
        (
            Clause::Corrupted,
            with_agg(|a| a.mean_corrupted = Some(0.0)),
            "mean corrupted is Some(0.0)",
        ),
        (Clause::Corrupted, refused("a"), "mean corrupted is None"),
        (Clause::SecsBelow(52.0), slow, "took 60.0s"),
        (Clause::SecsBelow(52.0), untimed, "took 0.0s"),
        (Clause::Traced, untraced, "no round trace"),
        (Clause::Traced, misnumbered, "not numbered"),
        (Clause::Traced, silent, "carries no bits"),
        (Clause::ZeroErrors, custom, "needs a trial cell"),
    ];
    for (clause, cell, what) in cases {
        let violations = check(&on("a", clause.clone()), &result(vec![cell, healthy("b")]));
        assert_eq!(violations.len(), 1, "{clause:?}: {violations:?}");
        let line = &violations[0];
        assert!(line.contains(what), "{clause:?}: {line}");
        assert!(
            line.starts_with("hand-built [protocol=a n=8] seed 0x00c0ffee00000001: "),
            "{line}"
        );
    }
}

/// A selector that silently selects nothing would turn a check vacuous:
/// both ways of doing so are violations, whatever the clause.
#[test]
fn vacuous_selectors_fail() {
    let run = result(vec![healthy("a")]);
    let no_cell = check(&on("renamed", Clause::Matched), &run);
    assert_eq!(no_cell.len(), 1);
    assert!(
        no_cell[0].contains("[protocol=renamed] matched no cell"),
        "{}",
        no_cell[0]
    );
    let typo = vec![Expectation::on(
        &[("protcol", "a")],
        vec![Clause::ZeroErrors],
    )];
    let unknown_key = check(&typo, &run);
    assert_eq!(unknown_key.len(), 1);
    assert!(
        unknown_key[0].contains("[protcol=a] matched no cell (columns: protocol, n)"),
        "{}",
        unknown_key[0]
    );
    // An empty run (e.g. an empty shard) matches nothing either.
    assert_eq!(
        check(&on("a", Clause::Matched), &result(Vec::new())).len(),
        1
    );
}

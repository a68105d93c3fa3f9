//! Expectations that travel with a scenario.
//!
//! The paper's claims are Table-1 cells — "zero errors at `⌊αn⌋` under a
//! mobile adversary", "`Infeasible`, not wrong payloads, off `K_n`", "an
//! eclipse only bites under degree-relative budgets". An [`Expectation`]
//! states one next to the grid that produces it: a cell selector over
//! coordinates plus [`Clause`]s every selected cell must satisfy. [`check`]
//! evaluates a scenario's list on the in-memory [`ScenarioResult`]; it is
//! what `tables --check` and the tier-1 `registry_expectations_hold` test
//! both call. There is no expression language — the clause kinds are
//! exactly what CI has ever asserted.

use crate::scenario::{CellResult, ScenarioResult, Value};

/// One checkable property of a finished cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// Nothing beyond the selector matching at least one cell — which
    /// every expectation requires, so a renamed coordinate can never turn
    /// a check vacuous.
    Matched,
    /// Every trial ran to an output: `completed == trials > 0`.
    Completed,
    /// No wrong or missing message in any trial: `total_errors == 0`.
    ZeroErrors,
    /// Every trial was refused as `Infeasible` and none failed otherwise:
    /// `infeasible == trials`, `failed == 0`.
    Infeasible,
    /// The adversary got to corrupt something: `mean_corrupted > 0`.
    Corrupted,
    /// The cell's wall clock is positive and below this many seconds.
    SecsBelow(f64),
    /// Trial 0's round trace is present, numbered `0, 1, 2, …`, and
    /// carries bits.
    Traced,
}

impl Clause {
    /// How `cell` violates the clause, if it does.
    fn violation(&self, cell: &CellResult) -> Option<String> {
        let held = |ok: bool, what: &str| (!ok).then(|| what.to_string());
        match (self, &cell.aggregate) {
            (Clause::Matched, _) => None,
            (Clause::SecsBelow(limit), _) => held(
                cell.secs > 0.0 && cell.secs < *limit,
                &format!("took {:.1}s, expected 0 < secs < {limit}s", cell.secs),
            ),
            (Clause::Traced, _) => {
                let frames = cell.round_trace.as_deref().unwrap_or(&[]);
                let numbered = frames.iter().enumerate().all(|(i, f)| f.round == i as u64);
                held(!frames.is_empty(), "no round trace")
                    .or_else(|| held(numbered, "round trace is not numbered 0, 1, 2, …"))
                    .or_else(|| {
                        let bits = frames.iter().any(|f| f.stats.bits_sent > 0);
                        held(bits, "round trace carries no bits")
                    })
            }
            (clause, None) => Some(format!("{clause:?} needs a trial cell, not a custom one")),
            (Clause::Completed, Some(agg)) => held(
                agg.completed == agg.trials && agg.trials > 0,
                &format!("{} of {} trials completed", agg.completed, agg.trials),
            ),
            (Clause::ZeroErrors, Some(agg)) => held(
                agg.total_errors == 0,
                &format!("{} errors, expected 0", agg.total_errors),
            ),
            (Clause::Infeasible, Some(agg)) => held(
                agg.infeasible == agg.trials && agg.failed == 0,
                &format!(
                    "{} infeasible and {} failed of {} trials, expected all infeasible",
                    agg.infeasible, agg.failed, agg.trials
                ),
            ),
            (Clause::Corrupted, Some(agg)) => held(
                agg.mean_corrupted.is_some_and(|mean| mean > 0.0),
                &format!("mean corrupted is {:?}, expected > 0", agg.mean_corrupted),
            ),
        }
    }
}

/// Clauses that must hold of every cell a selector picks.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Coordinate equalities a cell must satisfy to be selected; empty
    /// selects every cell. Matching no cell — a misspelt coordinate name
    /// included — is itself a violation.
    pub select: Vec<(&'static str, Value)>,
    /// What must hold of each selected cell.
    pub clauses: Vec<Clause>,
}

impl Expectation {
    /// `clauses` on the cells whose string coordinates equal `select`
    /// (`&[]`: every cell).
    pub fn on(select: &[(&'static str, &str)], clauses: Vec<Clause>) -> Self {
        Self {
            select: select.iter().map(|(k, v)| (*k, Value::s(*v))).collect(),
            clauses,
        }
    }
}

fn render_coords(coords: &[(&'static str, Value)]) -> String {
    let body: Vec<String> = coords.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("[{}]", body.join(" "))
}

/// Evaluates `expect` on `result`: one line per violation, naming the
/// scenario and — for a cell — its coordinates and seed (which reproduces
/// the whole cell). Empty when every expectation holds.
pub fn check(expect: &[Expectation], result: &ScenarioResult) -> Vec<String> {
    let name = result.name;
    let mut violations = Vec::new();
    for Expectation { select, clauses } in expect {
        let selected = |cell: &&CellResult| select.iter().all(|want| cell.coords.contains(want));
        let mut matched = result.cells.iter().filter(selected).peekable();
        if matched.peek().is_none() {
            // Covers a misspelt coordinate name too: it equals nothing.
            let selector = render_coords(select);
            let columns = result.headers.join(", ");
            violations.push(format!(
                "{name}: selector {selector} matched no cell (columns: {columns})"
            ));
        }
        for cell in matched {
            for what in clauses.iter().filter_map(|clause| clause.violation(cell)) {
                let coords = render_coords(&cell.coords);
                violations.push(format!("{name} {coords} seed {:#018x}: {what}", cell.seed));
            }
        }
    }
    violations
}

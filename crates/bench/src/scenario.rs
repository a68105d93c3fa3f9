//! The declarative scenario engine: experiment grids as data.
//!
//! A [`Scenario`] is a named list of [`Cell`]s — one cell per output row —
//! where each cell is either a **trial grid point** (protocol ×
//! [`AdversarySpec`] × `n` × `b` × bandwidth × α × trials, executed by the
//! engine and folded into an [`Aggregate`]) or a **custom measurement**
//! (routing sweeps, code ablations, …) that receives a seed stream and
//! returns metrics. A scenario also carries what must hold of its result:
//! [`Scenario::expect`], evaluated by [`crate::expect::check`]. The engine
//! owns everything the hand-rolled experiment loops used to duplicate:
//!
//! * **Parallelism** — independent cells fan out across the rayon pool,
//!   the trials inside a cell fan out again, and so does every routed
//!   pack inside a trial. None of them takes a switch: the thread count
//!   is the pool scope's, so the bit-identity oracle is [`run`] itself
//!   inside a one-thread `rayon::ThreadPool::install`, which serialises
//!   all three levels at once (regression-tested).
//! * **Seeding** — every cell derives its own [`SeedStream`] by hashing the
//!   scenario name and the *full* cell coordinates; trial `t` forks that
//!   stream by index and splits it into independent instance / adversary /
//!   protocol seeds ([`TrialSeeds`]). Changing any single coordinate
//!   changes the cell's entire stream; no two cells share randomness.
//! * **Columns** — a table's leading columns are the cells' coordinates,
//!   and a trial cell's metrics are the [`Scenario::columns`] that name an
//!   aggregate column (`rounds`, `perfect`, `errors`, …), in that order;
//!   builders restate neither.
//! * **Backends** — one run renders as an aligned-text [`Table`] and/or
//!   serializes to JSON ([`emit_json`]) for machine consumers
//!   (`tables --merge` / `--same`).
//!
//! # The scenario-v1 document
//!
//! `tables --json PATH` writes one document, versioned via [`SCHEMA`]:
//!
//! ```json
//! {"schema": "bdclique-bench/scenario-v1", "generator": "bdclique-bench 0.1.0",
//!  "git": "<git describe --always --dirty>", "base_trials": 5,
//!  "scenarios": [
//!    {"name": "t1r4", "title": "…", "wall_secs": 1.2,
//!     "cells": [
//!       {"coords": {"n": 64, "budget": 4},
//!        "seed": "0x…16 hex digits…", "secs": 0.3,
//!        "aggregate": {"trials": 5, "completed": 5, "perfect": 5,
//!                      "total_errors": 0, "mean_rounds": 16.0,
//!                      "mean_corrupted": 48.2, "mean_bits": 134000.0,
//!                      "max_fault_degree": 4, "infeasible": 0, "failed": 0},
//!        "round_trace": [{"round": 0, "frames": 4032, "bits": 72576,
//!                         "corrupted_edges": 96, "corrupted_frames": 192}],
//!        "metrics": {"rounds": 16.0, "perfect": {"ok": 5, "of": 5}}}]}]}
//! ```
//!
//! `aggregate` is `null` for custom cells; means are `null` (rendered
//! `n/a`) when no trial completed — a zero-trial or all-infeasible cell
//! never prints `0/0` or `NaN`. `round_trace` is trial 0's per-round
//! stat-delta sequence for cells with [`TrialJob::trace`] on (the
//! `schedules` scenario, or the CLI's `--trace`), `null` otherwise. Every
//! metric is a function of the seeds, so identity compares read all of
//! them. A merged document ([`crate::merge::merge_documents`]) adds
//! `merged_from`.

use crate::checkpoint::{run_trial_checkpointed, CheckpointConfig};
use crate::expect::Expectation;
use crate::json::quote;
use crate::{
    fold_trials, run_trial, AdversarySpec, Aggregate, Table, TopologySpec, TrialSeeds, TrialSpec,
};
use bdclique_core::driver::{RoundDelta, RoundTrace};
use bdclique_core::protocols::AllToAllProtocol;
use bdclique_core::CoreError;
use bdclique_netsim::SeedStream;
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// JSON schema identifier emitted at the top of every document.
pub const SCHEMA: &str = "bdclique-bench/scenario-v1";

/// A coordinate or metric value: typed for JSON, formatted for tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float, rendered with `prec` decimals in tables (full precision in
    /// JSON).
    Float {
        /// The value.
        v: f64,
        /// Table decimal places.
        prec: usize,
    },
    /// Free-form string.
    Str(String),
    /// A success ratio; renders `ok/of`, or `n/a` when `of == 0` (a
    /// zero-trial cell must never print a misleading `0/0`).
    Rate {
        /// Successes.
        ok: usize,
        /// Attempts.
        of: usize,
    },
    /// Not applicable / no data; renders `n/a`, serializes as `null`.
    Missing,
}

impl Value {
    /// Unsigned integer value.
    pub fn u(v: usize) -> Self {
        Value::U64(v as u64)
    }

    /// Float with 1 table decimal.
    pub fn f1(v: f64) -> Self {
        Value::Float { v, prec: 1 }
    }

    /// Float with 3 table decimals.
    pub fn f3(v: f64) -> Self {
        Value::Float { v, prec: 3 }
    }

    /// Optional float with 1 table decimal; `None` renders `n/a`.
    pub fn opt_f1(v: Option<f64>) -> Self {
        v.map_or(Value::Missing, Value::f1)
    }

    /// String value.
    pub fn s(v: impl Into<String>) -> Self {
        Value::Str(v.into())
    }

    /// Success-rate value.
    pub fn rate(ok: usize, of: usize) -> Self {
        Value::Rate { ok, of }
    }

    /// Canonical byte-exact encoding used for seed derivation: floats encode
    /// their bit pattern so two coordinates differing anywhere in the value
    /// never alias.
    fn canon(&self) -> String {
        match self {
            Value::U64(v) => format!("u{v}"),
            Value::I64(v) => format!("i{v}"),
            Value::Float { v, .. } => format!("f{:016x}", v.to_bits()),
            Value::Str(s) => format!("s{s}"),
            Value::Rate { ok, of } => format!("r{ok}/{of}"),
            Value::Missing => "m".to_string(),
        }
    }

    /// JSON encoding (numbers stay numbers; non-finite floats and
    /// [`Value::Missing`] become `null`).
    fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::Float { v, .. } if v.is_finite() => format!("{v}"),
            Value::Float { .. } | Value::Missing => "null".to_string(),
            Value::Str(s) => quote(s),
            Value::Rate { ok, of } => format!("{{\"ok\":{ok},\"of\":{of}}}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Float { v, prec } => write!(f, "{v:.prec$}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Rate { of: 0, .. } => write!(f, "n/a"),
            Value::Rate { ok, of } => write!(f, "{ok}/{of}"),
            Value::Missing => write!(f, "n/a"),
        }
    }
}

/// Builds a protocol instance from the trial's protocol seed. Deterministic
/// protocols ignore the argument; randomized ones should store it in their
/// `seed` field so every trial draws fresh protocol coins.
pub type ProtocolFactory = Arc<dyn Fn(u64) -> Box<dyn AllToAllProtocol> + Send + Sync>;

/// Execution context handed to a custom cell. How far nested work fans out
/// is not part of it: a cell inherits the pool scope [`run`] was called in.
#[derive(Debug, Clone, Copy)]
pub struct CellCtx {
    /// The cell's seed stream; fork per sub-measurement.
    pub stream: SeedStream,
}

/// A bespoke measurement cell: receives the cell's execution context,
/// returns its row metrics. Runs once (not per trial); anything
/// trial-shaped inside should fork `ctx.stream` per sub-measurement.
pub type CustomJob = Arc<dyn Fn(&CellCtx) -> Vec<(&'static str, Value)> + Send + Sync>;

/// The trial-grid flavor of a cell: the engine runs `trials` seeded trials
/// of `protocol` against `adversary` and folds them.
pub struct TrialJob {
    /// Protocol under test (built per trial from the protocol seed).
    pub protocol: ProtocolFactory,
    /// Canonical protocol name, part of the cell's seed coordinates.
    pub protocol_key: &'static str,
    /// Attached adversary.
    pub adversary: AdversarySpec,
    /// Communication graph ([`TopologySpec::Complete`] is the historical
    /// clique path and leaves the cell's seed stream untouched).
    pub topology: TopologySpec,
    /// Nodes.
    pub n: usize,
    /// Message bits per ordered pair.
    pub b: usize,
    /// Link bandwidth `B` in bits.
    pub bandwidth: usize,
    /// Fault fraction α (degree budget `⌊αn⌋`).
    pub alpha: f64,
    /// Trials to run.
    pub trials: usize,
    /// Record trial 0's per-round stat deltas (driver `RoundTrace`) into
    /// the cell result's `round_trace` JSON section. Tracing never perturbs
    /// the trial outcomes — observers only read stat deltas.
    pub trace: bool,
}

impl TrialJob {
    /// The job's trial coordinates — what [`run_trial`] needs besides the
    /// protocol and the seeds.
    pub fn spec(&self) -> TrialSpec {
        TrialSpec {
            topology: self.topology,
            n: self.n,
            b: self.b,
            bandwidth: self.bandwidth,
            alpha: self.alpha,
            adversary: self.adversary,
        }
    }

    /// The aggregate column a header names, if it names one — the single
    /// header → column table behind every trial cell's metrics. `errors`
    /// reads `failed` when nothing completed because trials failed (the
    /// `largen` / `xlargen` smoke rows), so a broken cell never shows `0`.
    pub fn column(&self, header: &str, agg: &Aggregate) -> Option<Value> {
        Some(match header {
            "rounds" => Value::opt_f1(agg.mean_rounds),
            "rounds/log2(n)" => Value::opt_f1(agg.mean_rounds.map(|r| r / (self.n as f64).log2())),
            "perfect" => Value::rate(agg.perfect, agg.completed),
            "errors" if agg.completed == 0 && agg.failed > 0 => Value::s("failed"),
            "errors" => Value::u(agg.total_errors),
            "corrupted/trial" => Value::opt_f1(agg.mean_corrupted),
            "bits sent" | "bits/trial" => Value::opt_f1(agg.mean_bits),
            "infeasible" => Value::u(agg.infeasible),
            _ => return None,
        })
    }
}

/// What a cell executes.
pub enum CellKind {
    /// Engine-run seeded trials.
    Trials(TrialJob),
    /// Bespoke measurement.
    Custom(CustomJob),
}

/// One scenario cell — one output row, one seed stream.
pub struct Cell {
    /// Named coordinates identifying the cell (rendered as leading table
    /// columns, hashed into the seed stream).
    pub coords: Vec<(&'static str, Value)>,
    /// The work.
    pub kind: CellKind,
}

impl Cell {
    /// The cell's seed stream: scenario name, every coordinate, and (for
    /// trial cells) the full parameter tuple, hashed in order. The trial
    /// *count* is deliberately excluded so raising `--trials` extends a
    /// cell's seed sequence instead of reshuffling it.
    pub fn stream(&self, scenario: &str) -> SeedStream {
        let mut s = SeedStream::from_label(scenario);
        for (key, value) in &self.coords {
            s = s.fork(&format!("{key}={}", value.canon()));
        }
        if let CellKind::Trials(job) = &self.kind {
            let mut coord = format!(
                "proto={};adv={};n={};b={};bw={};alpha={:016x}",
                job.protocol_key,
                job.adversary.key(),
                job.n,
                job.b,
                job.bandwidth,
                job.alpha.to_bits()
            );
            // The topology key joins the coordinate tuple only off the
            // clique: every pre-topology cell keeps its historical seed
            // stream byte-identical.
            if !job.topology.is_complete() {
                coord.push_str(&format!(";topo={}", job.topology.key()));
            }
            s = s.fork(&coord);
        }
        s
    }
}

/// A declarative experiment: a title, column headers, the cell grid, and
/// what must hold of the result. The suite's scenarios are listed by
/// [`crate::experiments::registry`].
#[derive(Default)]
pub struct Scenario {
    /// Registry name (CLI `--scenario` argument, and the root of every
    /// cell's seed derivation).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// Table title.
    pub title: String,
    /// Column headers after the coordinate columns (which the engine takes
    /// from the first cell — a scenario's cells share their coordinate
    /// names). Each names a metric (for trial cells: a header
    /// [`TrialJob::column`] knows) or the built-in `secs` (per-cell wall
    /// time).
    pub columns: Vec<&'static str>,
    /// The grid.
    pub cells: Vec<Cell>,
    /// Expectations `tables --check` and the tier-1 suite hold the result
    /// to ([`crate::expect::check`]).
    pub expect: Vec<Expectation>,
}

/// A finished cell: coordinates, metrics, and provenance.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's coordinates, as specified.
    pub coords: Vec<(&'static str, Value)>,
    /// Metrics: the aggregate columns [`Scenario::columns`] names, or the
    /// custom job's return value.
    pub metrics: Vec<(&'static str, Value)>,
    /// The folded aggregate (trial cells only).
    pub aggregate: Option<Aggregate>,
    /// Trial 0's per-round stat deltas (trial cells with
    /// [`TrialJob::trace`] enabled only).
    pub round_trace: Option<Vec<RoundDelta>>,
    /// The cell's seed-stream state (reproduces the whole cell).
    pub seed: u64,
    /// Wall-clock seconds this cell's work consumed.
    pub secs: f64,
}

impl CellResult {
    /// Looks up `header` among coordinates, then metrics, then the built-in
    /// `secs` column.
    pub fn value_of(&self, header: &str) -> Option<Value> {
        self.coords
            .iter()
            .chain(self.metrics.iter())
            .find(|(key, _)| *key == header)
            .map(|(_, value)| value.clone())
            .or_else(|| (header == "secs").then(|| Value::f1(self.secs)))
    }

    /// Timing-independent equality, used by the determinism oracle
    /// (everything but `secs`).
    pub fn same_outcome(&self, other: &CellResult) -> bool {
        self.coords == other.coords
            && self.metrics == other.metrics
            && self.aggregate == other.aggregate
            && self.round_trace == other.round_trace
            && self.seed == other.seed
    }
}

/// A finished scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Registry name.
    pub name: &'static str,
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// One result per cell, in grid order.
    pub cells: Vec<CellResult>,
    /// Wall-clock seconds for the whole scenario (parallel cells overlap, so
    /// this is typically less than the sum of per-cell `secs`).
    pub wall_secs: f64,
}

impl ScenarioResult {
    /// Renders the run as an aligned-text [`Table`].
    pub fn table(&self) -> Table {
        let mut table = Table::new(self.title.clone(), &self.headers);
        for cell in &self.cells {
            table.row(
                self.headers
                    .iter()
                    .map(|h| cell.value_of(h).unwrap_or(Value::Missing).to_string())
                    .collect(),
            );
        }
        table
    }

    /// Serializes the run as one JSON object (see [`emit_json`] for the
    /// enclosing document).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|cell| {
                let coords = json_object(cell.coords.iter());
                let metrics = json_object(cell.metrics.iter());
                let aggregate = cell
                    .aggregate
                    .as_ref()
                    .map_or("null".to_string(), aggregate_json);
                let round_trace = cell
                    .round_trace
                    .as_deref()
                    .map_or("null".to_string(), round_trace_json);
                format!(
                    "{{\"coords\":{coords},\"seed\":\"{seed:#018x}\",\"secs\":{secs},\
                     \"aggregate\":{aggregate},\"round_trace\":{round_trace},\
                     \"metrics\":{metrics}}}",
                    seed = cell.seed,
                    secs = json_f64(cell.secs),
                )
            })
            .collect();
        format!(
            "{{\"name\":{name},\"title\":{title},\"wall_secs\":{wall},\"cells\":[{cells}]}}",
            name = quote(self.name),
            title = quote(&self.title),
            wall = json_f64(self.wall_secs),
            cells = cells.join(",")
        )
    }
}

/// How to execute a scenario beyond the default full-grid run. (How many
/// threads it runs on is the caller's rayon pool scope, not an option.)
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// `(index, modulus)`: run only the cells whose seed-stream state
    /// satisfies `seed % modulus == index`. Complementary shards partition
    /// the grid exactly (every cell lands in one shard), and the sharded
    /// JSON documents fold back together with
    /// [`crate::merge::merge_documents`]. Sharding never changes a cell's
    /// seed stream — a cell computes identical results in whichever shard
    /// runs it.
    pub shard: Option<(usize, usize)>,
    /// Checkpoint trial cells mid-trial and resume them from existing
    /// checkpoint files (see [`crate::checkpoint`]). Checkpointed cells
    /// skip per-round tracing; their `secs` include the wall-clock of
    /// resumed prior segments.
    pub checkpoint: Option<CheckpointConfig>,
}

/// Runs a scenario: cells fan out across cores, and each trial cell's
/// trials fan out again. Deterministic up to wall-clock fields — the seeds,
/// metrics, and aggregates are bit-identical on any pool size.
pub fn run(spec: &Scenario) -> ScenarioResult {
    run_configured(spec, &RunConfig::default())
}

/// [`run`] with explicit execution options (shard selection, mid-trial
/// checkpointing).
pub fn run_configured(spec: &Scenario, cfg: &RunConfig) -> ScenarioResult {
    #[expect(
        clippy::disallowed_methods,
        reason = "the scenario's wall-clock seconds are the measurement"
    )]
    let start = Instant::now();
    let selected: Vec<&Cell> = spec
        .cells
        .iter()
        .filter(|cell| match cfg.shard {
            None => true,
            Some((index, modulus)) => {
                cell.stream(spec.name).seed() % modulus as u64 == index as u64
            }
        })
        .collect();
    let cells: Vec<CellResult> = selected
        .into_par_iter()
        .map(|cell| run_cell(spec, cell, cfg))
        .collect();
    let coords = spec.cells.first().map_or(&[][..], |cell| &cell.coords);
    ScenarioResult {
        name: spec.name,
        title: spec.title.clone(),
        headers: coords
            .iter()
            .map(|(key, _)| *key)
            .chain(spec.columns.iter().copied())
            .collect(),
        cells,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn run_cell(spec: &Scenario, cell: &Cell, cfg: &RunConfig) -> CellResult {
    let stream = cell.stream(spec.name);
    #[expect(
        clippy::disallowed_methods,
        reason = "the cell's wall-clock seconds are the measurement"
    )]
    let start = Instant::now();
    let mut prior_secs = 0.0;
    let (metrics, aggregate, round_trace) = match &cell.kind {
        CellKind::Trials(job) => {
            let cell_key = format!("{}-{:016x}", spec.name, stream.seed());
            let ckpt = cfg.checkpoint.as_ref().map(|c| (c, cell_key.as_str()));
            let (agg, trace, prior) = run_trials_traced(job, &stream, ckpt);
            prior_secs = prior;
            let metrics: Vec<(&'static str, Value)> = spec
                .columns
                .iter()
                .filter_map(|header| Some((*header, job.column(header, &agg)?)))
                .collect();
            (metrics, Some(agg), trace)
        }
        CellKind::Custom(job) => (job(&CellCtx { stream }), None, None),
    };
    CellResult {
        coords: cell.coords.clone(),
        metrics,
        aggregate,
        round_trace,
        seed: stream.seed(),
        // A resumed cell reports the sum of its wall-clock segments: what
        // the computation cost across interruptions.
        secs: start.elapsed().as_secs_f64() + prior_secs,
    }
}

/// Runs one trial cell's trials and folds in trial order. Public for custom
/// cells that embed trial sweeps (e.g. the fault-tolerance frontier): fork
/// the cell stream per sweep point and pass the fork here, so every sweep
/// point owns a distinct seed sequence.
pub fn run_trials(job: &TrialJob, stream: &SeedStream) -> Aggregate {
    run_trials_traced(job, stream, None).0
}

/// [`run_trials`] plus trial 0's per-round trace when [`TrialJob::trace`]
/// is set and the wall-clock seconds earlier segments of resumed trials
/// consumed. Tracing rides along on trial 0 only — observers read stat
/// deltas, never randomness — so the folded [`Aggregate`] is bit-identical
/// with tracing on or off, on any pool size.
///
/// With `ckpt = Some((config, cell key))` every trial instead runs through
/// [`run_trial_checkpointed`] under its own deterministic file key
/// (`<cell key>-t<trial>`), resuming from leftover checkpoints of an
/// interrupted earlier run; per-round tracing is skipped there — a resumed
/// trial has no round 0 to trace.
pub fn run_trials_traced(
    job: &TrialJob,
    stream: &SeedStream,
    ckpt: Option<(&CheckpointConfig, &str)>,
) -> (Aggregate, Option<Vec<RoundDelta>>, f64) {
    let spec = job.spec();
    let one = |t: usize| -> Result<(crate::Trial, Option<Vec<RoundDelta>>, f64), CoreError> {
        let seeds = TrialSeeds::derive(stream.fork_u64(t as u64).seed());
        let proto = (job.protocol)(seeds.protocol);
        match ckpt {
            None => {
                let mut trace = (job.trace && t == 0).then(RoundTrace::new);
                let trial = run_trial(proto.as_ref(), &spec, seeds, trace.as_mut())?;
                Ok((trial, trace.map(|trace| trace.frames), 0.0))
            }
            Some((cfg, cell_key)) => {
                let key = format!("{cell_key}-t{t}");
                let (trial, prior) =
                    run_trial_checkpointed(proto.as_ref(), &spec, seeds, cfg, &key)?;
                Ok((trial, None, prior))
            }
        }
    };
    let mut results: Vec<_> = (0..job.trials).into_par_iter().map(one).collect();
    let round_trace = results
        .first_mut()
        .and_then(|r| r.as_mut().ok())
        .and_then(|(_, trace, _)| trace.take());
    let prior_secs = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(_, _, prior)| *prior)
        .sum();
    let agg = fold_trials(
        job.trials,
        results
            .into_iter()
            .map(|r| r.map(|(trial, _, _)| trial))
            .collect(),
    );
    (agg, round_trace, prior_secs)
}

/// Serializes finished scenario runs as one self-describing JSON document:
///
/// ```json
/// {"schema": "...", "generator": "...", "git": "...",
///  "base_trials": 5, "scenarios": [ScenarioResult…]}
/// ```
pub fn emit_json(results: &[ScenarioResult], base_trials: usize) -> String {
    let scenarios: Vec<String> = results.iter().map(ScenarioResult::to_json).collect();
    format!(
        "{{\"schema\":{schema},\"generator\":{generator},\"git\":{git},\
         \"base_trials\":{base_trials},\"scenarios\":[{scenarios}]}}",
        schema = quote(SCHEMA),
        generator = quote(concat!("bdclique-bench ", env!("CARGO_PKG_VERSION"))),
        git = quote(&git_describe()),
        scenarios = scenarios.join(",")
    )
}

/// Best-effort `git describe` of the working tree, for provenance metadata;
/// `"unknown"` outside a git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serializes a per-round trace as a JSON array of per-round deltas.
fn round_trace_json(frames: &[RoundDelta]) -> String {
    let rounds: Vec<String> = frames
        .iter()
        .map(|f| {
            format!(
                "{{\"round\":{},\"frames\":{},\"bits\":{},\"corrupted_edges\":{},\
                 \"corrupted_frames\":{}}}",
                f.round,
                f.stats.frames_sent,
                f.stats.bits_sent,
                f.stats.edges_corrupted,
                f.stats.frames_corrupted,
            )
        })
        .collect();
    format!("[{}]", rounds.join(","))
}

fn aggregate_json(agg: &Aggregate) -> String {
    format!(
        "{{\"trials\":{},\"completed\":{},\"perfect\":{},\"total_errors\":{},\
         \"mean_rounds\":{},\"mean_corrupted\":{},\"mean_bits\":{},\
         \"max_fault_degree\":{},\"infeasible\":{},\"failed\":{}}}",
        agg.trials,
        agg.completed,
        agg.perfect,
        agg.total_errors,
        json_opt_f64(agg.mean_rounds),
        json_opt_f64(agg.mean_corrupted),
        json_opt_f64(agg.mean_bits),
        agg.max_fault_degree,
        agg.infeasible,
        agg.failed,
    )
}

fn json_object<'a>(fields: impl Iterator<Item = &'a (&'static str, Value)>) -> String {
    let body: Vec<String> = fields
        .map(|(key, value)| format!("{}:{}", quote(key), value.to_json()))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or("null".to_string(), json_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_renders_na_for_zero_trials() {
        assert_eq!(Value::rate(0, 0).to_string(), "n/a");
        assert_eq!(Value::rate(3, 5).to_string(), "3/5");
        assert_eq!(Value::Missing.to_string(), "n/a");
    }

    #[test]
    fn value_canon_distinguishes_close_floats() {
        assert_ne!(
            Value::f1(0.1).canon(),
            Value::f1(0.1 + f64::EPSILON).canon()
        );
        // Table rendering may collide (both "0.1") but seeds must not.
        assert_eq!(Value::f1(0.1).to_string(), "0.1");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn value_json_forms() {
        assert_eq!(Value::u(3).to_json(), "3");
        assert_eq!(Value::f1(0.5).to_json(), "0.5");
        assert_eq!(Value::rate(1, 4).to_json(), "{\"ok\":1,\"of\":4}");
        assert_eq!(Value::Missing.to_json(), "null");
        assert_eq!(
            Value::Float {
                v: f64::NAN,
                prec: 1
            }
            .to_json(),
            "null"
        );
    }

    #[test]
    fn custom_cell_runs_with_cell_stream() {
        let spec = Scenario {
            name: "test-custom",
            title: "custom".into(),
            columns: vec!["seed_lo"],
            cells: vec![Cell {
                coords: vec![("k", Value::u(7))],
                kind: CellKind::Custom(Arc::new(|ctx: &CellCtx| {
                    vec![("seed_lo", Value::U64(ctx.stream.seed() & 0xff))]
                })),
            }],
            ..Scenario::default()
        };
        let out = run(&spec);
        assert_eq!(out.cells.len(), 1);
        let expected = spec.cells[0].stream("test-custom").seed();
        assert_eq!(out.cells[0].seed, expected);
        assert_eq!(
            out.cells[0].value_of("seed_lo"),
            Some(Value::U64(expected & 0xff))
        );
        // The rendered table resolves coords, metrics, and the built-in secs.
        let rendered = out.table().render();
        assert!(rendered.contains("custom"));
        assert!(out.cells[0].value_of("secs").is_some());
    }
}

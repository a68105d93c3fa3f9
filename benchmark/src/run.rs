//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.
//!
//! End-to-end metrics are measured with tracing off. The traced run pairs
//! every traced trial with a bare trial of the same seed, so the difference
//! between the two is the tracing overhead, and so the decorated adversary
//! is checked against the bare one on every pair.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::proc;
use crate::stats::{median, tail};
use crate::trace::Trace;
use crate::workload::{tolerance, Counts, Protocol, Runner, Trial, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest timed trials (or traced pairs) a time-bounded run reports on.
const MIN_TIMED: usize = 3;
const MIN_PAIRS: usize = 1;
/// `setup_s` samples a run aims for, counting the timed trials' own set-up.
const SETUP_SAMPLES: usize = 30;
/// A time-bounded run stops sampling set-up after this share of its
/// `--seconds`, once it has [`MIN_SETUP_SAMPLES`].
const SETUP_SHARE: f64 = 0.15;
const MIN_SETUP_SAMPLES: usize = 8;
/// Floor on `trace.coverage_frac`: spans must account for this much of a
/// traced trial's wall time.
const MIN_COVERAGE: f64 = 0.95;

/// What the command line asked of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Root seed; every input derives from it.
    pub seed: u64,
    /// Wall-clock budget for the measured loop. Without one, the run does
    /// the workload's fixed number of trials.
    pub seconds: Option<f64>,
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Trials checked, warm-ups included.
    pub attempted: u64,
    /// Trials that failed a check.
    pub failed: u64,
    /// Why trials failed, and any failed self-check of the benchmark.
    pub problems: Vec<String>,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in declaration order.
    pub metrics: Vec<Metric>,
    /// Per-trial samples behind the timing medians, for `compare`.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Lines for the human reader: sample counts, tails, probe shapes.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    /// Whether every trial passed and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result object the builder's contract asks for on the last line
    /// of standard output: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The per-trial samples as one JSON object.
    pub fn samples_json(&self) -> Json {
        Json::obj(self.samples.iter().map(|(k, v)| (*k, Json::nums(v))))
    }
}

/// Counts trials and collects the reasons they fail.
struct Checker<'a> {
    workload: &'a Workload,
    /// `expected.json`'s counts per trial index; empty for other seeds.
    pinned: Vec<[u64; 4]>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(workload: &'a Workload, seed: u64) -> Self {
        let pinned = if seed == DEFAULT_SEED {
            pinned_counts(workload.name)
        } else {
            Vec::new()
        };
        Self {
            workload,
            pinned,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one trial: it must deliver, agree with `twin` (a run of the
    /// same seed) on every exact count, and match `expected.json` where
    /// that pins it.
    fn check(&mut self, trial: &Trial, twin: Option<&Trial>) {
        self.attempted += 1;
        let mut why = Vec::new();
        match (&trial.error, trial.counts) {
            (Some(e), _) => why.push(format!("protocol error: {e}")),
            (None, None) => why.push("no counts".to_string()),
            (None, Some(c)) => {
                let allowed = tolerance(self.workload, &c);
                if c.errors > allowed {
                    why.push(format!("{} wrong messages, {allowed} allowed", c.errors));
                }
                if let Some(twin) = twin.filter(|t| t.counts != Some(c)) {
                    why.push(format!(
                        "same-seed runs disagree: {c:?} vs {:?}",
                        twin.counts
                    ));
                }
                let got = pinned_fields(&c);
                if let Some(want) = self.pinned.get(trial.index).filter(|w| **w != got) {
                    why.push(format!(
                        "[rounds, wire_bits, edges_corrupted, errors] = {got:?}, \
                         expected.json pins {want:?}"
                    ));
                }
            }
        }
        if !why.is_empty() {
            self.failed += 1;
            self.problems.push(format!(
                "{} trial {}: {}",
                self.workload.name,
                trial.index,
                why.join("; ")
            ));
        }
    }

    /// Records a failed self-check that is not a trial.
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn pinned_fields(c: &Counts) -> [u64; 4] {
    [c.rounds, c.wire_bits, c.edges_corrupted, c.errors]
}

/// The pinned `[rounds, wire_bits, edges_corrupted, errors]` rows of one
/// workload, from the `expected.json` compiled into the binary.
fn pinned_counts(workload: &str) -> Vec<[u64; 4]> {
    let doc = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    assert_eq!(
        doc.get("seed").and_then(Json::as_u64),
        Some(DEFAULT_SEED),
        "expected.json pins another seed"
    );
    let rows = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or_default();
    rows.iter()
        .map(|row| {
            let row = row.as_arr().expect("expected.json row is an array");
            std::array::from_fn(|i| row[i].as_u64().expect("expected.json count"))
        })
        .collect()
}

/// Renders `expected.json` from per-workload trial counts.
pub fn render_expected(rows: &[(&str, Vec<Counts>)]) -> String {
    let mut out = format!("{{\"seed\": {DEFAULT_SEED}, \"workloads\": {{\n");
    for (i, (name, counts)) in rows.iter().enumerate() {
        let cells: Vec<String> = counts
            .iter()
            .map(|c| Json::nums(&pinned_fields(c).map(|v| v as f64)).render())
            .collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  \"{name}\": [{}]{comma}\n", cells.join(", ")));
    }
    out.push_str("}}\n");
    out
}

/// Calls `iteration(index)` for the workload's warm-ups, then for the
/// measured iterations: `fixed` of them without a budget; with one, at
/// least `min` and as close to `seconds` of wall time as whole iterations
/// get. The clock starts after the warm-ups.
fn measured_loop(
    w: &Workload,
    seconds: Option<f64>,
    fixed: usize,
    min: usize,
    mut iteration: impl FnMut(usize),
) {
    (0..w.warmups).for_each(&mut iteration);
    let start = Instant::now();
    for done in 1.. {
        iteration(w.warmups + done - 1);
        let elapsed = start.elapsed().as_secs_f64();
        let enough = match seconds {
            None => done >= fixed,
            Some(budget) => done >= min && elapsed + 0.5 * elapsed / done as f64 > budget,
        };
        if enough {
            break;
        }
    }
}

fn field(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> Vec<f64> {
    trials.iter().map(f).collect()
}

fn count(trials: &[Trial], f: impl Fn(&Counts) -> u64) -> Vec<f64> {
    trials
        .iter()
        .filter_map(|t| t.counts.as_ref().map(|c| f(c) as f64))
        .collect()
}

/// Median, or NaN (rendered `null`) when every trial failed.
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// One line for the human reader: median, sample count, range, and the
/// highest percentile with ten samples beyond it when there is one.
fn timing_note(name: &str, unit: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{name}: no samples");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let tail = match tail(values) {
        Some((pct, v)) => format!(", p{pct:.1} {v:.4} {unit}"),
        None => String::new(),
    };
    format!(
        "{name}: median {:.4} {unit} over {} samples (min {lo:.4}, max {hi:.4}{tail})",
        median(values),
        values.len()
    )
}

/// Orders `values` as `declared` lists them. A name without a value reads
/// NaN (rendered `null`): a probe that failed, which is reported as a
/// problem; `tests/names.rs` checks a healthy run leaves none.
fn in_order(
    declared: impl Iterator<Item = (&'static str, &'static str)>,
    values: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    declared
        .map(|(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(f64::NAN),
        })
        .collect()
}

/// The untraced run: a discarded cold trial, the timed trials, then
/// set-up-only repetitions; reports every end-to-end metric.
pub fn measure(w: &Workload, opts: &Options) -> Report {
    let mut checker = Checker::new(w, opts.seed);
    // The cold trial warms the allocator, the field tables and the worker
    // threads, and doubles as the same-seed twin of trial 0.
    let cold = Runner::new(w, opts.seed, None).trial(0);
    checker.check(&cold, None);

    let mut runner = Runner::new(w, opts.seed, None);
    let mut timed = Vec::new();
    measured_loop(w, opts.seconds, w.trials, MIN_TIMED, |index| {
        let trial = runner.trial(index);
        checker.check(&trial, (index == 0).then_some(&cold));
        // A failed trial is counted above; its timings describe nothing.
        if index >= w.warmups && trial.counts.is_some() {
            timed.push(trial);
        }
    });

    // A stream session opens on the long-lived network, so only the
    // repetitions below see all three parts of set-up.
    let mut setup = match w.protocol {
        Protocol::NaiveStream => Vec::new(),
        Protocol::DetSqrt | Protocol::DetHypercube => field(&timed, Trial::setup_s),
    };
    let start = Instant::now();
    while setup.len() < SETUP_SAMPLES
        && opts.seconds.is_none_or(|s| {
            setup.len() < MIN_SETUP_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SHARE * s
        })
    {
        match runner.setup_only(setup.len()) {
            Ok(secs) => setup.push(secs),
            Err(e) => {
                checker.require(false, || format!("{}: set-up failed: {e}", w.name));
                break;
            }
        }
    }

    let trial_s = field(&timed, |t| t.trial_s);
    let values = BTreeMap::from([
        ("trial_s", median_or_nan(&trial_s)),
        ("setup_s", median_or_nan(&setup)),
        ("peak_rss_mb", proc::peak_rss_mb().unwrap_or(f64::NAN)),
        ("rounds", median_or_nan(&count(&timed, |c| c.rounds))),
        ("wire_bits", median_or_nan(&count(&timed, |c| c.wire_bits))),
    ]);
    Report {
        workload: w.name,
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        metrics: in_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values),
        notes: vec![
            timing_note("trial_s", "s", &trial_s),
            timing_note("setup_s", "s", &setup),
            format!("cold trial (discarded): {:.4} s", cold.trial_s),
        ],
        samples: vec![("trial_s", trial_s), ("setup_s", setup)],
        trace: None,
    }
}

/// The traced run: a cold trial, then bare/traced pairs of one seed each,
/// the mid-run checkpoint where the workload has one, and the probes;
/// reports every per-layer metric.
pub fn trace(w: &Workload, opts: &Options) -> Report {
    let mut checker = Checker::new(w, opts.seed);
    let cold = Runner::new(w, opts.seed, None).trial(0);
    checker.check(&cold, None);

    let spans = Trace::new();
    let mut bare_runner = Runner::new(w, opts.seed, None);
    let mut traced_runner = Runner::new(w, opts.seed, Some(spans.clone()));
    let (mut bare, mut traced, mut network_new) = (Vec::new(), Vec::new(), Vec::new());
    // Half the budget: the probes below take the other half.
    let budget = opts.seconds.map(|s| s / 2.0);
    measured_loop(w, budget, w.trials.div_ceil(3), MIN_PAIRS, |index| {
        // Alternate which side goes first, so drift cancels.
        let (b, t) = if index % 2 == 0 {
            let b = bare_runner.trial(index);
            (b, traced_runner.trial(index))
        } else {
            let t = traced_runner.trial(index);
            (bare_runner.trial(index), t)
        };
        checker.check(&b, (index == 0).then_some(&cold));
        checker.check(&t, Some(&b));
        // The stream builds its network once, in a warm-up session.
        if t.network_new_s > 0.0 {
            network_new.push(t.network_new_s);
        }
        if index >= w.warmups && b.counts.is_some() && t.counts.is_some() {
            bare.push(b);
            traced.push(t);
        }
    });

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let per_trial = |f: &dyn Fn(&Trial) -> f64| median_or_nan(&field(&traced, f));
    let step_s = |t: &Trial| t.step_ms.iter().sum::<f64>() / 1e3;
    let frames = |t: &Trial| t.counts.map_or(f64::NAN, |c| c.frames_sent as f64);
    let trial_s = per_trial(&|t| t.trial_s);

    v.insert("trace.trial_s", trial_s);
    v.insert("bench.instance_s", per_trial(&|t| t.instance_s));
    v.insert("netsim.network_new_s", median_or_nan(&network_new));
    v.insert(
        "core.protocols.session_open_s",
        per_trial(&|t| t.session_open_s),
    );
    v.insert("core.protocols.step_s", per_trial(&step_s));
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.step_ms.iter().copied())
        .collect();
    v.insert("core.protocols.step_p50_ms", median_or_nan(&steps));
    let longest = steps.iter().copied().fold(f64::NAN, f64::max);
    // Below eleven steps no percentile has ten samples beyond it; the
    // maximum stands in, and the stated percentile says so.
    let (pct, at_tail) = tail(&steps).unwrap_or((100.0, longest));
    v.insert("core.protocols.step_tail_ms", at_tail);
    v.insert("core.protocols.step_tail_pct", pct);
    v.insert("core.protocols.step_max_ms", longest);
    notes.push(timing_note("core.protocols.step", "ms", &steps));
    v.insert("core.protocols.self_s", per_trial(&|t| step_s(t) - t.act_s));
    v.insert("adversary.act_s", per_trial(&|t| t.act_s));
    v.insert("adversary.act_calls", per_trial(&|t| t.act_calls as f64));
    let edges: f64 = count(&traced, |c| c.edges_corrupted).iter().sum();
    let rounds: f64 = count(&traced, |c| c.rounds).iter().sum();
    v.insert("adversary.edges_per_round", edges / rounds);
    v.insert("adversary.share", per_trial(&|t| t.act_s / t.trial_s));
    let per_count = |f: &dyn Fn(&Counts) -> u64| median_or_nan(&count(&traced, f));
    v.insert("netsim.frames_sent", per_count(&|c| c.frames_sent));
    v.insert(
        "netsim.frames_corrupted",
        per_count(&|c| c.frames_corrupted),
    );
    v.insert(
        "netsim.host_ns_per_frame",
        per_trial(&|t| (step_s(t) - t.act_s) * 1e9 / frames(t)),
    );
    v.insert("core.routing.cache_hits", per_trial(&|t| t.cache.0 as f64));
    v.insert(
        "core.routing.cache_misses",
        per_trial(&|t| t.cache.1 as f64),
    );
    v.insert("bench.check_s", per_trial(&|t| t.check_s));
    v.insert("bench.cold_trial_s", cold.trial_s);
    let cpu: f64 = traced.iter().map(|t| t.cpu_s).sum();
    let wall: f64 = traced.iter().map(|t| t.trial_s).sum();
    v.insert("proc.cpu_s", cpu / traced.len() as f64);
    v.insert("proc.cpu_per_wall", cpu / wall);

    // Spans must account for the trial: instance, network, session open,
    // steps and check over the trial's wall time, worst trial reported.
    let coverage = traced
        .iter()
        .map(|t| (t.setup_s() + step_s(t) + t.check_s) / t.wall_s)
        .fold(f64::INFINITY, f64::min);
    v.insert("trace.coverage_frac", coverage);
    checker.require(coverage >= MIN_COVERAGE, || {
        format!(
            "{}: spans cover {coverage:.3} of a trial, below {MIN_COVERAGE}",
            w.name
        )
    });
    v.insert(
        "trace.overhead_frac",
        trial_s / median_or_nan(&field(&bare, |t| t.trial_s)) - 1.0,
    );

    // Only a workload with a checkpoint round has snapshot costs; the
    // others report 0 so every run carries every name.
    let mut checkpoint = [0.0; 3];
    if let Some(round) = w.checkpoint_round {
        match bare_runner.checkpoint(0, round) {
            Ok(c) => {
                checkpoint = [c.encode_ms, c.restore_ms, c.bytes as f64];
                checker.require(c.identical, || {
                    format!("{}: resumed run differs from the uninterrupted one", w.name)
                });
                notes.push(format!(
                    "checkpoint after round {round}: resumed output identical: {}",
                    c.identical
                ));
            }
            Err(e) => checker.require(false, || format!("{}: checkpoint failed: {e}", w.name)),
        }
    }
    v.insert("snapshot.encode_ms", checkpoint[0]);
    v.insert("snapshot.restore_ms", checkpoint[1]);
    v.insert("snapshot.bytes", checkpoint[2]);

    match probes::run(opts.seed) {
        Ok(found) => {
            for p in found {
                notes.push(format!("{}: {}", p.name, p.shape));
                v.insert(p.name, p.value);
            }
        }
        Err(e) => checker.require(false, || e),
    }
    let probe = |name: &str| v.get(name).copied().unwrap_or(f64::NAN);
    checker.require(probe("core.routing.decode_failures") == 0.0, || {
        "routing probe: decode failures on a fault-free network".to_string()
    });
    // Each layer's probe predicts its share of the traced trial.
    let encode_share =
        probe("core.routing.cache_misses") * 255.0 * probe("codes.rs_encode_ns_per_sym")
            / 1e9
            / trial_s;
    let per_frame = match w.protocol {
        Protocol::NaiveStream => probe("netsim.exchange_dense_ns_per_frame"),
        Protocol::DetSqrt | Protocol::DetHypercube => probe("netsim.exchange_sparse_ns_per_frame"),
    };
    let exchange_share = probe("netsim.frames_sent") * per_frame / 1e9 / trial_s;
    v.insert("codes.encode_share_pred", encode_share);
    v.insert("netsim.exchange_share_pred", exchange_share);

    Report {
        workload: w.name,
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        metrics: in_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &v),
        samples: vec![
            ("trace.trial_s", field(&traced, |t| t.trial_s)),
            ("bare.trial_s", field(&bare, |t| t.trial_s)),
        ],
        notes,
        trace: Some(spans),
    }
}

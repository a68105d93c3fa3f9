//! Regenerates Table 1 and every figure-shaped experiment of the paper
//! through the declarative scenario engine.
//!
//! ```sh
//! cargo run --release -p bdclique-bench --bin tables                     # everything
//! cargo run --release -p bdclique-bench --bin tables -- --list          # name the scenarios
//! cargo run --release -p bdclique-bench --bin tables -- --scenario t1r3 # one scenario
//! cargo run --release -p bdclique-bench --bin tables -- \
//!     --scenario largen --trials 3 --json bench.json                    # machine-readable
//! ```
//!
//! Bare scenario names (`tables t1r3 frontier`) are accepted as shorthand
//! for `--scenario`; `route` expands to `route-margin` + `route-engines`.
//! `--trials N` sets the base trial count (default 5); scenarios apply
//! their historical per-suite scaling (e.g. `ldc` runs `4 × N`).
//! `--json PATH` additionally writes every selected scenario's cells,
//! aggregates, seeds, and wall times as one JSON document (schema
//! documented in `bdclique_bench::scenario`). `--check` holds every
//! selected scenario to its own `expect` clauses and exits nonzero with one
//! line per violation (scenario, coordinates, seed).
//!
//! `--checkpoint-dir D [--checkpoint-every R]` checkpoints every trial's
//! full execution state into `D` every `R` rounds (atomic write-then-
//! rename); rerunning the same command after a crash resumes each
//! interrupted trial from its latest checkpoint, bit-identically to an
//! uninterrupted run. `--shard I/M` runs only the cells whose seed falls in
//! shard `I` of `M`, and `tables --merge OUT.json SHARD.json...` folds the
//! shard documents back into one. `tables --same A.json B.json` is the
//! identity compare between two runs of one grid (golden vs resumed, full
//! vs merged): same cells, same coordinates, aggregates and metrics —
//! only `secs`, `wall_secs`, `git` and cell order may differ.

use bdclique_bench::checkpoint::CheckpointConfig;
use bdclique_bench::scenario::{self, RunConfig, Scenario, ScenarioResult};
use bdclique_bench::{expect, experiments, merge};
use std::process::ExitCode;

const USAGE: &str = "usage: tables [--scenario NAME]... [--trials N] [--json PATH] [--check] \
                    [--checkpoint-dir DIR] [--checkpoint-every ROUNDS] \
                    [--shard I/M] [--trace] [--list] [NAME]...\n\
                    \u{20}      tables --merge OUT.json SHARD.json...\n\
                    \u{20}      tables --same A.json B.json";

/// How often (in rounds) checkpointed trials capture state when
/// `--checkpoint-every` is not given.
const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

#[derive(Default)]
struct Args {
    scenarios: Vec<String>,
    trials: Option<usize>,
    json: Option<String>,
    /// Checkpoint trial cells into this directory and resume from any
    /// checkpoints an interrupted earlier run left there.
    checkpoint_dir: Option<String>,
    /// Rounds between mid-trial checkpoints.
    checkpoint_every: Option<u64>,
    /// `(index, modulus)` shard selection: run only the cells whose seed
    /// falls in this shard.
    shard: Option<(usize, usize)>,
    /// Merge mode: fold the shard JSON documents named by the bare
    /// arguments into one document at this path, then exit.
    merge_out: Option<String>,
    /// Compare mode: the two documents to hold identical, then exit.
    same: Option<(String, String)>,
    /// Hold each scenario's result to its `expect` clauses.
    check: bool,
    trace: bool,
    list: bool,
    help: bool,
}

/// Parses `I/M` with `I < M`, `M ≥ 1`.
fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let (i, m) = s
        .split_once('/')
        .ok_or_else(|| format!("bad shard '{s}': expected I/M"))?;
    let index: usize = i.parse().map_err(|_| format!("bad shard index: {i}"))?;
    let modulus: usize = m.parse().map_err(|_| format!("bad shard modulus: {m}"))?;
    if modulus == 0 || index >= modulus {
        return Err(format!(
            "bad shard '{s}': need index < modulus, modulus >= 1"
        ));
    }
    Ok((index, modulus))
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    /// The value following `flag`, or "`flag` requires `what`".
    fn value(
        raw: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
    ) -> Result<String, String> {
        raw.next().ok_or_else(|| format!("{flag} requires {what}"))
    }
    let mut args = Args::default();
    while let Some(arg) = raw.next() {
        let flag = arg.as_str();
        match flag {
            "--scenario" => args.scenarios.push(value(&mut raw, flag, "a name")?),
            "--trials" => {
                let n = value(&mut raw, flag, "a count")?;
                args.trials = Some(n.parse().map_err(|_| format!("bad trial count: {n}"))?);
            }
            "--json" => args.json = Some(value(&mut raw, flag, "a path")?),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value(&mut raw, flag, "a path")?),
            "--checkpoint-every" => {
                let n = value(&mut raw, flag, "a round count")?;
                let every = n.parse().map_err(|_| format!("bad round count: {n}"))?;
                args.checkpoint_every = Some(every);
            }
            "--shard" => args.shard = Some(parse_shard(&value(&mut raw, flag, "I/M")?)?),
            "--merge" => args.merge_out = Some(value(&mut raw, flag, "an output path")?),
            "--same" => {
                let mut doc = || value(&mut raw, flag, "two documents");
                args.same = Some((doc()?, doc()?));
            }
            "--check" => args.check = true,
            "--trace" => args.trace = true,
            "--list" => args.list = true,
            "--help" | "-h" => args.help = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}\n{USAGE}")),
            // Bare experiment ids, as the old CLI accepted — or shard
            // document paths under --merge.
            name => args.scenarios.push(name.to_string()),
        }
    }
    if args.checkpoint_every.is_some() && args.checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir".to_string());
    }
    Ok(args)
}

fn read_document(path: &str) -> Result<(String, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    Ok((path.to_string(), text))
}

/// `--merge OUT.json shard0.json shard1.json …`: fold shard documents into
/// one and exit without running any scenario.
fn run_merge(out_path: &str, inputs: &[String]) -> Result<(), String> {
    if inputs.is_empty() {
        return Err(format!(
            "--merge needs at least one shard document\n{USAGE}"
        ));
    }
    let docs: Vec<_> = inputs
        .iter()
        .map(|p| read_document(p))
        .collect::<Result<_, _>>()?;
    let merged = merge::merge_documents(&docs).map_err(|e| format!("merge failed: {e}"))?;
    std::fs::write(out_path, &merged).map_err(|e| format!("failed to write {out_path}: {e}"))?;
    println!("merged {} shard document(s) into {out_path}", docs.len());
    Ok(())
}

/// `--same A.json B.json`: the identity compare, one line per difference.
fn run_same(a: &str, b: &str) -> Result<(), String> {
    let (a, b) = (read_document(a)?, read_document(b)?);
    let cells = merge::same_documents((&a.0, &a.1), (&b.0, &b.1)).map_err(|d| d.join("\n"))?;
    println!("OK: {cells} cells identical across {} / {}", a.0, b.0);
    Ok(())
}

/// Builds the requested scenarios, expanding the selection shorthands
/// (`all`, empty, `route`); errors on unknown names so typos don't silently
/// run nothing.
fn select(requested: &[String], trials: usize) -> Result<Vec<Scenario>, String> {
    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        return Ok(experiments::registry(trials));
    }
    let mut selected = Vec::new();
    for name in requested {
        let names = match name.as_str() {
            "route" => vec!["route-margin", "route-engines"],
            other => vec![other],
        };
        for name in names {
            selected.push(experiments::build_scenario(name, trials).ok_or_else(|| {
                let known: Vec<_> = experiments::registry(0).iter().map(|s| s.name).collect();
                format!(
                    "unknown scenario '{name}'; try --list (known: {})",
                    known.join(", ")
                )
            })?);
        }
    }
    Ok(selected)
}

/// How many of `spec`'s trial cells record a per-round trace (trial 0),
/// after `force` — the `--trace` flag — has switched it on for all of them;
/// scenarios like `schedules` opt in from their builder anyway.
/// Custom-measurement cells have no engine-run trials to trace.
fn trace_cells(spec: &mut Scenario, force: bool) -> usize {
    let mut traced = 0;
    for cell in &mut spec.cells {
        if let scenario::CellKind::Trials(job) = &mut cell.kind {
            job.trace |= force;
            traced += usize::from(job.trace);
        }
    }
    traced
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    if args.help {
        println!("{USAGE}");
        return Ok(());
    }
    let trials = args.trials.unwrap_or(5usize);
    if args.list {
        println!("available scenarios:");
        for spec in experiments::registry(trials) {
            println!("  {:<14} {}", spec.name, spec.about);
        }
        return Ok(());
    }
    if let Some(out_path) = &args.merge_out {
        // In merge mode the bare arguments are shard document paths.
        return run_merge(out_path, &args.scenarios);
    }
    if let Some((a, b)) = &args.same {
        return run_same(a, b);
    }
    let mut selected = select(&args.scenarios, trials)?;
    for spec in &mut selected {
        let traced = trace_cells(spec, args.trace);
        if args.trace && traced == 0 {
            eprintln!(
                "note: --trace has no effect on '{}' (custom-measurement cells only)",
                spec.name
            );
        }
        if traced > 0 && args.checkpoint_dir.is_some() {
            // Checkpointed cells skip tracing: the run would emit
            // `round_trace: null` for every one of them, silently.
            return Err(format!(
                "per-round tracing cannot be combined with --checkpoint-dir: scenario '{}' \
                 traces {traced} cell(s) (--trace, or the scenario's own builder), and \
                 checkpointed cells record no trace",
                spec.name
            ));
        }
    }

    println!("bdclique experiment suite (base trials per config: {trials})");
    println!("paper: Fischer-Parter, PODC 2025 (arXiv:2505.05735)");

    let run_cfg = RunConfig {
        shard: args.shard,
        checkpoint: args.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
            dir: dir.into(),
            every: args.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        }),
    };
    if let Some((index, modulus)) = args.shard {
        println!("shard {index}/{modulus}: running only this shard's cells");
    }
    if let Some(ckpt) = &run_cfg.checkpoint {
        println!(
            "checkpointing trial cells into {} every {} round(s)",
            ckpt.dir.display(),
            ckpt.every
        );
    }

    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for spec in selected {
        let result = scenario::run_configured(&spec, &run_cfg);
        println!("{}", result.table().render());
        if args.check {
            violations.extend(expect::check(&spec.expect, &result));
        }
        results.push(result);
    }

    if let Some(path) = args.json {
        let doc = scenario::emit_json(&results, trials);
        std::fs::write(&path, &doc).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!(
            "wrote {path}: {} scenarios, {} cells ({})",
            results.len(),
            results.iter().map(|r| r.cells.len()).sum::<usize>(),
            scenario::SCHEMA
        );
    }
    if args.check {
        // After the JSON is on disk, so a failing CI step still uploads it.
        if !violations.is_empty() {
            return Err(format!("--check failed:\n{}", violations.join("\n")));
        }
        println!(
            "--check: every expectation of {} scenario(s) holds",
            results.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_args_rejects_contradictory_flags() {
        assert!(parse(&["--checkpoint-every", "4"]).is_err());
        assert!(parse(&["--trace", "schedules"]).unwrap().trace);
        assert!(parse(&["--checkpoint-dir", "D"])
            .unwrap()
            .checkpoint_dir
            .is_some());
    }

    /// Checkpointed cells record no trace, so checkpointing a run that asks
    /// for one is refused before any cell runs or any file is written —
    /// whether `--trace` forced the tracing (`t1r1` does not trace on its
    /// own) or the scenario's builder opted in (`schedules`).
    #[test]
    fn checkpointing_refuses_traced_cells_before_running_anything() {
        let tmp = std::env::temp_dir().join(format!("bdc-tables-trace-{}", std::process::id()));
        let (dir, json) = (tmp.join("ckpt"), tmp.join("out.json"));
        let (dir, json) = (dir.to_str().unwrap(), json.to_str().unwrap());
        for selection in [&["--trace", "t1r1"][..], &["schedules"]] {
            let mut args = vec!["--checkpoint-dir", dir, "--json", json, "--trials", "1"];
            args.extend_from_slice(selection);
            let err = run(parse(&args).unwrap()).unwrap_err();
            assert!(err.contains("cannot be combined"), "{selection:?}: {err}");
            assert!(!tmp.exists(), "{selection:?}: the refused run wrote files");
        }
        // The two routes really differ: `t1r1` traces only when forced.
        assert_eq!(
            trace_cells(&mut select(&["t1r1".into()], 1).unwrap()[0], false),
            0
        );
        assert!(trace_cells(&mut select(&["schedules".into()], 1).unwrap()[0], false) > 0);
    }

    #[test]
    fn parse_args_reads_check_and_same() {
        let args = parse(&["--scenario", "topologies", "--check"]).unwrap();
        assert!(args.check && args.same.is_none());
        assert_eq!(args.scenarios, vec!["topologies"]);
        let args = parse(&["--same", "a.json", "b.json"]).unwrap();
        assert_eq!(
            args.same,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        assert!(parse(&["--same", "a.json"]).is_err());
    }
}

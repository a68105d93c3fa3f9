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
//! their historical per-suite scaling (e.g. `codes` runs `8 × N`).
//! `--json PATH` additionally writes every selected scenario's cells,
//! aggregates, seeds, and wall times as one JSON document (schema
//! documented in the README).
//!
//! `--checkpoint-dir D [--checkpoint-every R]` checkpoints every trial's
//! full execution state into `D` every `R` rounds (atomic write-then-
//! rename); rerunning the same command after a crash resumes each
//! interrupted trial from its latest checkpoint, bit-identically to an
//! uninterrupted run. `--shard I/M` runs only the cells whose seed falls in
//! shard `I` of `M`, and `tables --merge OUT.json SHARD.json...` folds the
//! shard documents back into one.

use bdclique_bench::checkpoint::CheckpointConfig;
use bdclique_bench::experiments;
use bdclique_bench::merge;
use bdclique_bench::scenario::{self, RunConfig, ScenarioResult};
use std::process::ExitCode;

const USAGE: &str = "usage: tables [--scenario NAME]... [--trials N] [--json PATH] \
                    [--checkpoint-dir DIR] [--checkpoint-every ROUNDS] \
                    [--shard I/M] [--trace] [--list] [NAME]...\n\
                    \u{20}      tables --merge OUT.json SHARD.json...";

/// How often (in rounds) checkpointed trials capture state when
/// `--checkpoint-every` is not given.
const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

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

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scenarios: Vec::new(),
        trials: None,
        json: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        shard: None,
        merge_out: None,
        trace: false,
        list: false,
        help: false,
    };
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--scenario" => {
                let name = raw.next().ok_or("--scenario requires a name")?;
                args.scenarios.push(name);
            }
            "--trials" => {
                let n = raw.next().ok_or("--trials requires a count")?;
                args.trials = Some(n.parse().map_err(|_| format!("bad trial count: {n}"))?);
            }
            "--json" => {
                let path = raw.next().ok_or("--json requires a path")?;
                args.json = Some(path);
            }
            "--checkpoint-dir" => {
                let dir = raw.next().ok_or("--checkpoint-dir requires a path")?;
                args.checkpoint_dir = Some(dir);
            }
            "--checkpoint-every" => {
                let n = raw
                    .next()
                    .ok_or("--checkpoint-every requires a round count")?;
                args.checkpoint_every =
                    Some(n.parse().map_err(|_| format!("bad round count: {n}"))?);
            }
            "--shard" => {
                let spec = raw.next().ok_or("--shard requires I/M")?;
                args.shard = Some(parse_shard(&spec)?);
            }
            "--merge" => {
                let path = raw.next().ok_or("--merge requires an output path")?;
                args.merge_out = Some(path);
            }
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

/// `--merge OUT.json shard0.json shard1.json …`: fold shard documents into
/// one and exit without running any scenario.
fn run_merge(out_path: &str, inputs: &[String]) -> ExitCode {
    if inputs.is_empty() {
        eprintln!("--merge needs at least one shard document\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut docs = Vec::new();
    for path in inputs {
        match std::fs::read_to_string(path) {
            Ok(text) => docs.push((path.clone(), text)),
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match merge::merge_documents(&docs) {
        Ok(merged) => {
            if let Err(e) = std::fs::write(out_path, &merged) {
                eprintln!("failed to write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("merged {} shard document(s) into {out_path}", docs.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Expands selection shorthands (`all`, empty, `route`) against the
/// registry; errors on unknown names so typos don't silently run nothing.
fn select(requested: &[String]) -> Result<Vec<&'static str>, String> {
    let known: Vec<&'static str> = experiments::registry()
        .iter()
        .map(|entry| entry.name)
        .collect();
    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        return Ok(known);
    }
    let mut selected = Vec::new();
    for name in requested {
        match name.as_str() {
            "route" => selected.extend(["route-margin", "route-engines"]),
            other => match known.iter().find(|k| **k == other) {
                Some(k) => selected.push(*k),
                None => {
                    return Err(format!(
                        "unknown scenario '{other}'; try --list (known: {})",
                        known.join(", ")
                    ))
                }
            },
        }
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if args.list {
        println!("available scenarios:");
        for entry in experiments::registry() {
            println!("  {:<14} {}", entry.name, entry.about);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(out_path) = &args.merge_out {
        // In merge mode the bare arguments are shard document paths.
        return run_merge(out_path, &args.scenarios);
    }

    let selected = match select(&args.scenarios) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let trials = args.trials.unwrap_or(5usize);

    println!("bdclique experiment suite (base trials per config: {trials})");
    println!("paper: Fischer-Parter, PODC 2025 (arXiv:2505.05735)");

    let run_cfg = RunConfig {
        serial: false,
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
    for name in selected {
        let mut spec =
            experiments::build_scenario(name, trials).expect("registry names are always buildable");
        if args.trace {
            // Force per-round tracing (trial 0) on every trial cell of the
            // selected scenarios; scenarios like `schedules` opt in anyway.
            // Custom-measurement cells have no engine-run trials to trace.
            let mut traced = 0usize;
            for cell in &mut spec.cells {
                if let scenario::CellKind::Trials(job) = &mut cell.kind {
                    job.trace = true;
                    traced += 1;
                }
            }
            if traced == 0 {
                eprintln!(
                    "note: --trace has no effect on '{name}' (custom-measurement cells only)"
                );
            }
        }
        let result = scenario::run_configured(&spec, &run_cfg);
        println!("{}", result.table().render());
        results.push(result);
    }

    if let Some(path) = args.json {
        let doc = scenario::emit_json(&results, trials);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path}: {} scenarios, {} cells ({})",
            results.len(),
            results.iter().map(|r| r.cells.len()).sum::<usize>(),
            scenario::SCHEMA
        );
    }
    ExitCode::SUCCESS
}

//! Command line of the repo benchmark. See `benchmark/README.md`.

use bdclique_benchmark::compare::compare;
use bdclique_benchmark::json::Json;
use bdclique_benchmark::run::{measure, render_expected, trace, Options, Report};
use bdclique_benchmark::workload::{find, Runner, Workload, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: benchmark run   [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--repeats K] [--out FILE]
       benchmark trace [--workload W] [--seed S] [--seconds T] [--repeats K] [--out FILE]
       benchmark compare A.json B.json
       benchmark pin

run      measures the end-to-end metrics (or, with --trace 1, the per-layer ones) and checks
         every trial's output. With --workload it runs that workload in this process and ends
         with one JSON result line; without, it runs every workload in a child process of its
         own, --repeats times with seeds S, S+1, ..., and writes the result set to --out
         (default: benchmark/out/results.json, or trace-results.json when tracing).
trace    is run --trace 1.
compare  checks result set B against result set A with the benchmark's bounds.
pin      rewrites expected.json from the default seed's counts (rebuild afterwards).";

/// Prefix of the line on which a single-workload run hands its per-trial
/// samples to the parent process.
const SAMPLES_PREFIX: &str = "samples ";

#[derive(Debug)]
struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeats: u64,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], traced: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(find(value).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(secs);
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeats" => {
                parsed.repeats = value.parse().map_err(|_| bad())?;
                if parsed.repeats == 0 {
                    return Err(bad());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// Where `run` and `trace` leave their files: `out/` beside this package's
/// manifest, which `.gitignore` lists.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        // Counts print whole; `{}` on f64 drops the empty fraction.
        let value = if m.value.fract() == 0.0 {
            format!("{}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!(
            "{:<20} {:<36} {value:>16} {:<6} failed {}/{}",
            report.workload, m.name, m.unit, report.failed, report.attempted
        );
    }
    for problem in &report.problems {
        println!("FAILED {problem}");
    }
}

/// Runs one workload in this process and ends with the result line.
fn run_one(w: &Workload, args: &RunArgs) -> Result<bool, String> {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
    };
    let report = if args.traced {
        trace(w, &opts)
    } else {
        measure(w, &opts)
    };
    print_report(&report);
    if let Some(spans) = &report.trace {
        let path = out_dir().join(format!("trace-{}.json", w.name));
        write_file(&path, &spans.to_json().render())?;
        println!("  spans written to {}", path.display());
    }
    println!("{SAMPLES_PREFIX}{}", report.samples_json().render());
    println!("{}", report.result_line().render());
    Ok(report.correct())
}

/// Re-executes this binary for one workload, so that peak memory is the
/// workload's own, and returns the child's run as a result-set entry.
fn run_child(w: &Workload, seed: u64, args: &RunArgs) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if let Some(secs) = args.seconds {
        cmd.args(["--seconds", &secs.to_string()]);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} run (exit {}): no result line: {e}",
            w.name, output.status
        )
    })?;
    let samples = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(SAMPLES_PREFIX))
        .and_then(|s| Json::parse(s).ok())
        .unwrap_or(Json::Null);
    let correct = result.get("correct") == Some(&Json::Bool(true)) && output.status.success();
    let mut entry = vec![
        ("workload".to_string(), Json::Str(w.name.into())),
        ("seed".to_string(), Json::Num(seed as f64)),
    ];
    entry.extend(result.as_obj().unwrap_or_default().iter().cloned());
    entry.push(("samples".to_string(), samples));
    Ok((Json::Obj(entry), correct))
}

fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeats {
        for w in &WORKLOADS {
            let (entry, correct) = run_child(w, args.seed + repeat, args)?;
            all_correct &= correct;
            runs.push(entry);
        }
    }
    let set = Json::obj([
        ("schema", Json::Str("bdclique-benchmark-v1".into())),
        ("traced", Json::Bool(args.traced)),
        ("runs", Json::Arr(runs)),
    ]);
    let default_name = if args.traced {
        "trace-results.json"
    } else {
        "results.json"
    };
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(default_name));
    write_file(&path, &set.render())?;
    println!("result set written to {}", path.display());
    Ok(all_correct)
}

fn run(args: &[String], traced: bool) -> Result<bool, String> {
    let args = parse_run(args, traced)?;
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, pass) = compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// Rewrites `expected.json`: the default seed's exact counts for every
/// warm-up and timed trial of every workload's fixed-count run.
fn pin() -> Result<bool, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut runner = Runner::new(w, DEFAULT_SEED, None);
        let mut counts = Vec::new();
        for index in 0..w.warmups + w.trials {
            let trial = runner.trial(index);
            counts.push(trial.counts.ok_or_else(|| {
                format!(
                    "{} trial {index}: {}",
                    w.name,
                    trial.error.unwrap_or_default()
                )
            })?);
        }
        println!("{}: pinned {} trials", w.name, counts.len());
        rows.push((w.name, counts));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    write_file(&path, &render_expected(&rows))?;
    println!("wrote {}; rebuild to compile it in", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest, false),
        Some((cmd, rest)) if cmd == "trace" => run(rest, true),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, [])) if cmd == "pin" => pin(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

//! Regression tests for the scenario engine: per-coordinate seed
//! sensitivity, bit-identity across pool sizes (the ambient rayon pool vs a
//! one-thread pool scope), zero-trial rendering, the registry, and JSON
//! well-formedness.

use bdclique_bench::scenario::{self, Cell, CellKind, ProtocolFactory, Scenario, TrialJob, Value};
use bdclique_bench::{AdversarySpec, TopologySpec};
use bdclique_core::protocols::{DetSqrt, NaiveExchange};
use std::sync::Arc;

/// The serial oracle: `op` inside a one-thread pool scope, where every
/// rayon fan-out it reaches — cells, trials, and the packs of every routed
/// trial — runs on the calling thread.
fn on_one_thread<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(op)
}

fn naive_factory() -> ProtocolFactory {
    Arc::new(|_seed| Box::new(NaiveExchange))
}

fn base_cell() -> Cell {
    Cell {
        coords: vec![("n", Value::u(8)), ("adversary", Value::s("none"))],
        kind: CellKind::Trials(TrialJob {
            protocol: naive_factory(),
            protocol_key: "naive",
            adversary: AdversarySpec::None,
            topology: TopologySpec::Complete,
            n: 8,
            b: 1,
            bandwidth: 9,
            alpha: 0.0,
            trials: 3,
            trace: false,
        }),
    }
}

fn with_job(mutate: impl FnOnce(&mut TrialJob)) -> Cell {
    let mut cell = base_cell();
    if let CellKind::Trials(job) = &mut cell.kind {
        mutate(job);
    }
    cell
}

/// Acceptance criterion: changing any single cell coordinate — the
/// scenario name, a named coordinate, or any parameter of the trial job —
/// changes that cell's seed stream.
#[test]
fn any_single_coordinate_change_changes_the_seed_stream() {
    let base = base_cell().stream("s");

    assert_ne!(base, base_cell().stream("other-scenario"), "scenario name");

    let mut renamed = base_cell();
    renamed.coords[0] = ("n", Value::u(9));
    assert_ne!(base, renamed.stream("s"), "coordinate value");
    let mut rekeyed = base_cell();
    rekeyed.coords[0] = ("m", Value::u(8));
    assert_ne!(base, rekeyed.stream("s"), "coordinate key");

    let cases: Vec<(&str, Cell)> = vec![
        ("n", with_job(|j| j.n = 9)),
        ("b", with_job(|j| j.b = 2)),
        ("bandwidth", with_job(|j| j.bandwidth = 10)),
        ("alpha", with_job(|j| j.alpha = 0.125)),
        (
            "adversary",
            with_job(|j| j.adversary = AdversarySpec::GreedyFlip),
        ),
        (
            "adversary params",
            with_job(|j| j.adversary = AdversarySpec::RelayHunter(0, 1)),
        ),
        ("protocol", with_job(|j| j.protocol_key = "other-proto")),
        (
            "topology",
            with_job(|j| j.topology = TopologySpec::Hypercube),
        ),
        (
            "topology params",
            with_job(|j| j.topology = TopologySpec::RandomRegular { d: 4, seed: 1 }),
        ),
    ];
    for (what, cell) in cases {
        assert_ne!(
            base,
            cell.stream("s"),
            "changing {what} must change the stream"
        );
    }
    // Hunter pairs with the same display name still seed apart (key() is
    // parameterized even where name() collides).
    assert_ne!(
        with_job(|j| j.adversary = AdversarySpec::RelayHunter(0, 1)).stream("s"),
        with_job(|j| j.adversary = AdversarySpec::RelayHunter(2, 3)).stream("s"),
    );
    // The trial *count* is deliberately not a seed coordinate: more trials
    // extend the sequence instead of reshuffling completed ones.
    assert_eq!(base, with_job(|j| j.trials = 100).stream("s"));
    // `Complete` is the implicit historical topology: setting it explicitly
    // must NOT perturb any pre-topology cell's seed stream.
    assert_eq!(
        base,
        with_job(|j| j.topology = TopologySpec::Complete).stream("s")
    );
    // Distinct sparse generators seed apart.
    assert_ne!(
        with_job(|j| j.topology = TopologySpec::RandomRegular { d: 4, seed: 1 }).stream("s"),
        with_job(|j| j.topology = TopologySpec::RandomRegular { d: 4, seed: 2 }).stream("s"),
    );
}

fn mini_grid(trials: usize) -> Scenario {
    let mut cells = Vec::new();
    for n in [8usize, 16] {
        for (adversary, alpha) in [
            (AdversarySpec::None, 0.0),
            (AdversarySpec::GreedyFlip, 0.2),
            (AdversarySpec::RushingRandom, 0.07),
            (AdversarySpec::RandomMatchingsFlip, 0.07),
        ] {
            cells.push(Cell {
                coords: vec![
                    ("n", Value::u(n)),
                    ("adversary", Value::s(adversary.name())),
                ],
                kind: CellKind::Trials(TrialJob {
                    protocol: Arc::new(|_seed| Box::new(DetSqrt::default())),
                    protocol_key: "det-sqrt",
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: 18,
                    alpha,
                    trials,
                    trace: true,
                }),
            });
        }
    }
    Scenario {
        name: "mini-grid",
        title: "engine test grid".into(),
        columns: vec!["rounds", "perfect", "errors"],
        cells,
        ..Scenario::default()
    }
}

/// The fan-out must be invisible at all three nesting levels — cells,
/// trials, and the packs inside every routed trial: seeds, metrics, and
/// aggregates bit-identical to the serial oracle. The grid's n = 16 cells
/// are routed det-sqrt runs (its n = 8 cells fail as non-square, the
/// baseline a failing cell must also reproduce), so the oracle covers the
/// per-pack fan-out too.
#[test]
fn parallel_run_matches_serial_oracle() {
    let spec = mini_grid(4);
    let par = scenario::run(&spec);
    let ser = on_one_thread(|| scenario::run(&spec));
    assert_eq!(par.cells.len(), ser.cells.len());
    for (p, s) in par.cells.iter().zip(&ser.cells) {
        assert!(p.same_outcome(s), "diverged at {:?} vs {:?}", p, s);
    }
    // Every cell is det-sqrt, so a completed trial routed two waves.
    let routed = |cell: &scenario::CellResult| cell.aggregate.as_ref().unwrap().completed == 4;
    assert!(
        ser.cells.iter().any(routed),
        "no cell of the grid routed anything: {ser:?}"
    );
}

/// Re-running the same spec replays the same seeds and results (the
/// scenario JSON is comparable across runs).
#[test]
fn reruns_are_reproducible() {
    let first = scenario::run(&mini_grid(3));
    let second = scenario::run(&mini_grid(3));
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert!(a.same_outcome(b));
    }
}

/// A zero-trial cell renders `n/a`, never `0/0` or `NaN`.
#[test]
fn zero_trial_cell_renders_na() {
    let spec = Scenario {
        name: "zero-trials",
        title: "zero".into(),
        columns: vec!["rounds", "perfect", "errors"],
        cells: vec![with_job(|j| j.trials = 0)],
        ..Scenario::default()
    };
    let out = scenario::run(&spec);
    let agg = out.cells[0].aggregate.as_ref().unwrap();
    assert_eq!(agg.trials, 0);
    assert_eq!(agg.mean_rounds, None);
    assert_eq!(out.cells[0].value_of("perfect").unwrap().to_string(), "n/a");
    let rendered = out.table().render();
    assert!(rendered.contains("n/a"), "got: {rendered}");
    assert!(!rendered.contains("0/0"), "got: {rendered}");
    assert!(!rendered.contains("NaN"), "got: {rendered}");
}

/// Every registry scenario is a non-empty grid under a unique name with a
/// `--list` description, and its cells do not collide in seed space (pure
/// construction — nothing runs).
#[test]
fn registry_builds_unique_nonempty_scenarios() {
    let suite = bdclique_bench::experiments::registry(1);
    assert_eq!(suite.len(), 19);
    let mut names: Vec<&str> = suite.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), suite.len(), "registry names must be unique");
    for spec in &suite {
        assert!(!spec.about.is_empty(), "{} has no description", spec.name);
        assert!(!spec.cells.is_empty(), "{} has no cells", spec.name);
        assert!(!spec.columns.is_empty(), "{} has no columns", spec.name);
        // The coordinate headers come from the first cell: all must agree.
        let keys = |c: &Cell| c.coords.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert!(
            spec.cells.iter().all(|c| keys(c) == keys(&spec.cells[0])),
            "{} cells disagree on coordinate names",
            spec.name
        );
        let mut seeds: Vec<u64> = spec
            .cells
            .iter()
            .map(|c| c.stream(spec.name).seed())
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), spec.cells.len(), "{} cells collide", spec.name);
    }
}

/// The emitted JSON is well-formed (checked with a minimal strict parser)
/// and carries the documented top-level fields.
#[test]
fn emitted_json_is_well_formed() {
    let results = vec![scenario::run(&mini_grid(2))];
    let doc = scenario::emit_json(&results, 2);
    json_check::parse(&doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    for key in [
        "\"schema\":\"bdclique-bench/scenario-v1\"",
        "\"generator\":",
        "\"git\":",
        "\"base_trials\":2",
        "\"scenarios\":",
        "\"cells\":",
        "\"aggregate\":",
        "\"mean_rounds\":",
        "\"seed\":\"0x",
        // mini_grid traces: the per-round section must be present with its
        // per-round delta fields.
        "\"round_trace\":[{\"round\":0,\"frames\":",
        "\"bits\":",
        "\"corrupted_edges\":",
        "\"corrupted_frames\":",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
}

/// Tracing rides along without perturbing outcomes: the same grid with and
/// without tracing folds to identical aggregates, and the traced cells
/// carry one frame per round summing to the aggregate totals.
#[test]
fn tracing_is_outcome_invisible_and_partitions_rounds() {
    let traced = scenario::run(&mini_grid(2));
    let untraced = {
        let mut spec = mini_grid(2);
        for cell in &mut spec.cells {
            if let CellKind::Trials(job) = &mut cell.kind {
                job.trace = false;
            }
        }
        scenario::run(&spec)
    };
    for (t, u) in traced.cells.iter().zip(&untraced.cells) {
        assert_eq!(t.aggregate, u.aggregate, "tracing changed an aggregate");
        assert_eq!(t.seed, u.seed, "tracing changed a seed");
        assert!(u.round_trace.is_none());
        if t.aggregate.as_ref().unwrap().completed == 0 {
            // All trials failed (the n = 8 non-square det-sqrt cells):
            // nothing ran, nothing to trace.
            assert!(t.round_trace.is_none());
            continue;
        }
        let frames = t.round_trace.as_ref().expect("traced cell has a trace");
        assert!(!frames.is_empty());
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.round, i as u64, "rounds in order");
            assert_eq!(frame.stats.rounds, 1, "one exchange per frame");
        }
    }
}

/// A minimal strict JSON syntax checker (the workspace has no serde):
/// validates the value grammar and rejects trailing garbage.
mod json_check {
    pub fn parse(s: &str) -> Result<(), String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            other => Err(format!("unexpected {other:?} at {pos}")),
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '{'
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("object: unexpected {other:?} at {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("array: unexpected {other:?} at {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'"')?;
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let esc = b.get(*pos).ok_or("eof in escape")?;
                    *pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = b.get(*pos).ok_or("eof in \\u")?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad \\u digit at {pos}"));
                                }
                                *pos += 1;
                            }
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                c if c < 0x20 => return Err(format!("raw control byte at {}", *pos - 1)),
                _ => {}
            }
        }
        Err("eof in string".to_string())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map_err(|_| format!("bad number '{text}'"))?;
        Ok(())
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at {pos}, expected {word}"))
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {pos}", c as char))
        }
    }
}

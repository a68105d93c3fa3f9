//! The experiment suite: one declarative [`Scenario`] per experiment id
//! (`T1.R1` … `S.TOPO`, named in each builder's doc comment), all executed
//! by the [`crate::scenario`] engine.
//!
//! Every builder here turns a hand-tuned experiment into a grid of cells —
//! the engine owns seeding, parallelism, table rendering, and JSON
//! emission.

use crate::expect::{Clause, Expectation};
use crate::scenario::{
    run_trials, Cell, CellCtx, CellKind, ProtocolFactory, Scenario, TrialJob, Value,
};
use crate::{AdversarySpec, Aggregate, TopologySpec};
use bdclique_bits::BitVec;
use bdclique_codes::{Ldc, RmLdc};
use bdclique_core::cc::{MaxTwoPhase, SumAll, Transpose};
use bdclique_core::compiler::{compile, run_fault_free, CliqueAlgorithm};
use bdclique_core::protocols::{
    AdaptiveAllToAll, AdaptiveTakeOne, AllToAllProtocol, DetHypercube, DetSqrt, NaiveExchange,
    NonAdaptiveAllToAll, RelayReplication,
};
use bdclique_core::routing::{route, RouterConfig, RoutingInstance, RoutingMode, SuperMessage};
use bdclique_coverfree::{CoverFreeFamily, CoverFreeParams};
use bdclique_hash::SharedRandomness;
use bdclique_netsim::{Adversary, Network};
use bdclique_sketch::{RecoverySketch, SketchShape};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const BANDWIDTH: usize = 18;

/// Wraps a protocol constructor into a [`ProtocolFactory`]. The closure
/// receives the trial's protocol seed; deterministic protocols ignore it.
fn factory<P, F>(f: F) -> ProtocolFactory
where
    P: AllToAllProtocol + 'static,
    F: Fn(u64) -> P + Send + Sync + 'static,
{
    Arc::new(move |seed| Box::new(f(seed)))
}

// The protocol configurations more than one scenario runs.

fn naive() -> ProtocolFactory {
    factory(|_| NaiveExchange)
}

fn relay(copies: usize) -> ProtocolFactory {
    factory(move |_| RelayReplication { copies })
}

fn det_hypercube() -> ProtocolFactory {
    factory(|_| DetHypercube::default())
}

fn det_sqrt() -> ProtocolFactory {
    factory(|_| DetSqrt::default())
}

/// Det-sqrt forced onto the stage-parallel unit engine: at `n ≥ 4096` the
/// cover-free margin is known-infeasible, so `Auto` would burn the whole
/// family-construction probe per wave only to fall back.
fn det_sqrt_unit() -> ProtocolFactory {
    factory(|_| {
        DetSqrt::new(RouterConfig {
            mode: RoutingMode::Unit,
        })
    })
}

fn nonadaptive(copies: usize) -> ProtocolFactory {
    factory(move |seed| NonAdaptiveAllToAll {
        copies,
        seed,
        ..Default::default()
    })
}

/// A trial job on `K_n` at the suite bandwidth, untraced — what all but
/// one trial cell of the suite are, up to a struct-updated field.
fn clique_job(
    protocol_key: &'static str,
    protocol: ProtocolFactory,
    adversary: AdversarySpec,
    n: usize,
    b: usize,
    alpha: f64,
    trials: usize,
) -> TrialJob {
    TrialJob {
        protocol,
        protocol_key,
        adversary,
        topology: TopologySpec::Complete,
        n,
        b,
        bandwidth: BANDWIDTH,
        alpha,
        trials,
        trace: false,
    }
}

/// All named scenarios, in suite order, built with `trials` base trials
/// (builders apply their own historical scaling, e.g. `ldc` runs
/// `4 × trials`). The `tables` binary and the README both key off their
/// names.
pub fn registry(trials: usize) -> Vec<Scenario> {
    let builders: [fn(usize) -> Scenario; 19] = [
        t1r1,
        t1r2,
        t1r3,
        t1r4,
        route_margin,
        route_engines,
        matching,
        frontier_scenario,
        compiler,
        ldc,
        sketch,
        cfree,
        querypath,
        largen,
        schedules,
        alpha_largen,
        xlargen,
        bandwidth,
        topologies,
    ];
    builders.into_iter().map(|build| build(trials)).collect()
}

/// Builds the named scenario with `trials` base trials.
pub fn build_scenario(name: &str, trials: usize) -> Option<Scenario> {
    registry(trials).into_iter().find(|s| s.name == name)
}

/// `T1.R1` — Table 1, row 1 (Theorem 1.2): non-adaptive randomized
/// compiler, constant α, `O(1)` rounds.
pub fn t1r1(trials: usize) -> Scenario {
    let mut cells = Vec::new();
    for n in [16usize, 32, 64] {
        let alpha = 1.0 / 16.0;
        // R = Θ(log n) copies (Theorem 1.2's B = Θ(log n) bandwidth): the
        // per-message failure probability is ~C(R, R/2)·α^{R/2}.
        let copies = match n {
            16 => 7,
            32 => 9,
            _ => 13,
        };
        for adversary in [
            AdversarySpec::RandomMatchingsFlip,
            AdversarySpec::RotatingMatchingFlip,
        ] {
            cells.push(Cell {
                coords: vec![
                    ("n", Value::u(n)),
                    ("budget/node", Value::u((alpha * n as f64) as usize)),
                    ("adversary", Value::s(adversary.name())),
                ],
                kind: CellKind::Trials(clique_job(
                    "nonadaptive",
                    nonadaptive(copies),
                    adversary,
                    n,
                    2,
                    alpha,
                    trials,
                )),
            });
        }
    }
    Scenario {
        name: "t1r1",
        about: "Thm 1.2: non-adaptive randomized, alpha = 1/16, O(1) rounds",
        title: "T1.R1  Thm 1.2: non-adaptive randomized, alpha = 1/16, O(1) rounds".into(),
        columns: vec!["rounds", "perfect", "errors"],
        cells,
        expect: vec![],
    }
}

/// `T1.R2` — Table 1, row 2 (Theorem 1.3): adaptive randomized compilers.
pub fn t1r2(trials: usize) -> Scenario {
    let trials = trials.min(3);
    let configs: Vec<(&'static str, usize, ProtocolFactory)> = vec![
        (
            "take1 (O(q))",
            16,
            factory(|seed| AdaptiveTakeOne {
                line_capacity: 1,
                lines: 5,
                seed,
                ..Default::default()
            }),
        ),
        (
            "take1 (O(q))",
            64,
            factory(|seed| AdaptiveTakeOne {
                lines: 5,
                seed,
                ..Default::default()
            }),
        ),
        (
            "take2 direct",
            16,
            factory(|seed| AdaptiveAllToAll {
                query_via_ldc: false,
                line_capacity: 1,
                seed,
                ..Default::default()
            }),
        ),
        (
            "take2 direct",
            64,
            factory(|seed| AdaptiveAllToAll {
                query_via_ldc: false,
                p_size: 8,
                seed,
                ..Default::default()
            }),
        ),
        (
            "take2 LDC",
            16,
            factory(|seed| AdaptiveAllToAll {
                line_capacity: 1,
                seed,
                ..Default::default()
            }),
        ),
    ];
    let mut cells = Vec::new();
    for (variant, n, protocol) in configs {
        let alpha = 1.5 / n as f64; // budget 1
        for adversary in [AdversarySpec::GreedyFlip, AdversarySpec::RushingRandom] {
            cells.push(Cell {
                coords: vec![
                    ("variant", Value::s(variant)),
                    ("n", Value::u(n)),
                    ("budget", Value::u((alpha * n as f64) as usize)),
                    ("adversary", Value::s(adversary.name())),
                ],
                kind: CellKind::Trials(clique_job(
                    variant,
                    protocol.clone(),
                    adversary,
                    n,
                    1,
                    alpha,
                    trials,
                )),
            });
        }
    }
    Scenario {
        name: "t1r2",
        about: "Thm 1.3: adaptive randomized (LDC + sketches)",
        title: "T1.R2  Thm 1.3: adaptive randomized (LDC + sketches)".into(),
        columns: vec!["rounds", "perfect", "errors"],
        cells,
        expect: vec![],
    }
}

/// `T1.R3` — Table 1, row 3 (Theorem 1.4): deterministic, constant α,
/// `O(log n)` rounds.
pub fn t1r3(trials: usize) -> Scenario {
    let alpha = 1.0 / 16.0;
    let cells = [8usize, 16, 32, 64, 128]
        .into_iter()
        .map(|n| Cell {
            coords: vec![
                ("n", Value::u(n)),
                ("budget", Value::u((alpha * n as f64) as usize)),
            ],
            kind: CellKind::Trials(clique_job(
                "det-hypercube",
                det_hypercube(),
                AdversarySpec::GreedyFlip,
                n,
                1,
                alpha,
                trials,
            )),
        })
        .collect();
    Scenario {
        name: "t1r3",
        about: "Thm 1.4: deterministic hypercube, O(log n) rounds",
        title: "T1.R3  Thm 1.4: deterministic hypercube, alpha = 1/16, O(log n) rounds".into(),
        columns: vec!["rounds", "rounds/log2(n)", "perfect", "errors"],
        cells,
        expect: vec![Expectation::on(
            &[],
            vec![Clause::Completed, Clause::ZeroErrors],
        )],
    }
}

/// `T1.R4` — Table 1, row 4 (Theorem 1.5): deterministic, α = Θ(1/√n),
/// `O(1)` rounds, Θ(n^1.5) total corruptions.
pub fn t1r4(trials: usize) -> Scenario {
    let cells = [16usize, 64, 144, 256]
        .into_iter()
        .map(|n| {
            let alpha = 0.5 / (n as f64).sqrt();
            Cell {
                coords: vec![
                    ("n", Value::u(n)),
                    ("budget", Value::u((alpha * n as f64) as usize)),
                ],
                kind: CellKind::Trials(clique_job(
                    "det-sqrt",
                    det_sqrt(),
                    AdversarySpec::GreedyFlip,
                    n,
                    1,
                    alpha,
                    trials,
                )),
            }
        })
        .collect();
    Scenario {
        name: "t1r4",
        about: "Thm 1.5: deterministic sqrt-segments, alpha = 0.5/sqrt(n)",
        title: "T1.R4  Thm 1.5: deterministic sqrt-segments, alpha = 0.5/sqrt(n), O(1) rounds"
            .into(),
        columns: vec!["rounds", "perfect", "errors", "corrupted/trial"],
        cells,
        expect: vec![],
    }
}

/// `F.ROUTE(a)` — the routing lemma (Theorem 1.1/4.1): unit-engine decode
/// margin sweep.
pub fn route_margin(_trials: usize) -> Scenario {
    let n = 64usize;
    let cells = [0usize, 1, 2, 4, 8, 12, 14, 16]
        .into_iter()
        .map(|budget| {
            let alpha = (budget as f64 + 0.2) / n as f64;
            Cell {
                coords: vec![("budget", Value::u(budget)), ("alpha", Value::f3(alpha))],
                kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                    let instance = routing_instance(n, 64, 2);
                    let mut net = Network::new(
                        n,
                        BANDWIDTH,
                        alpha.min(0.99),
                        AdversarySpec::GreedyFlip.build(ctx.stream.fork("adversary").seed()),
                    );
                    let cfg = RouterConfig {
                        mode: RoutingMode::Unit,
                    };
                    match route(&mut net, &instance, &cfg) {
                        Ok(out) => vec![
                            ("feasible", Value::s("yes")),
                            ("rounds", Value::U64(out.report.rounds)),
                            ("decode-failures", Value::u(out.report.decode_failures)),
                            (
                                "payload-errors",
                                Value::u(count_routing_errors(&instance, &out.delivered)),
                            ),
                        ],
                        Err(_) => vec![
                            ("feasible", Value::s("no")),
                            ("rounds", Value::Missing),
                            ("decode-failures", Value::Missing),
                            ("payload-errors", Value::Missing),
                        ],
                    }
                })),
            }
        })
        .collect();
    Scenario {
        name: "route-margin",
        about: "Thm 4.1 router: unit-engine decode-margin sweep",
        title: "F.ROUTE(a)  unit-engine margin sweep, n = 64, k = 2, lambda = 64 bits".into(),
        columns: vec!["feasible", "rounds", "decode-failures", "payload-errors"],
        cells,
        expect: vec![],
    }
}

/// `F.ROUTE(b)` — engine comparison at `n = 256`, fault-free.
pub fn route_engines(_trials: usize) -> Scenario {
    let n = 256usize;
    let mut cells = Vec::new();
    for k in [1usize, 2, 4] {
        for (mode, engine) in [
            (RoutingMode::CoverFree, "cover-free"),
            (RoutingMode::Unit, "unit"),
        ] {
            cells.push(Cell {
                coords: vec![("k", Value::u(k)), ("engine", Value::s(engine))],
                kind: CellKind::Custom(Arc::new(move |_ctx: &CellCtx| {
                    let instance = routing_instance(n, 64, k);
                    let mut net = Network::new(n, BANDWIDTH, 0.0, Adversary::none());
                    let cfg = RouterConfig { mode };
                    match route(&mut net, &instance, &cfg) {
                        Ok(out) => vec![
                            ("feasible", Value::s("yes")),
                            ("rounds", Value::U64(out.report.rounds)),
                            ("stages", Value::u(out.report.stages)),
                        ],
                        Err(_) => vec![
                            ("feasible", Value::s("no")),
                            ("rounds", Value::Missing),
                            ("stages", Value::Missing),
                        ],
                    }
                })),
            });
        }
    }
    Scenario {
        name: "route-engines",
        about: "Thm 4.1 router: cover-free vs unit engine comparison",
        title: "F.ROUTE(b)  engine comparison, n = 256, lambda = 64 bits, fault-free".into(),
        columns: vec!["feasible", "rounds", "stages"],
        cells,
        expect: vec![],
    }
}

fn routing_instance(n: usize, payload_bits: usize, k: usize) -> RoutingInstance {
    RoutingInstance {
        n,
        payload_bits,
        messages: (0..n)
            .flat_map(|u| {
                (0..k).map(move |j| SuperMessage {
                    src: u,
                    slot: j,
                    payload: BitVec::from_fn(payload_bits, |i| (i + u + j) % 3 == 0),
                    targets: vec![(u + j * 7 + 1) % n],
                })
            })
            .collect(),
    }
}

fn count_routing_errors(
    instance: &RoutingInstance,
    delivered: &[std::collections::BTreeMap<(usize, usize), BitVec>],
) -> usize {
    let mut errors = 0;
    for msg in &instance.messages {
        for &t in &msg.targets {
            match delivered[t].get(&(msg.src, msg.slot)) {
                Some(p) if *p == msg.payload => {}
                _ => errors += 1,
            }
        }
    }
    errors
}

/// `F.MATCH` — the mobile-matching separation (Section 3): degree-1 mobile
/// faults defeat replication but not the compilers.
pub fn matching(trials: usize) -> Scenario {
    let n = 64usize;
    let protocols: Vec<(&'static str, ProtocolFactory)> = vec![
        ("naive", naive()),
        ("relay(x3)", relay(3)),
        ("relay(x9)", relay(9)),
        ("det-hypercube", det_hypercube()),
        ("det-sqrt", det_sqrt()),
    ];
    let mut cells = Vec::new();
    for (label, protocol) in protocols {
        for adversary in [
            AdversarySpec::RotatingMatchingFlip,
            AdversarySpec::RelayHunter(3, 11),
        ] {
            cells.push(Cell {
                coords: vec![
                    ("protocol", Value::s(label)),
                    ("adversary", Value::s(adversary.name())),
                ],
                kind: CellKind::Trials(clique_job(
                    label,
                    protocol.clone(),
                    adversary,
                    n,
                    1,
                    1.0 / 8.0,
                    trials,
                )),
            });
        }
    }
    Scenario {
        name: "matching",
        about: "Section 3: mobile matchings defeat replication baselines",
        title: "F.MATCH  mobile matching (alpha = 1/n) vs replication baselines, n = 64".into(),
        columns: vec!["perfect", "errors"],
        cells,
        expect: vec![],
    }
}

/// `F.FREE` — the headline frontier: maximum per-round faulty degree each
/// protocol tolerates with zero errors, and the rounds it pays. Each cell
/// sweeps the budget internally, forking the cell stream per budget so
/// every sweep point owns an independent seed sequence.
pub fn frontier_scenario(trials: usize) -> Scenario {
    let trials = trials.min(3);
    let n = 64usize;
    let protocols: Vec<(&'static str, ProtocolFactory, AdversarySpec, usize)> = vec![
        ("naive", naive(), AdversarySpec::GreedyFlip, 8),
        ("relay(x3)", relay(3), AdversarySpec::GreedyFlip, 8),
        (
            "nonadaptive",
            nonadaptive(7),
            // The non-adaptive protocol is scored against its own model.
            AdversarySpec::RandomMatchingsFlip,
            8,
        ),
        (
            "det-hypercube",
            det_hypercube(),
            AdversarySpec::GreedyFlip,
            8,
        ),
        ("det-sqrt", det_sqrt(), AdversarySpec::GreedyFlip, 8),
        (
            "take1",
            factory(|seed| AdaptiveTakeOne {
                lines: 5,
                seed,
                ..Default::default()
            }),
            AdversarySpec::GreedyFlip,
            4,
        ),
    ];
    let cells = protocols
        .into_iter()
        .map(|(label, protocol, adversary, max_budget)| Cell {
            coords: vec![
                ("protocol", Value::s(label)),
                ("adversary", Value::s(adversary.name())),
            ],
            kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                let mut best: Option<(usize, f64, Aggregate)> = None;
                for budget in 0..=max_budget {
                    let alpha = (budget as f64 + 0.2) / n as f64;
                    let job = clique_job(label, protocol.clone(), adversary, n, 1, alpha, trials);
                    let agg = run_trials(&job, &ctx.stream.fork(&format!("budget={budget}")));
                    if agg.infeasible == 0 && agg.failed == 0 && agg.perfect == agg.trials {
                        best = Some((budget, alpha, agg));
                    }
                }
                match best {
                    Some((budget, alpha, agg)) => vec![
                        ("max budget", Value::u(budget)),
                        ("max alpha", Value::f3(alpha)),
                        ("rounds at max", Value::opt_f1(agg.mean_rounds)),
                        ("corrupt-slots/trial", Value::opt_f1(agg.mean_corrupted)),
                    ],
                    None => vec![
                        ("max budget", Value::s("none")),
                        ("max alpha", Value::Missing),
                        ("rounds at max", Value::Missing),
                        ("corrupt-slots/trial", Value::Missing),
                    ],
                }
            })),
        })
        .collect();
    Scenario {
        name: "frontier",
        about: "max tolerated per-round faulty degree per protocol",
        title: "F.FREE  fault-tolerance frontier, n = 64 (adaptive greedy flip)".into(),
        columns: vec![
            "max budget",
            "max alpha",
            "rounds at max",
            "corrupt-slots/trial",
        ],
        cells,
        expect: vec![],
    }
}

/// `F.COMPILE` — compiled Congested Clique algorithms under attack.
pub fn compiler(_trials: usize) -> Scenario {
    let n = 16usize;
    let alpha = 0.07;
    fn algo_cell<A, F>(label: &'static str, n: usize, alpha: f64, make: F) -> Cell
    where
        A: CliqueAlgorithm + Sync,
        A::State: Send + Sync,
        F: Fn() -> A + Send + Sync + 'static,
    {
        Cell {
            coords: vec![("algorithm", Value::s(label))],
            kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                let algo = make();
                let reference = run_fault_free(&algo, n);
                let mut net = Network::new(
                    n,
                    BANDWIDTH,
                    alpha,
                    AdversarySpec::GreedyFlip.build(ctx.stream.fork("adversary").seed()),
                );
                let proto = DetHypercube::default();
                match compile(&mut net, &algo, &proto) {
                    Ok(run) => {
                        let cc_rounds = algo.round_count();
                        vec![
                            ("cc-rounds", Value::u(cc_rounds)),
                            ("compiled-rounds", Value::U64(run.rounds)),
                            ("overhead", Value::f1(run.rounds as f64 / cc_rounds as f64)),
                            (
                                "outputs",
                                Value::s(if run.outputs == reference {
                                    "MATCH"
                                } else {
                                    "MISMATCH"
                                }),
                            ),
                        ]
                    }
                    Err(e) => vec![
                        ("cc-rounds", Value::Missing),
                        ("compiled-rounds", Value::Missing),
                        ("overhead", Value::Missing),
                        ("outputs", Value::s(format!("error: {e}"))),
                    ],
                }
            })),
        }
    }
    let cells = vec![
        algo_cell("sum-all", n, alpha, move || SumAll {
            inputs: (0..n as u64).map(|i| i * 13 + 7).collect(),
            width: 8,
        }),
        algo_cell("max-two-phase", n, alpha, move || MaxTwoPhase {
            inputs: (0..n as u64).map(|i| (i * 37) % 101).collect(),
            width: 8,
        }),
        algo_cell("transpose", n, alpha, move || Transpose {
            rows: (0..n)
                .map(|u| (0..n).map(|v| (u * n + v) as u64).collect())
                .collect(),
            width: 8,
        }),
    ];
    Scenario {
        name: "compiler",
        about: "compiled Congested Clique algorithms under attack",
        title: "F.COMPILE  round-by-round compilation under adaptive attack, n = 16".into(),
        columns: vec!["cc-rounds", "compiled-rounds", "overhead", "outputs"],
        cells,
        expect: vec![Expectation::on(&[], vec![Clause::Matched])],
    }
}

/// `A.LDC` — Reed–Muller LDC ablation: line amplification vs corruption.
pub fn ldc(trials: usize) -> Scenario {
    let trials = trials * 4;
    const FRACTIONS: [(&str, f64); 4] = [("5%", 0.05), ("10%", 0.10), ("15%", 0.15), ("20%", 0.20)];
    let cells = [1usize, 3, 5, 7]
        .into_iter()
        .map(|lines| Cell {
            coords: vec![("lines", Value::u(lines))],
            kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                let ldc = RmLdc::new(4, 5, lines).unwrap();
                let mut metrics = vec![("q (queries)", Value::u(ldc.query_count()))];
                for (header, fraction) in FRACTIONS {
                    let mut ok = 0;
                    let mut total = 0;
                    let mut rng = ChaCha8Rng::seed_from_u64(ctx.stream.fork(header).seed());
                    for _ in 0..trials {
                        let msg: Vec<u16> = (0..ldc.message_len())
                            .map(|_| rng.gen_range(0..16))
                            .collect();
                        let mut cw = ldc.encode(&msg).unwrap();
                        let corrupt = ((cw.len() as f64) * fraction).round() as usize;
                        for _ in 0..corrupt {
                            let p = rng.gen_range(0..cw.len());
                            cw[p] = rng.gen_range(0..16);
                        }
                        let shared_bits = BitVec::from_fn(64, |_| rng.gen());
                        let shared = SharedRandomness::from_bits(&shared_bits);
                        for i in (0..ldc.message_len()).step_by(5) {
                            total += 1;
                            let qs = ldc.decode_indices(i, &shared);
                            let answers: Vec<u16> = qs.iter().map(|&p| cw[p]).collect();
                            if ldc.local_decode(i, &answers, &shared) == Ok(msg[i]) {
                                ok += 1;
                            }
                        }
                    }
                    metrics.push((
                        header,
                        Value::s(format!("{:.0}%", 100.0 * ok as f64 / total as f64)),
                    ));
                }
                metrics
            })),
        })
        .collect();
    Scenario {
        name: "ldc",
        about: "RM-LDC ablation: line amplification vs corruption",
        title: "A.LDC  RM-LDC local-decode success vs corruption, GF(16), d = 5".into(),
        columns: vec!["q (queries)", "5%", "10%", "15%", "20%"],
        cells,
        expect: vec![],
    }
}

/// `A.SKETCH` — sparse-recovery ablation: success vs load.
pub fn sketch(trials: usize) -> Scenario {
    let trials = trials * 20;
    let shape = SketchShape::for_capacity(4, 32);
    let cells = [1usize, 2, 4, 8, 12, 16, 24]
        .into_iter()
        .map(|items| Cell {
            coords: vec![("items", Value::u(items))],
            kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                let mut ok = 0;
                for trial in 0..trials {
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(ctx.stream.fork_u64(trial as u64).seed());
                    let shared = SharedRandomness::from_bits(&SharedRandomness::generate(&mut rng));
                    let mut sk = RecoverySketch::new(shape, &shared);
                    let mut expect = Vec::new();
                    for _ in 0..items {
                        let key = rng.gen_range(0..1u64 << 32);
                        sk.add(key, 1).unwrap();
                        expect.push((key, 1i64));
                    }
                    expect.sort_unstable();
                    expect.dedup_by(|a, b| {
                        if a.0 == b.0 {
                            b.1 += a.1;
                            true
                        } else {
                            false
                        }
                    });
                    if sk.recover() == Some(expect) {
                        ok += 1;
                    }
                }
                vec![
                    ("cells", Value::u(shape.rows * shape.cols)),
                    ("recovered", Value::rate(ok, trials)),
                ]
            })),
        })
        .collect();
    Scenario {
        name: "sketch",
        about: "sparse-recovery ablation: success vs load",
        title: "A.SKETCH  recovery success vs number of residual items (capacity 4 shape)".into(),
        columns: vec!["cells", "recovered"],
        cells,
        expect: vec![],
    }
}

/// `A.CFREE` — cover-free family ablation: measured worst cover fraction vs
/// group size.
pub fn cfree(_trials: usize) -> Scenario {
    let n = 256usize;
    let cells = [4usize, 8, 16, 32]
        .into_iter()
        .map(|group| {
            let l = n / group;
            Cell {
                coords: vec![("group", Value::u(group)), ("set size L", Value::u(l))],
                kind: CellKind::Custom(Arc::new(move |_ctx: &CellCtx| {
                    let params = CoverFreeParams {
                        n,
                        m: 2 * n,
                        r: 1,
                        set_size: l,
                    };
                    let h: Vec<Vec<u32>> = (0..n)
                        .map(|u| vec![2 * u as u32, 2 * u as u32 + 1])
                        .collect();
                    match CoverFreeFamily::build(params, &h, 1.0, 1, 8) {
                        Ok(fam) => {
                            let f = (2.0 * fam.worst_cover_fraction() * l as f64).ceil() as i64;
                            let margin = l as i64 - 2 * 5 - f; // e_allow = 2·2+1
                            vec![
                                ("worst fraction", Value::f3(fam.worst_cover_fraction())),
                                ("erasure bound f", Value::I64(f)),
                                ("margin left (L-2e-f), e=2", Value::I64(margin)),
                            ]
                        }
                        Err(e) => vec![
                            ("worst fraction", Value::s(format!("error: {e}"))),
                            ("erasure bound f", Value::Missing),
                            ("margin left (L-2e-f), e=2", Value::Missing),
                        ],
                    }
                })),
            }
        })
        .collect();
    Scenario {
        name: "cfree",
        about: "cover-free family ablation: worst cover fraction",
        title: "A.CFREE  measured worst cover fraction vs group size, n = 256, k = 2".into(),
        columns: vec![
            "worst fraction",
            "erasure bound f",
            "margin left (L-2e-f), e=2",
        ],
        cells,
        expect: vec![],
    }
}

/// `A.QUERYPATH` — Take II ablation: LDC fetch vs direct sketch pull.
pub fn querypath(trials: usize) -> Scenario {
    let trials = trials.min(3);
    let cells = [("LDC (paper)", true), ("direct pull", false)]
        .into_iter()
        .map(|(label, via_ldc)| Cell {
            coords: vec![("path", Value::s(label))],
            kind: CellKind::Trials(clique_job(
                label,
                factory(move |seed| AdaptiveAllToAll {
                    query_via_ldc: via_ldc,
                    line_capacity: 1,
                    seed,
                    ..Default::default()
                }),
                AdversarySpec::GreedyFlip,
                16,
                1,
                0.07,
                trials,
            )),
        })
        .collect();
    Scenario {
        name: "querypath",
        about: "Take II ablation: LDC fetch vs direct sketch pull",
        title: "A.QUERYPATH  Take II sketch fetch: LDC storage vs direct pull, n = 16, budget 1"
            .into(),
        columns: vec!["rounds", "perfect", "errors"],
        cells,
        expect: vec![],
    }
}

/// The one cell of a scale smoke: a single fault-free det-sqrt trial at
/// `n`, with the scenario's historical third coordinate.
fn det_sqrt_smoke_cell(
    n: usize,
    third: (&'static str, usize),
    protocol: ProtocolFactory,
) -> Vec<Cell> {
    vec![Cell {
        coords: vec![
            ("protocol", Value::s("det-sqrt")),
            ("n", Value::u(n)),
            (third.0, Value::u(third.1)),
        ],
        kind: CellKind::Trials(clique_job(
            "det-sqrt",
            protocol,
            AdversarySpec::None,
            n,
            1,
            0.0,
            1,
        )),
    }]
}

/// `S.LARGE-N` — storage-layer scaling smoke: a full DetSqrt trial at
/// `n = 1024` on the sparse traffic substrate. The per-cell `secs` column
/// keeps substrate regressions visible in the rendered tables and the
/// scenario JSON.
pub fn largen(_trials: usize) -> Scenario {
    let cells = det_sqrt_smoke_cell(1024, ("B", 1), det_sqrt());
    Scenario {
        name: "largen",
        about: "storage-layer scaling smoke: DetSqrt at n = 1024",
        title: "S.LARGE-N  DetSqrt smoke on the sparse traffic substrate".into(),
        columns: vec!["errors", "rounds", "bits sent", "secs"],
        cells,
        expect: vec![Expectation::on(&[], vec![Clause::Matched])],
    }
}

/// `F.SCHED` — time-varying adversary schedules (the driver/observer API's
/// headline workload): steady matchings vs burst windows vs periodic phase
/// alternation, per protocol. Every cell records trial 0's per-round stat
/// deltas (`round_trace` in the scenario JSON), so the burst shape is
/// visible round by round, not just in the aggregate.
pub fn schedules(trials: usize) -> Scenario {
    let n = 16usize;
    let alpha = 2.2 / n as f64; // budget 2
    let protocols: Vec<(&'static str, ProtocolFactory)> = vec![
        ("relay(x3)", relay(3)),
        ("det-hypercube", det_hypercube()),
        ("det-sqrt", det_sqrt()),
    ];
    let adversaries = [
        AdversarySpec::RandomMatchingsFlip,
        AdversarySpec::BurstFlip {
            period: 6,
            burst: 2,
        },
        AdversarySpec::PhasedFlip {
            period: 6,
            split: 3,
        },
    ];
    let mut cells = Vec::new();
    for (label, protocol) in protocols {
        for adversary in adversaries {
            cells.push(Cell {
                coords: vec![
                    ("protocol", Value::s(label)),
                    ("schedule", Value::s(adversary.key())),
                ],
                kind: CellKind::Trials(TrialJob {
                    trace: true,
                    ..clique_job(label, protocol.clone(), adversary, n, 1, alpha, trials)
                }),
            });
        }
    }
    Scenario {
        name: "schedules",
        about: "time-varying adversaries: burst and periodic phases, per-round traced",
        title: "F.SCHED  time-varying adversary schedules, n = 16, budget 2 (traced)".into(),
        columns: vec!["rounds", "perfect", "errors", "corrupted/trial"],
        cells,
        expect: vec![Expectation::on(&[], vec![Clause::Traced])],
    }
}

/// `S.ALPHA-LARGE` — the ROADMAP's α-sweep at `n ≥ 4096`: rounds/perfect
/// vs α per protocol on the sparse substrate. Kept to one trial per cell
/// and the cheap protocols (naive as the unprotected reference,
/// det-hypercube as the resilient compiler) so a single-core release run
/// stays in CI-smoke territory; release-gated alongside the large-n step.
pub fn alpha_largen(_trials: usize) -> Scenario {
    // Regression gate on the det-sqrt cells: one release trial each
    // reads 19.5 s (budget 0) and 16.9 s (budget 1) on a shared 2-core
    // host whose timings drift up to 2x from day to day, with the
    // scenario at 0.57 GB peak. The threshold leaves that drift room and
    // still fails a run that slows by more than about 2.5x.
    const SECS_THRESHOLD: f64 = 52.0;
    let n = 4096usize;
    let protocols: Vec<(&'static str, ProtocolFactory, &'static [usize])> = vec![
        // Budgets ⌊αn⌋ per protocol: the naive reference degrades with any
        // faults; the hypercube compiler is swept over its tolerant range.
        ("naive", naive(), &[0usize, 1, 4][..]),
        ("det-hypercube", det_hypercube(), &[0usize, 1][..]),
        // The Theorem 1.5 headline row: two √n-segment waves of k = 64
        // super-messages per node. This cell is the CI wall-clock
        // regression gate (`SECS_THRESHOLD`); its per-cell `secs` lands in
        // the BENCH artifact.
        ("det-sqrt", det_sqrt_unit(), &[0usize, 1][..]),
    ];
    let mut cells = Vec::new();
    for (label, protocol, budgets) in protocols {
        for &budget in budgets {
            let alpha = if budget == 0 {
                0.0
            } else {
                (budget as f64 + 0.2) / n as f64
            };
            let adversary = if budget == 0 {
                AdversarySpec::None
            } else {
                AdversarySpec::RandomMatchingsFlip
            };
            cells.push(Cell {
                coords: vec![
                    ("protocol", Value::s(label)),
                    ("n", Value::u(n)),
                    ("budget", Value::u(budget)),
                    // αn ≈ 1 means α ≈ 2.4e-4 here: 3 decimals would
                    // render every row as 0.000.
                    ("alpha", Value::Float { v: alpha, prec: 6 }),
                ],
                kind: CellKind::Trials(clique_job(
                    label,
                    protocol.clone(),
                    adversary,
                    n,
                    1,
                    alpha,
                    1,
                )),
            });
        }
    }
    Scenario {
        name: "alpha-largen",
        about: "alpha sweep at n = 4096 on the sparse substrate (release-gated in CI)",
        title: "S.ALPHA-LARGE  rounds/perfect vs alpha at n = 4096 (sparse substrate)".into(),
        columns: vec!["rounds", "perfect", "errors", "corrupted/trial", "secs"],
        cells,
        expect: vec![Expectation::on(
            &[("protocol", "det-sqrt")],
            vec![
                Clause::Completed,
                Clause::ZeroErrors,
                Clause::SecsBelow(SECS_THRESHOLD),
            ],
        )],
    }
}

/// `S.XLARGE-N` — the scale frontier's headline cell: one fault-free
/// DetSqrt trial at `n = 16384` (`k = 128` super-messages per node, two
/// waves of 128 unit stages each) on the stage-parallel unit engine. One
/// trial, budget 0 — the point is that the cell *completes with zero errors
/// under a CI wall-clock budget*; the α sweep stays at `n = 4096`
/// ([`alpha_largen`]) where multiple budgets fit the same CI window.
pub fn xlargen(_trials: usize) -> Scenario {
    let cells = det_sqrt_smoke_cell(16384, ("budget", 0), det_sqrt_unit());
    Scenario {
        name: "xlargen",
        about: "det-sqrt at n = 16384 on the unit engine (release-gated in CI)",
        title: "S.XLARGE-N  DetSqrt at n = 16384, unit engine".into(),
        columns: vec!["errors", "rounds", "bits sent", "secs"],
        cells,
        expect: vec![Expectation::on(
            &[],
            vec![Clause::Completed, Clause::ZeroErrors],
        )],
    }
}

/// `S.BANDWIDTH` — the paper's `B = Θ(log n)` knob: rounds vs bandwidth
/// `B ∈ {λ, 2λ, 4λ}` for the Thm 1.2 (non-adaptive randomized) and Thm 1.5
/// (deterministic √n) protocols. λ = 9 bits, the unit router's minimum wire
/// slot (symbol + validity bit), so every protocol runs at each column and
/// the `B`-fold lane speedup of Lemma 2.9 is directly visible.
pub fn bandwidth(trials: usize) -> Scenario {
    const LAMBDA: usize = 9;
    let configs: Vec<(&'static str, usize, f64, AdversarySpec, ProtocolFactory)> = vec![
        (
            "nonadaptive (Thm 1.2)",
            32,
            1.0 / 16.0,
            AdversarySpec::RandomMatchingsFlip,
            nonadaptive(7),
        ),
        (
            "det-sqrt (Thm 1.5)",
            64,
            0.5 / 8.0,
            AdversarySpec::GreedyFlip,
            det_sqrt(),
        ),
    ];
    let mut cells = Vec::new();
    for (label, n, alpha, adversary, protocol) in configs {
        for factor in [1usize, 2, 4] {
            cells.push(Cell {
                coords: vec![
                    ("protocol", Value::s(label)),
                    ("n", Value::u(n)),
                    ("B/lambda", Value::u(factor)),
                    ("B", Value::u(factor * LAMBDA)),
                ],
                kind: CellKind::Trials(TrialJob {
                    bandwidth: factor * LAMBDA,
                    ..clique_job(label, protocol.clone(), adversary, n, 1, alpha, trials)
                }),
            });
        }
    }
    Scenario {
        name: "bandwidth",
        about: "bandwidth scaling B in {lambda, 2lambda, 4lambda} for Thm 1.2/1.5",
        title: "S.BANDWIDTH  rounds vs B in {lambda, 2lambda, 4lambda}, lambda = 9 bits".into(),
        columns: vec!["rounds", "perfect", "errors", "bits/trial"],
        cells,
        expect: vec![],
    }
}

/// `S.TOPO` — beyond the clique: the protocols that survive on sparse
/// graphs, and the attacks that only exist there. On the hypercube the
/// deterministic compiler runs in direct partner-exchange mode; on a random
/// 8-regular expander the naive and relay baselines deliver every neighbor
/// message fault-free — and then an [`AdversarySpec::Eclipse`] at
/// `α = 0.9` closes the full per-node budget `⌊0.9·9⌋ = 8 = deg` and cuts
/// the target off completely, something no `α < 1` achieves on `K_n`. A
/// clique-only protocol (the nonadaptive router) rides along to show the
/// `Infeasible` path, and a [`AdversarySpec::Partition`] cell camps a
/// balanced cut.
pub fn topologies(trials: usize) -> Scenario {
    let n = 32usize;
    let expander = TopologySpec::RandomRegular { d: 8, seed: 21 };
    // α = 0.9: per-node budget ⌊0.9·(8+1)⌋ = 8 on the expander — the whole
    // degree, so the eclipse and partition camps fully close.
    let alpha_camp = 0.9;
    let eclipse = AdversarySpec::Eclipse {
        target: 0,
        rounds: 64,
    };
    let partition = AdversarySpec::Partition { cut_seed: 5 };
    let sparse = expander.key();
    let clean = |topology: &str, protocol| {
        let select = [
            ("topology", topology),
            ("protocol", protocol),
            ("adversary", "none"),
        ];
        Expectation::on(&select, vec![Clause::Completed, Clause::ZeroErrors])
    };
    let configs: Vec<(
        &'static str,
        ProtocolFactory,
        TopologySpec,
        AdversarySpec,
        f64,
    )> = vec![
        // Structured sparse graph: the hypercube compiler in direct mode.
        (
            "det-hypercube",
            det_hypercube(),
            TopologySpec::Hypercube,
            AdversarySpec::None,
            0.0,
        ),
        // Fault-free baselines on the expander.
        ("naive", naive(), expander, AdversarySpec::None, 0.0),
        ("relay(x3)", relay(3), expander, AdversarySpec::None, 0.0),
        // The sparse-only attacks.
        ("naive", naive(), expander, eclipse, alpha_camp),
        ("relay(x3)", relay(3), expander, eclipse, alpha_camp),
        ("naive", naive(), expander, partition, alpha_camp),
        // Clique-only protocol: the super-message router needs every node
        // as a relay, so it reports Infeasible (not an error) off K_n.
        (
            "nonadaptive",
            nonadaptive(7),
            expander,
            AdversarySpec::None,
            0.0,
        ),
    ];
    let cells = configs
        .into_iter()
        .map(|(label, protocol, topology, adversary, alpha)| Cell {
            coords: vec![
                ("topology", Value::s(topology.key())),
                ("protocol", Value::s(label)),
                ("adversary", Value::s(adversary.name())),
            ],
            kind: CellKind::Trials(TrialJob {
                topology,
                ..clique_job(label, protocol, adversary, n, 2, alpha, trials)
            }),
        })
        .collect();
    Scenario {
        name: "topologies",
        about: "beyond the clique: protocols on hypercube / random-regular graphs, \
                eclipse + partition attacks",
        title: "S.TOPO  beyond the clique: sparse graphs, degree-relative budgets, n = 32".into(),
        columns: vec![
            "rounds",
            "perfect",
            "errors",
            "corrupted/trial",
            "infeasible",
        ],
        cells,
        expect: vec![
            // The hypercube compiler and the expander baselines complete
            // with zero errors off the clique.
            clean("hypercube", "det-hypercube"),
            clean(&sparse, "naive"),
            clean(&sparse, "relay(x3)"),
            // The eclipse — only realizable under degree-relative budgets
            // on a sparse graph — corrupts.
            Expectation::on(&[("adversary", "nbd-eclipse")], vec![Clause::Corrupted]),
            // So does the camped cut: every crossing edge fits the budgets.
            Expectation::on(&[("adversary", "nbd-partition")], vec![Clause::Corrupted]),
            // The clique-only router lands in the infeasible column, not
            // the error column.
            Expectation::on(&[("protocol", "nonadaptive")], vec![Clause::Infeasible]),
        ],
    }
}

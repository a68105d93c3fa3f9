//! The experiment suite: one declarative [`Scenario`] per experiment id
//! (`T1.R1` … `S.TOPO`, named in each builder's doc comment), all executed
//! by the [`crate::scenario`] engine.
//!
//! Every builder here turns a hand-tuned experiment into a grid of cells —
//! the engine owns seeding, parallelism, table rendering, and JSON
//! emission.

use crate::scenario::{
    run_trials, Cell, CellCtx, CellKind, ProtocolFactory, RegistryEntry, Scenario, TrialJob, Value,
};
use crate::{AdversarySpec, Aggregate, TopologySpec};
use bdclique_bits::BitVec;
use bdclique_codes::{ConcatenatedCode, Ldc, ReedSolomon, RepetitionCode, RmLdc, SymbolCode};
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

/// The `rounds` / `perfect` / `errors` presenter shared by the Table-1
/// scenarios.
fn present_rpe(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
    vec![
        ("rounds", Value::opt_f1(agg.mean_rounds)),
        ("perfect", Value::rate(agg.perfect, agg.completed)),
        ("errors", Value::u(agg.total_errors)),
    ]
}

/// All named scenarios, in suite order. The `tables` binary and the README
/// both key off these names.
pub fn registry() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            name: "t1r1",
            about: "Thm 1.2: non-adaptive randomized, alpha = 1/16, O(1) rounds",
            build: t1r1,
        },
        RegistryEntry {
            name: "t1r2",
            about: "Thm 1.3: adaptive randomized (LDC + sketches)",
            build: t1r2,
        },
        RegistryEntry {
            name: "t1r3",
            about: "Thm 1.4: deterministic hypercube, O(log n) rounds",
            build: t1r3,
        },
        RegistryEntry {
            name: "t1r4",
            about: "Thm 1.5: deterministic sqrt-segments, alpha = 0.5/sqrt(n)",
            build: t1r4,
        },
        RegistryEntry {
            name: "route-margin",
            about: "Thm 4.1 router: unit-engine decode-margin sweep",
            build: route_margin,
        },
        RegistryEntry {
            name: "route-engines",
            about: "Thm 4.1 router: cover-free vs unit engine comparison",
            build: route_engines,
        },
        RegistryEntry {
            name: "matching",
            about: "Section 3: mobile matchings defeat replication baselines",
            build: matching,
        },
        RegistryEntry {
            name: "frontier",
            about: "max tolerated per-round faulty degree per protocol",
            build: frontier_scenario,
        },
        RegistryEntry {
            name: "compiler",
            about: "compiled Congested Clique algorithms under attack",
            build: compiler,
        },
        RegistryEntry {
            name: "codes",
            about: "ECC ablation: decode success vs corruption fraction",
            build: codes,
        },
        RegistryEntry {
            name: "ldc",
            about: "RM-LDC ablation: line amplification vs corruption",
            build: ldc,
        },
        RegistryEntry {
            name: "sketch",
            about: "sparse-recovery ablation: success vs load",
            build: sketch,
        },
        RegistryEntry {
            name: "cfree",
            about: "cover-free family ablation: worst cover fraction",
            build: cfree,
        },
        RegistryEntry {
            name: "querypath",
            about: "Take II ablation: LDC fetch vs direct sketch pull",
            build: querypath,
        },
        RegistryEntry {
            name: "largen",
            about: "storage-layer scaling smoke: DetSqrt at n = 1024",
            build: largen,
        },
        RegistryEntry {
            name: "schedules",
            about: "time-varying adversaries: burst and periodic phases, per-round traced",
            build: schedules,
        },
        RegistryEntry {
            name: "alpha-largen",
            about: "alpha sweep at n = 4096 on the sparse substrate (release-gated in CI)",
            build: alpha_largen,
        },
        RegistryEntry {
            name: "xlargen",
            about: "det-sqrt at n = 16384 on the unit engine (release-gated in CI)",
            build: xlargen,
        },
        RegistryEntry {
            name: "bandwidth",
            about: "bandwidth scaling B in {lambda, 2lambda, 4lambda} for Thm 1.2/1.5",
            build: bandwidth,
        },
        RegistryEntry {
            name: "topologies",
            about: "beyond the clique: protocols on hypercube / random-regular graphs, eclipse + partition attacks",
            build: topologies,
        },
    ]
}

/// Builds the named scenario with `trials` base trials (builders apply
/// their own historical scaling, e.g. `codes` runs `8 × trials`).
pub fn build_scenario(name: &str, trials: usize) -> Option<Scenario> {
    registry()
        .into_iter()
        .find(|entry| entry.name == name)
        .map(|entry| (entry.build)(trials))
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
                kind: CellKind::Trials(TrialJob {
                    protocol: factory(move |seed| NonAdaptiveAllToAll {
                        copies,
                        seed,
                        ..Default::default()
                    }),
                    protocol_key: "nonadaptive",
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 2,
                    bandwidth: BANDWIDTH,
                    alpha,
                    trials,
                    present: present_rpe,
                    trace: false,
                }),
            });
        }
    }
    Scenario {
        name: "t1r1",
        title: "T1.R1  Thm 1.2: non-adaptive randomized, alpha = 1/16, O(1) rounds".into(),
        headers: vec![
            "n",
            "budget/node",
            "adversary",
            "rounds",
            "perfect",
            "errors",
        ],
        cells,
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
                kind: CellKind::Trials(TrialJob {
                    protocol: protocol.clone(),
                    protocol_key: variant,
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: BANDWIDTH,
                    alpha,
                    trials,
                    present: present_rpe,
                    trace: false,
                }),
            });
        }
    }
    Scenario {
        name: "t1r2",
        title: "T1.R2  Thm 1.3: adaptive randomized (LDC + sketches)".into(),
        headers: vec![
            "variant",
            "n",
            "budget",
            "adversary",
            "rounds",
            "perfect",
            "errors",
        ],
        cells,
    }
}

/// `T1.R3` — Table 1, row 3 (Theorem 1.4): deterministic, constant α,
/// `O(log n)` rounds.
pub fn t1r3(trials: usize) -> Scenario {
    fn present(job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        let log2n = (job.n as f64).log2();
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            (
                "rounds/log2(n)",
                Value::opt_f1(agg.mean_rounds.map(|r| r / log2n)),
            ),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
        ]
    }
    let alpha = 1.0 / 16.0;
    let cells = [8usize, 16, 32, 64, 128]
        .into_iter()
        .map(|n| Cell {
            coords: vec![
                ("n", Value::u(n)),
                ("budget", Value::u((alpha * n as f64) as usize)),
            ],
            kind: CellKind::Trials(TrialJob {
                protocol: factory(|_seed| DetHypercube::default()),
                protocol_key: "det-hypercube",
                adversary: AdversarySpec::GreedyFlip,
                topology: TopologySpec::Complete,
                n,
                b: 1,
                bandwidth: BANDWIDTH,
                alpha,
                trials,
                present,
                trace: false,
            }),
        })
        .collect();
    Scenario {
        name: "t1r3",
        title: "T1.R3  Thm 1.4: deterministic hypercube, alpha = 1/16, O(log n) rounds".into(),
        headers: vec![
            "n",
            "budget",
            "rounds",
            "rounds/log2(n)",
            "perfect",
            "errors",
        ],
        cells,
    }
}

/// `T1.R4` — Table 1, row 4 (Theorem 1.5): deterministic, α = Θ(1/√n),
/// `O(1)` rounds, Θ(n^1.5) total corruptions.
pub fn t1r4(trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
            ("corrupted/trial", Value::opt_f1(agg.mean_corrupted)),
        ]
    }
    let cells = [16usize, 64, 144, 256]
        .into_iter()
        .map(|n| {
            let alpha = 0.5 / (n as f64).sqrt();
            Cell {
                coords: vec![
                    ("n", Value::u(n)),
                    ("budget", Value::u((alpha * n as f64) as usize)),
                ],
                kind: CellKind::Trials(TrialJob {
                    protocol: factory(|_seed| DetSqrt::default()),
                    protocol_key: "det-sqrt",
                    adversary: AdversarySpec::GreedyFlip,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: BANDWIDTH,
                    alpha,
                    trials,
                    present,
                    trace: false,
                }),
            }
        })
        .collect();
    Scenario {
        name: "t1r4",
        title: "T1.R4  Thm 1.5: deterministic sqrt-segments, alpha = 0.5/sqrt(n), O(1) rounds"
            .into(),
        headers: vec![
            "n",
            "budget",
            "rounds",
            "perfect",
            "errors",
            "corrupted/trial",
        ],
        cells,
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
                        ..Default::default()
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
        title: "F.ROUTE(a)  unit-engine margin sweep, n = 64, k = 2, lambda = 64 bits".into(),
        headers: vec![
            "budget",
            "alpha",
            "feasible",
            "rounds",
            "decode-failures",
            "payload-errors",
        ],
        cells,
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
                    let cfg = RouterConfig {
                        mode,
                        ..Default::default()
                    };
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
        title: "F.ROUTE(b)  engine comparison, n = 256, lambda = 64 bits, fault-free".into(),
        headers: vec!["k", "engine", "feasible", "rounds", "stages"],
        cells,
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
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
        ]
    }
    let n = 64usize;
    let protocols: Vec<(&'static str, ProtocolFactory)> = vec![
        ("naive", factory(|_| NaiveExchange)),
        ("relay(x3)", factory(|_| RelayReplication { copies: 3 })),
        ("relay(x9)", factory(|_| RelayReplication { copies: 9 })),
        ("det-hypercube", factory(|_| DetHypercube::default())),
        ("det-sqrt", factory(|_| DetSqrt::default())),
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
                kind: CellKind::Trials(TrialJob {
                    protocol: protocol.clone(),
                    protocol_key: label,
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: BANDWIDTH,
                    alpha: 1.0 / 8.0,
                    trials,
                    present,
                    trace: false,
                }),
            });
        }
    }
    Scenario {
        name: "matching",
        title: "F.MATCH  mobile matching (alpha = 1/n) vs replication baselines, n = 64".into(),
        headers: vec!["protocol", "adversary", "perfect", "errors"],
        cells,
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
        (
            "naive",
            factory(|_| NaiveExchange),
            AdversarySpec::GreedyFlip,
            8,
        ),
        (
            "relay(x3)",
            factory(|_| RelayReplication { copies: 3 }),
            AdversarySpec::GreedyFlip,
            8,
        ),
        (
            "nonadaptive",
            factory(|seed| NonAdaptiveAllToAll {
                copies: 7,
                seed,
                ..Default::default()
            }),
            // The non-adaptive protocol is scored against its own model.
            AdversarySpec::RandomMatchingsFlip,
            8,
        ),
        (
            "det-hypercube",
            factory(|_| DetHypercube::default()),
            AdversarySpec::GreedyFlip,
            8,
        ),
        (
            "det-sqrt",
            factory(|_| DetSqrt::default()),
            AdversarySpec::GreedyFlip,
            8,
        ),
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
                    let job = TrialJob {
                        protocol: protocol.clone(),
                        protocol_key: label,
                        adversary,
                        topology: TopologySpec::Complete,
                        n,
                        b: 1,
                        bandwidth: BANDWIDTH,
                        alpha,
                        trials,
                        present: present_rpe,
                        trace: false,
                    };
                    let agg = run_trials(
                        &job,
                        &ctx.stream.fork(&format!("budget={budget}")),
                        ctx.parallel,
                    );
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
        title: "F.FREE  fault-tolerance frontier, n = 64 (adaptive greedy flip)".into(),
        headers: vec![
            "protocol",
            "adversary",
            "max budget",
            "max alpha",
            "rounds at max",
            "corrupt-slots/trial",
        ],
        cells,
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
        title: "F.COMPILE  round-by-round compilation under adaptive attack, n = 16".into(),
        headers: vec![
            "algorithm",
            "cc-rounds",
            "compiled-rounds",
            "overhead",
            "outputs",
        ],
        cells,
    }
}

/// `A.CODE` — ECC ablation: decode success vs random symbol corruption.
pub fn codes(trials: usize) -> Scenario {
    let trials = trials * 8;
    const FRACTIONS: [(&str, f64); 5] = [
        ("5%", 0.05),
        ("10%", 0.10),
        ("20%", 0.20),
        ("30%", 0.30),
        ("40%", 0.40),
    ];
    fn code_cell<C, F>(label: &'static str, trials: usize, make: F) -> Cell
    where
        C: SymbolCode,
        F: Fn() -> C + Send + Sync + 'static,
    {
        Cell {
            coords: vec![("code", Value::s(label))],
            kind: CellKind::Custom(Arc::new(move |ctx: &CellCtx| {
                let code = make();
                let mut metrics = vec![("rate", Value::s(format!("{:.2}", code.rate())))];
                for (header, fraction) in FRACTIONS {
                    let mut ok = 0;
                    let mut rng = ChaCha8Rng::seed_from_u64(ctx.stream.fork(header).seed());
                    for _ in 0..trials {
                        let msg: Vec<u16> = (0..code.message_len())
                            .map(|_| rng.gen_range(0..1u32 << code.symbol_bits()) as u16)
                            .collect();
                        let mut cw = code.encode(&msg).unwrap();
                        let corrupt = ((cw.len() as f64) * fraction).round() as usize;
                        let mut idx: Vec<usize> = (0..cw.len()).collect();
                        for i in (1..idx.len()).rev() {
                            idx.swap(i, rng.gen_range(0..=i));
                        }
                        for &p in idx.iter().take(corrupt) {
                            cw[p] ^= 1 + rng.gen_range(0..(1u32 << code.symbol_bits()) - 1) as u16;
                        }
                        if code.decode(&cw, &vec![false; cw.len()]) == Ok(msg) {
                            ok += 1;
                        }
                    }
                    metrics.push((header, Value::rate(ok, trials)));
                }
                metrics
            })),
        }
    }
    let cells = vec![
        code_cell("repetition x5", trials, || {
            RepetitionCode::new(8, 3, 5).unwrap()
        }),
        code_cell("RS[16,8] GF(256)", trials, || {
            ReedSolomon::new(8, 16, 8).unwrap()
        }),
        code_cell("concat RS+Hamming", trials, || {
            ConcatenatedCode::new(16, 8).unwrap()
        }),
    ];
    Scenario {
        name: "codes",
        title: "A.CODE  decode success vs random symbol corruption (fraction of codeword)".into(),
        headers: vec!["code", "rate", "5%", "10%", "20%", "30%", "40%"],
        cells,
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
        title: "A.LDC  RM-LDC local-decode success vs corruption, GF(16), d = 5".into(),
        headers: vec!["lines", "q (queries)", "5%", "10%", "15%", "20%"],
        cells,
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
        title: "A.SKETCH  recovery success vs number of residual items (capacity 4 shape)".into(),
        headers: vec!["items", "cells", "recovered"],
        cells,
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
        title: "A.CFREE  measured worst cover fraction vs group size, n = 256, k = 2".into(),
        headers: vec![
            "group",
            "set size L",
            "worst fraction",
            "erasure bound f",
            "margin left (L-2e-f), e=2",
        ],
        cells,
    }
}

/// `A.QUERYPATH` — Take II ablation: LDC fetch vs direct sketch pull.
pub fn querypath(trials: usize) -> Scenario {
    let trials = trials.min(3);
    let cells = [("LDC (paper)", true), ("direct pull", false)]
        .into_iter()
        .map(|(label, via_ldc)| Cell {
            coords: vec![("path", Value::s(label))],
            kind: CellKind::Trials(TrialJob {
                protocol: factory(move |seed| AdaptiveAllToAll {
                    query_via_ldc: via_ldc,
                    line_capacity: 1,
                    seed,
                    ..Default::default()
                }),
                protocol_key: label,
                adversary: AdversarySpec::GreedyFlip,
                topology: TopologySpec::Complete,
                n: 16,
                b: 1,
                bandwidth: BANDWIDTH,
                alpha: 0.07,
                trials,
                present: present_rpe,
                trace: false,
            }),
        })
        .collect();
    Scenario {
        name: "querypath",
        title: "A.QUERYPATH  Take II sketch fetch: LDC storage vs direct pull, n = 16, budget 1"
            .into(),
        headers: vec!["path", "rounds", "perfect", "errors"],
        cells,
    }
}

/// `S.LARGE-N` — storage-layer scaling smoke: a full DetSqrt trial at
/// `n = 1024` on the sparse traffic substrate. The per-cell `secs` column
/// keeps substrate regressions visible in the rendered tables and the
/// scenario JSON.
pub fn largen(_trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        if agg.completed == 0 {
            return vec![
                ("errors", Value::s("failed")),
                ("rounds", Value::Missing),
                ("bits sent", Value::Missing),
            ];
        }
        vec![
            ("errors", Value::u(agg.total_errors)),
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("bits sent", Value::opt_f1(agg.mean_bits)),
        ]
    }
    let n = 1024usize;
    let cells = vec![Cell {
        coords: vec![
            ("protocol", Value::s("det-sqrt")),
            ("n", Value::u(n)),
            ("B", Value::u(1)),
        ],
        kind: CellKind::Trials(TrialJob {
            protocol: factory(|_seed| DetSqrt::default()),
            protocol_key: "det-sqrt",
            adversary: AdversarySpec::None,
            topology: TopologySpec::Complete,
            n,
            b: 1,
            bandwidth: BANDWIDTH,
            alpha: 0.0,
            trials: 1,
            present,
            trace: false,
        }),
    }];
    Scenario {
        name: "largen",
        title: "S.LARGE-N  DetSqrt smoke on the sparse traffic substrate".into(),
        headers: vec![
            "protocol",
            "n",
            "B",
            "errors",
            "rounds",
            "bits sent",
            "secs",
        ],
        cells,
    }
}

/// `F.SCHED` — time-varying adversary schedules (the driver/observer API's
/// headline workload): steady matchings vs burst windows vs periodic phase
/// alternation, per protocol. Every cell records trial 0's per-round stat
/// deltas (`round_trace` in the scenario JSON), so the burst shape is
/// visible round by round, not just in the aggregate.
pub fn schedules(trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
            ("corrupted/trial", Value::opt_f1(agg.mean_corrupted)),
        ]
    }
    let n = 16usize;
    let alpha = 2.2 / n as f64; // budget 2
    let protocols: Vec<(&'static str, ProtocolFactory)> = vec![
        ("relay(x3)", factory(|_| RelayReplication { copies: 3 })),
        ("det-hypercube", factory(|_| DetHypercube::default())),
        ("det-sqrt", factory(|_| DetSqrt::default())),
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
                    protocol: protocol.clone(),
                    protocol_key: label,
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: BANDWIDTH,
                    alpha,
                    trials,
                    present,
                    trace: true,
                }),
            });
        }
    }
    Scenario {
        name: "schedules",
        title: "F.SCHED  time-varying adversary schedules, n = 16, budget 2 (traced)".into(),
        headers: vec![
            "protocol",
            "schedule",
            "rounds",
            "perfect",
            "errors",
            "corrupted/trial",
        ],
        cells,
    }
}

/// `S.ALPHA-LARGE` — the ROADMAP's α-sweep at `n ≥ 4096`: rounds/perfect
/// vs α per protocol on the sparse substrate. Kept to one trial per cell
/// and the cheap protocols (naive as the unprotected reference,
/// det-hypercube as the resilient compiler) so a single-core release run
/// stays in CI-smoke territory; release-gated alongside the large-n step.
pub fn alpha_largen(_trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
            ("corrupted/trial", Value::opt_f1(agg.mean_corrupted)),
        ]
    }
    let n = 4096usize;
    let protocols: Vec<(&'static str, ProtocolFactory, &'static [usize])> = vec![
        // Budgets ⌊αn⌋ per protocol: the naive reference degrades with any
        // faults; the hypercube compiler is swept over its tolerant range.
        ("naive", factory(|_| NaiveExchange), &[0usize, 1, 4][..]),
        (
            "det-hypercube",
            factory(|_| DetHypercube::default()),
            &[0usize, 1][..],
        ),
        // The Theorem 1.5 headline row: two √n-segment waves of k = 64
        // super-messages per node, routed by the stage-parallel unit engine
        // (forced — at this n/k the cover-free margin is known-infeasible,
        // so Auto would burn the whole family-construction probe per wave
        // only to fall back). This cell is the CI wall-clock regression
        // gate, release-gated with a wall-clock budget; its per-cell `secs`
        // lands in the BENCH artifact.
        (
            "det-sqrt",
            factory(|_| {
                DetSqrt::new(RouterConfig {
                    mode: RoutingMode::Unit,
                    ..Default::default()
                })
            }),
            &[0usize, 1][..],
        ),
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
                kind: CellKind::Trials(TrialJob {
                    protocol: protocol.clone(),
                    protocol_key: label,
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: BANDWIDTH,
                    alpha,
                    trials: 1,
                    present,
                    trace: false,
                }),
            });
        }
    }
    Scenario {
        name: "alpha-largen",
        title: "S.ALPHA-LARGE  rounds/perfect vs alpha at n = 4096 (sparse substrate)".into(),
        headers: vec![
            "protocol",
            "n",
            "budget",
            "alpha",
            "rounds",
            "perfect",
            "errors",
            "corrupted/trial",
            "secs",
        ],
        cells,
    }
}

/// `S.XLARGE-N` — the scale frontier's headline cell: one fault-free
/// DetSqrt trial at `n = 16384` (`k = 128` super-messages per node, two
/// waves of 128 unit stages each) on the stage-parallel unit engine. One
/// trial, budget 0 — the point is that the cell *completes with zero errors
/// under a CI wall-clock budget*; the α sweep stays at `n = 4096`
/// ([`alpha_largen`]) where multiple budgets fit the same CI window.
pub fn xlargen(_trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        if agg.completed == 0 {
            return vec![
                ("errors", Value::s("failed")),
                ("rounds", Value::Missing),
                ("bits sent", Value::Missing),
            ];
        }
        vec![
            ("errors", Value::u(agg.total_errors)),
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("bits sent", Value::opt_f1(agg.mean_bits)),
        ]
    }
    let n = 16384usize;
    let cells = vec![Cell {
        coords: vec![
            ("protocol", Value::s("det-sqrt")),
            ("n", Value::u(n)),
            ("budget", Value::u(0)),
        ],
        kind: CellKind::Trials(TrialJob {
            protocol: factory(|_| {
                DetSqrt::new(RouterConfig {
                    mode: RoutingMode::Unit,
                    ..Default::default()
                })
            }),
            protocol_key: "det-sqrt",
            adversary: AdversarySpec::None,
            topology: TopologySpec::Complete,
            n,
            b: 1,
            bandwidth: BANDWIDTH,
            alpha: 0.0,
            trials: 1,
            present,
            trace: false,
        }),
    }];
    Scenario {
        name: "xlargen",
        title: "S.XLARGE-N  DetSqrt at n = 16384, unit engine".into(),
        headers: vec![
            "protocol",
            "n",
            "budget",
            "errors",
            "rounds",
            "bits sent",
            "secs",
        ],
        cells,
    }
}

/// `S.BANDWIDTH` — the paper's `B = Θ(log n)` knob: rounds vs bandwidth
/// `B ∈ {λ, 2λ, 4λ}` for the Thm 1.2 (non-adaptive randomized) and Thm 1.5
/// (deterministic √n) protocols. λ = 9 bits, the unit router's minimum wire
/// slot (symbol + validity bit), so every protocol runs at each column and
/// the `B`-fold lane speedup of Lemma 2.9 is directly visible.
pub fn bandwidth(trials: usize) -> Scenario {
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
            ("bits/trial", Value::opt_f1(agg.mean_bits)),
        ]
    }
    const LAMBDA: usize = 9;
    let configs: Vec<(&'static str, usize, f64, AdversarySpec, ProtocolFactory)> = vec![
        (
            "nonadaptive (Thm 1.2)",
            32,
            1.0 / 16.0,
            AdversarySpec::RandomMatchingsFlip,
            factory(|seed| NonAdaptiveAllToAll {
                copies: 7,
                seed,
                ..Default::default()
            }),
        ),
        (
            "det-sqrt (Thm 1.5)",
            64,
            0.5 / 8.0,
            AdversarySpec::GreedyFlip,
            factory(|_| DetSqrt::default()),
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
                    protocol: protocol.clone(),
                    protocol_key: label,
                    adversary,
                    topology: TopologySpec::Complete,
                    n,
                    b: 1,
                    bandwidth: factor * LAMBDA,
                    alpha,
                    trials,
                    present,
                    trace: false,
                }),
            });
        }
    }
    Scenario {
        name: "bandwidth",
        title: "S.BANDWIDTH  rounds vs B in {lambda, 2lambda, 4lambda}, lambda = 9 bits".into(),
        headers: vec![
            "protocol",
            "n",
            "B/lambda",
            "B",
            "rounds",
            "perfect",
            "errors",
            "bits/trial",
        ],
        cells,
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
    fn present(_job: &TrialJob, agg: &Aggregate) -> Vec<(&'static str, Value)> {
        vec![
            ("rounds", Value::opt_f1(agg.mean_rounds)),
            ("perfect", Value::rate(agg.perfect, agg.completed)),
            ("errors", Value::u(agg.total_errors)),
            ("corrupted/trial", Value::opt_f1(agg.mean_corrupted)),
            ("infeasible", Value::u(agg.infeasible)),
        ]
    }
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
            factory(|_| DetHypercube::default()),
            TopologySpec::Hypercube,
            AdversarySpec::None,
            0.0,
        ),
        // Fault-free baselines on the expander.
        (
            "naive",
            factory(|_| NaiveExchange),
            expander,
            AdversarySpec::None,
            0.0,
        ),
        (
            "relay(x3)",
            factory(|_| RelayReplication { copies: 3 }),
            expander,
            AdversarySpec::None,
            0.0,
        ),
        // The sparse-only attacks.
        (
            "naive",
            factory(|_| NaiveExchange),
            expander,
            eclipse,
            alpha_camp,
        ),
        (
            "relay(x3)",
            factory(|_| RelayReplication { copies: 3 }),
            expander,
            eclipse,
            alpha_camp,
        ),
        (
            "naive",
            factory(|_| NaiveExchange),
            expander,
            partition,
            alpha_camp,
        ),
        // Clique-only protocol: the super-message router needs every node
        // as a relay, so it reports Infeasible (not an error) off K_n.
        (
            "nonadaptive",
            factory(|seed| NonAdaptiveAllToAll {
                copies: 7,
                seed,
                ..Default::default()
            }),
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
                protocol,
                protocol_key: label,
                adversary,
                topology,
                n,
                b: 2,
                bandwidth: BANDWIDTH,
                alpha,
                trials,
                present,
                trace: false,
            }),
        })
        .collect();
    Scenario {
        name: "topologies",
        title: "S.TOPO  beyond the clique: sparse graphs, degree-relative budgets, n = 32".into(),
        headers: vec![
            "topology",
            "protocol",
            "adversary",
            "rounds",
            "perfect",
            "errors",
            "corrupted/trial",
            "infeasible",
        ],
        cells,
    }
}

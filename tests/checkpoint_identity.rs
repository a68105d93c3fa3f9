//! Crash-injection identity tests for the checkpoint/resume subsystem.
//!
//! The contract under test: `snapshot_run` taken between two session steps,
//! followed by dropping **all** process state (network, session) and
//! `restore_run` from the bytes alone, yields an execution
//! bit-identical to the uninterrupted one — same output payloads (FNV-1a),
//! same round count, same `NetStats`, the same per-round `RoundTrace` from
//! the crash round on, and the same final adversary state. Additionally,
//! taking a snapshot must not perturb the run it was taken from, and
//! re-snapshotting a freshly restored run must reproduce the original bytes
//! exactly.

use bdclique::core::driver::{Driver, RoundBudget, RoundObserver, RoundTrace};
use bdclique::core::protocols::{
    AdaptiveAllToAll, AdaptiveTakeOne, AllToAllProtocol, DetHypercube, DetSqrt, NaiveExchange,
    NonAdaptiveAllToAll, RelayReplication, Step,
};
use bdclique::core::routing::{RouterConfig, RoutingMode};
use bdclique::core::{restore_run, snapshot_run, AllToAllInstance, AllToAllOutput, CoreError};
use bdclique::netsim::{Adversary, Network};
use bdclique_bench::{AdversarySpec, TrialSeeds, TrialSpec};

/// One checkpointed execution: protocol × network × adversary × seed.
struct Case {
    label: &'static str,
    proto: Box<dyn AllToAllProtocol>,
    n: usize,
    b: usize,
    bandwidth: usize,
    alpha: f64,
    spec: AdversarySpec,
    seed: u64,
    /// Virtual-clock rounds at which to inject the crash (0 = before the
    /// first step). Rounds past the protocol's cost are skipped.
    crash_at: &'static [u64],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "naive/greedy",
            proto: Box::new(NaiveExchange),
            n: 16,
            b: 3,
            bandwidth: 4, // 1-bit slices => multi-round, so mid-run crashes exist
            alpha: 0.07,
            spec: AdversarySpec::GreedyFlip,
            seed: 11,
            crash_at: &[0, 1, 2],
        },
        Case {
            label: "relay-x3/rotating",
            proto: Box::new(RelayReplication { copies: 3 }),
            n: 10,
            b: 2,
            bandwidth: 9,
            alpha: 1.0 / 8.0,
            spec: AdversarySpec::RotatingMatchingFlip,
            seed: 21,
            crash_at: &[0, 1, 3, 5], // odd rounds land mid-copy (Hop2 pending)
        },
        Case {
            label: "nonadaptive/matchings",
            proto: Box::new(NonAdaptiveAllToAll {
                copies: 5,
                seed: 0xabc1,
                ..Default::default()
            }),
            n: 16,
            b: 2,
            bandwidth: 18,
            alpha: 1.0 / 16.0,
            spec: AdversarySpec::RandomMatchingsFlip,
            seed: 31,
            crash_at: &[0, 2, 5, 8],
        },
        Case {
            label: "take1/greedy",
            proto: Box::new(AdaptiveTakeOne {
                line_capacity: 1,
                lines: 3,
                seed: 0xabc2,
                ..Default::default()
            }),
            n: 16,
            b: 1,
            bandwidth: 18,
            alpha: 0.07,
            spec: AdversarySpec::GreedyFlip,
            seed: 41,
            crash_at: &[0, 1, 4, 9, 16], // scatter, broadcast, and fetch phases
        },
        Case {
            label: "take2-direct/rushing",
            proto: Box::new(AdaptiveAllToAll {
                query_via_ldc: false,
                seed: 0xabc4,
                ..Default::default()
            }),
            n: 16,
            b: 1,
            bandwidth: 18,
            alpha: 0.07,
            spec: AdversarySpec::RushingRandom,
            seed: 52,
            crash_at: &[0, 1, 40, 170],
        },
        Case {
            label: "hypercube/greedy",
            proto: Box::new(DetHypercube::default()),
            n: 16,
            b: 2,
            bandwidth: 9,
            alpha: 0.07,
            spec: AdversarySpec::GreedyFlip,
            seed: 61,
            crash_at: &[0, 1, 7, 15],
        },
        Case {
            label: "det-sqrt/victim",
            proto: Box::new(DetSqrt::default()),
            n: 16,
            b: 2,
            bandwidth: 9,
            alpha: 0.07,
            spec: AdversarySpec::TargetNodeFlip(3),
            seed: 71,
            crash_at: &[0, 1, 7, 15],
        },
        // The unit engine forced (Auto never picks it for a wave this
        // small): crashes land both between packs and mid-pack, with the
        // relay grid in the snapshot.
        Case {
            label: "det-sqrt/unit",
            proto: Box::new(DetSqrt::new(RouterConfig {
                mode: RoutingMode::Unit,
            })),
            n: 16,
            b: 2,
            bandwidth: 9,
            alpha: 0.07,
            spec: AdversarySpec::TargetNodeFlip(3),
            seed: 72,
            crash_at: &[0, 1, 5, 9, 13],
        },
    ]
}

fn setup(case: &Case) -> (AllToAllInstance, Network) {
    TrialSpec::clique(case.n, case.b, case.bandwidth, case.alpha, case.spec)
        .build(TrialSeeds::derive(case.seed))
}

fn fresh_adversary(case: &Case) -> Adversary {
    case.spec.build(TrialSeeds::derive(case.seed).adversary)
}

/// FNV-1a over every delivered payload (presence flag + bits), row-major.
fn fnv_output(out: &AllToAllOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u64| {
        h ^= byte;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for v in 0..out.n() {
        for u in 0..out.n() {
            match out.received(v, u) {
                None => eat(2),
                Some(bits) => {
                    eat(1);
                    eat(bits.len() as u64);
                    for i in 0..bits.len() {
                        eat(bits.get(i) as u64);
                    }
                }
            }
        }
    }
    h
}

/// One round as a [`RoundTrace`] saw it: (frames sent, bits sent, edges
/// corrupted, frames corrupted).
type RoundSig = (u64, u64, u64, u64);

/// Runs an open session to completion through the [`Driver`], returning
/// the output and every round's signature.
fn run_traced(
    session: &mut dyn bdclique::core::protocols::ProtocolSession,
    net: &mut Network,
) -> (AllToAllOutput, Vec<RoundSig>) {
    let mut trace = RoundTrace::new();
    let mut observers: [&mut dyn RoundObserver; 1] = [&mut trace];
    let out = Driver::with_observers(&mut observers)
        .run_session(session, net)
        .expect("running to completion");
    let sig = trace
        .frames
        .iter()
        .map(|f| {
            let s = &f.stats;
            (
                s.frames_sent,
                s.bits_sent,
                s.edges_corrupted,
                s.frames_corrupted,
            )
        })
        .collect();
    (out, sig)
}

/// The adversary's dynamic state (RNG cursors, learned load maps), taken
/// by detaching it from the network.
fn adversary_state(net: &mut Network) -> Vec<u8> {
    net.set_adversary(Adversary::none()).save_state()
}

/// Steps the session until the virtual clock reaches `target` rounds.
/// Returns `false` when the session finished first (crash point unused).
fn step_to_round(
    session: &mut dyn bdclique::core::protocols::ProtocolSession,
    net: &mut Network,
    target: u64,
) -> bool {
    while net.rounds() < target {
        match session.step(net).expect("stepping to crash point") {
            Step::Running => {}
            Step::Done(_) => return false,
        }
    }
    true
}

fn run_to_done(
    session: &mut dyn bdclique::core::protocols::ProtocolSession,
    net: &mut Network,
) -> AllToAllOutput {
    loop {
        if let Step::Done(out) = session.step(net).expect("running to completion") {
            return out;
        }
    }
}

/// For every protocol and crash point: snapshot → drop everything →
/// restore → run to completion ≡ the uninterrupted run, bit for bit. The
/// interrupted-but-continued run must match too (snapshots don't perturb),
/// and re-snapshotting the restored pair must reproduce the bytes.
#[test]
fn resumed_runs_are_bit_identical_for_all_protocols() {
    for case in cases() {
        // Uninterrupted reference.
        let (inst, mut net_ref) = setup(&case);
        let mut session = case.proto.session(&net_ref, &inst).unwrap();
        let (out_ref, trace_ref) = run_traced(session.as_mut(), &mut net_ref);
        drop(session);
        let fnv_ref = fnv_output(&out_ref);
        let adversary_ref = adversary_state(&mut net_ref);

        for &crash in case.crash_at {
            if crash >= net_ref.rounds() {
                continue;
            }
            let (inst_c, mut net) = setup(&case);
            let mut session = case.proto.session(&net, &inst_c).unwrap();
            assert!(
                step_to_round(session.as_mut(), &mut net, crash),
                "{} finished before crash round {crash}",
                case.label
            );
            let bytes = snapshot_run(&net, session.as_ref())
                .unwrap_or_else(|e| panic!("{} snapshot at {crash}: {e}", case.label));

            // The run the snapshot was taken from continues unperturbed.
            let out_cont = run_to_done(session.as_mut(), &mut net);
            drop(session);
            assert_eq!(
                fnv_output(&out_cont),
                fnv_ref,
                "{} at {crash}: snapshotting perturbed the live run",
                case.label
            );
            assert_eq!(net.rounds(), net_ref.rounds(), "{} at {crash}", case.label);

            // Crash: nothing survives but the bytes. Restore and finish.
            drop(net);
            let (mut net2, mut session2) =
                restore_run(&bytes, fresh_adversary(&case), case.proto.as_ref(), &inst_c)
                    .unwrap_or_else(|e| panic!("{} restore at {crash}: {e}", case.label));
            assert_eq!(net2.rounds(), crash, "{} at {crash}: clock", case.label);

            // Snapshot of the restored pair reproduces the bytes exactly.
            let bytes2 = snapshot_run(&net2, session2.as_ref()).unwrap();
            assert_eq!(
                bytes, bytes2,
                "{} at {crash}: re-snapshot is not byte-identical",
                case.label
            );

            let (out_res, trace_res) = run_traced(session2.as_mut(), &mut net2);
            drop(session2);
            assert_eq!(
                fnv_output(&out_res),
                fnv_ref,
                "{} at {crash}: resumed payloads diverged",
                case.label
            );
            assert_eq!(
                inst.count_errors(&out_res),
                inst.count_errors(&out_ref),
                "{} at {crash}: error count diverged",
                case.label
            );
            assert_eq!(
                net2.rounds(),
                net_ref.rounds(),
                "{} at {crash}: round count diverged",
                case.label
            );
            assert_eq!(
                net2.stats(),
                net_ref.stats(),
                "{} at {crash}: NetStats diverged",
                case.label
            );
            assert_eq!(
                trace_res,
                trace_ref[crash as usize..],
                "{} at {crash}: per-round trace diverged",
                case.label
            );
            assert_eq!(
                adversary_state(&mut net2),
                adversary_ref,
                "{} at {crash}: adversary state diverged",
                case.label
            );
        }
    }
}

/// The paper path of Take II (LDC-encoded sketch storage) runs for
/// thousands of rounds, so running resumed executions to completion is out
/// of tier-1 budget. Instead: snapshot at a crash point, advance the live
/// run and the restored run the same number of rounds, and compare their
/// re-snapshots byte for byte. Equal full-state snapshots at the same
/// virtual clock prove the trajectories are identical without finishing
/// the run — and the crash points land in the scatter, R3-broadcast, and
/// fetch phases the cheap cases cannot reach.
#[test]
fn take2_ldc_crash_window_is_divergence_free() {
    let case = Case {
        label: "take2-ldc/greedy",
        proto: Box::new(AdaptiveAllToAll {
            line_capacity: 1,
            seed: 0xabc3,
            ..Default::default()
        }),
        n: 16,
        b: 1,
        bandwidth: 18,
        alpha: 0.07,
        spec: AdversarySpec::GreedyFlip,
        seed: 51,
        crash_at: &[3, 60, 300],
    };
    const WINDOW: u64 = 8;
    for &crash in case.crash_at {
        let (inst, mut net) = setup(&case);
        let mut session = case.proto.session(&net, &inst).unwrap();
        assert!(
            step_to_round(session.as_mut(), &mut net, crash),
            "finished before crash round {crash}"
        );
        let bytes = snapshot_run(&net, session.as_ref()).unwrap();

        // Advance the live run WINDOW rounds past the crash point.
        assert!(step_to_round(session.as_mut(), &mut net, crash + WINDOW));
        let bytes_live = snapshot_run(&net, session.as_ref()).unwrap();
        drop(session);
        drop(net);

        // Crash, restore, advance the same window.
        let (mut net2, mut session2) =
            restore_run(&bytes, fresh_adversary(&case), case.proto.as_ref(), &inst).unwrap();
        assert!(step_to_round(session2.as_mut(), &mut net2, crash + WINDOW));
        let bytes_res = snapshot_run(&net2, session2.as_ref()).unwrap();
        assert_eq!(
            bytes_live, bytes_res,
            "trajectories diverged within {WINDOW} rounds of the crash at {crash}"
        );
    }
}

/// A restored session driven under a `RoundBudget` aborts exactly at the
/// cap (session-relative), with no partial exchange — budgets compose with
/// resume.
#[test]
fn round_budget_composes_with_restore() {
    let all = cases();
    let case = all.iter().find(|c| c.label == "det-sqrt/victim").unwrap();
    let (inst, mut net) = setup(case);
    let mut session = case.proto.session(&net, &inst).unwrap();
    assert!(step_to_round(session.as_mut(), &mut net, 7));
    let bytes = snapshot_run(&net, session.as_ref()).unwrap();
    drop(session);
    drop(net);

    for cap in [0u64, 1, 3] {
        let (mut net2, mut session2) =
            restore_run(&bytes, fresh_adversary(case), case.proto.as_ref(), &inst).unwrap();
        let mut budget = RoundBudget::new(cap);
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut budget];
        let err = Driver::with_observers(&mut observers)
            .run_session(session2.as_mut(), &mut net2)
            .unwrap_err();
        assert!(matches!(err, CoreError::Aborted { .. }), "cap {cap}: {err}");
        assert_eq!(net2.rounds(), 7 + cap, "no partial exchange past the cap");
    }

    // With enough budget the resumed run completes and matches the
    // uninterrupted oracle.
    let (inst_ref, mut net_ref) = setup(case);
    let out_ref = case.proto.run(&mut net_ref, &inst_ref).unwrap();
    let (mut net2, mut session2) =
        restore_run(&bytes, fresh_adversary(case), case.proto.as_ref(), &inst).unwrap();
    let mut budget = RoundBudget::new(net_ref.rounds());
    let mut observers: [&mut dyn RoundObserver; 1] = [&mut budget];
    let out = Driver::with_observers(&mut observers)
        .run_session(session2.as_mut(), &mut net2)
        .unwrap();
    assert_eq!(fnv_output(&out), fnv_output(&out_ref));
    assert_eq!(net2.rounds(), net_ref.rounds());
}

/// Truncating or bit-flipping a snapshot yields a decode error, never a
/// panic or a silently wrong session.
#[test]
fn corrupt_snapshots_are_rejected() {
    let all = cases();
    let case = all.iter().find(|c| c.label == "det-sqrt/victim").unwrap();
    let (inst, mut net) = setup(case);
    let mut session = case.proto.session(&net, &inst).unwrap();
    assert!(step_to_round(session.as_mut(), &mut net, 5));
    let bytes = snapshot_run(&net, session.as_ref()).unwrap();
    drop(session);

    // Truncations at the header, early, middle, and one-byte-short.
    for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            restore_run(
                &bytes[..cut],
                fresh_adversary(case),
                case.proto.as_ref(),
                &inst
            )
            .is_err(),
            "truncation at {cut} must fail"
        );
    }
    // A corrupted magic/version header.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(restore_run(&bad, fresh_adversary(case), case.proto.as_ref(), &inst).is_err());
    // Trailing garbage.
    let mut long = bytes.clone();
    long.push(0);
    assert!(restore_run(&long, fresh_adversary(case), case.proto.as_ref(), &inst).is_err());
}

/// A det-hypercube state row announcing the wrong bit length is refused at
/// restore (not by a slice panic iterations later), and so is a document of
/// any earlier format version.
#[test]
fn hypercube_state_row_length_and_format_version_are_validated() {
    let all = cases();
    let case = all.iter().find(|c| c.label == "hypercube/greedy").unwrap();
    let (inst, mut net) = setup(case);
    let mut session = case.proto.session(&net, &inst).unwrap();
    assert!(step_to_round(session.as_mut(), &mut net, 3));
    let bytes = snapshot_run(&net, session.as_ref()).unwrap();
    assert!(restore_run(&bytes, fresh_adversary(case), case.proto.as_ref(), &inst).is_ok());

    // The session section closes the document: the iteration (u64), then
    // per node a bit length (u64) and the packed bits.
    let mut section = bdclique_snapshot::Enc::new();
    session.snapshot(&mut section).unwrap();
    let row_len_at = bytes.len() - section.bytes().len() + 8;
    let row_bits = (case.n * case.b) as u64;
    assert_eq!(bytes[row_len_at..row_len_at + 8], row_bits.to_le_bytes());
    // One bit short keeps the byte count, so only the length check can
    // catch it; a whole byte short or long shifts everything after it.
    for wrong in [row_bits - 1, row_bits - 8, row_bits + 8] {
        let mut bad = bytes.clone();
        bad[row_len_at..row_len_at + 8].copy_from_slice(&wrong.to_le_bytes());
        let err = restore_run(&bad, fresh_adversary(case), case.proto.as_ref(), &inst)
            .err()
            .unwrap_or_else(|| panic!("row of {wrong} bits must be refused"));
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    // Versions 1 (per-message rows), 2 (two chunk-store encodings, relay
    // grids carrying their own offsets), 3 (traffic `auto` byte, topology
    // edge caps) and 4 (the network's history section) are refused by the
    // header check.
    assert_eq!(bytes[4..6], bdclique_snapshot::VERSION.to_le_bytes());
    for old in [1u16, 2, 3, 4] {
        let mut doc = bytes.clone();
        doc[4..6].copy_from_slice(&old.to_le_bytes());
        let err = restore_run(&doc, fresh_adversary(case), case.proto.as_ref(), &inst)
            .err()
            .unwrap_or_else(|| panic!("a version-{old} document must be refused"));
        assert!(err.to_string().contains(&format!("version {old}")), "{err}");
    }
}

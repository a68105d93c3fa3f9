//! Large-`n` smoke tests for the sparse traffic substrate.
//!
//! The sparse [`bdclique_netsim::Traffic`] store is what makes these
//! sizes reachable at all: the old dense representation allocated and
//! touched `n² ≈ 16.7M` `Option<BitVec>` slots *per round* at `n = 4096`.
//!
//! The routed trial is compiled into every `cargo test` run but executes
//! only in release builds (`cargo test --release -q -p bdclique-core --test
//! large_n`, the CI large-n smoke step) — debug-mode Reed–Solomon is an
//! order of magnitude slower and would drag the tier-1 gate.

use bdclique_bits::BitVec;
use bdclique_core::routing::{route, EngineUsed, RouterConfig, RoutingInstance, SuperMessage};
use bdclique_netsim::{Adversary, Network, Traffic};

/// Sparse exchange at n = 4096: one frame per node must cost O(n), not
/// O(n²) — fast enough for debug builds precisely because nothing dense is
/// ever materialized.
#[test]
fn sparse_exchange_n4096_never_densifies() {
    let n = 4096;
    let mut net = Network::new(n, 16, 0.0, Adversary::none());
    let mut traffic = net.traffic();
    for u in 0..n {
        traffic.send(u, (u + 1) % n, BitVec::from_fn(16, |i| (i + u) % 3 == 0));
    }
    // Still sparse: the whole ring fits in well under a megabyte; the dense
    // grid alone would be ~46 MB of bits at this bandwidth.
    assert!(traffic.store_bytes() < 1 << 20, "{}", traffic.store_bytes());
    let delivery = net.exchange(traffic);
    for u in 0..n {
        let v = (u + 1) % n;
        assert_eq!(
            delivery.received(v, u),
            Some(BitVec::from_fn(16, |i| (i + u) % 3 == 0))
        );
        assert_eq!(delivery.inbox_of(v).count(), 1);
    }
    net.reclaim(delivery);
    // Ten more rounds reuse the arena-pooled tables.
    for _ in 0..10 {
        let mut t = net.traffic();
        t.send(0, 1, BitVec::from_bools(&[true]));
        let d = net.exchange(t);
        net.reclaim(d);
    }
    assert_eq!(net.rounds(), 11);
}

/// The dense auto-switch still works at scale without being quadratic in
/// wall time for sparse loads: 1% load factor stays sparse.
#[test]
fn one_percent_load_stays_sparse_at_n2048() {
    let n = 2048;
    let mut traffic = Traffic::new(n, 8);
    // 1% of n² ≈ 41.9k frames < n²/16: must remain sparse.
    let frames = n * n / 100;
    let mut sent = 0usize;
    'outer: for u in 0..n {
        for k in 1..n {
            traffic.send(u, (u + k) % n, BitVec::from_bools(&[true; 8]));
            sent += 1;
            if sent == frames {
                break 'outer;
            }
        }
    }
    // A densified store holds at least n² slots.
    let dense_floor = n * n * std::mem::size_of::<Option<BitVec>>();
    assert!(
        traffic.store_bytes() < dense_floor / 8,
        "{}",
        traffic.store_bytes()
    );
    assert_eq!(traffic.frame_count(), frames as u64);
}

/// A √n-wave-shaped unit-engine instance at n = 4096: k = 8 messages per
/// node with segment-local targets — the conflict structure of a DetSqrt
/// wave, scaled to smoke size. Exercises the stage-parallel scheduler,
/// per-pack encode/decode fan-out, and arena-recycled frames at full
/// network width; release-only like its cover-free sibling below. The full
/// k = 64 waves run in the `alpha-largen` CI step under its wall-clock
/// budget.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only large-n smoke (CI runs: cargo test --release -p bdclique-core --test large_n)"
)]
fn unit_engine_wave_n4096_completes() {
    use bdclique_core::routing::{RouterConfig, RoutingMode};
    let n = 4096;
    let k = 8;
    let payload_bits = 64;
    let instance = RoutingInstance {
        n,
        payload_bits,
        messages: (0..n)
            .flat_map(|u| (0..k).map(move |j| (u, j)))
            .map(|(u, j)| SuperMessage {
                src: u,
                slot: j,
                payload: BitVec::from_fn(payload_bits, |i| (u * 13 + j * 5 + i) % 7 < 3),
                targets: vec![(u / k) * k + j],
            })
            .collect(),
    };
    let mut net = Network::new(n, 18, 0.0, Adversary::none());
    let cfg = RouterConfig {
        mode: RoutingMode::Unit,
    };
    let out = route(&mut net, &instance, &cfg).unwrap();
    assert_eq!(out.report.engine, EngineUsed::Unit);
    assert_eq!(out.report.decode_failures, 0);
    assert!(
        out.report.stages < 2 * k,
        "{} stages exceed the greedy bound for per-endpoint degree {k}",
        out.report.stages
    );
    for msg in &instance.messages {
        assert_eq!(
            out.delivered[msg.targets[0]].get(&(msg.src, msg.slot)),
            Some(&msg.payload),
            "message ({}, {}) lost",
            msg.src,
            msg.slot
        );
    }
}

/// The unit engine at full `n = 65536` network width: a k = 2 wave with
/// segment-local targets. A complete det-sqrt trial at this width would
/// need ~4.3 × 10⁹ instance messages (the ROADMAP's open
/// per-pack-checkpointing item), so the smoke pins what one routed wave
/// must survive at this scale — plan construction, per-pack encode and
/// decode, and arena traffic. `#[ignore]`d even in release; CI runs it
/// explicitly (`-- --ignored`) in the large-n smoke step.
#[test]
#[ignore = "release-gated in CI: minutes at n = 65536"]
fn unit_wave_n65536_completes() {
    use bdclique_core::routing::RoutingMode;
    let n = 65536;
    let k = 2;
    let payload_bits = 64;
    let instance = RoutingInstance {
        n,
        payload_bits,
        messages: (0..n)
            .flat_map(|u| (0..k).map(move |j| (u, j)))
            .map(|(u, j)| SuperMessage {
                src: u,
                slot: j,
                payload: BitVec::from_fn(payload_bits, |i| (u * 13 + j * 5 + i) % 7 < 3),
                targets: vec![(u / k) * k + j],
            })
            .collect(),
    };
    let mut net = Network::new(n, 18, 0.0, Adversary::none());
    let cfg = RouterConfig {
        mode: RoutingMode::Unit,
    };
    let out = route(&mut net, &instance, &cfg).unwrap();
    assert_eq!(out.report.engine, EngineUsed::Unit);
    assert_eq!(out.report.decode_failures, 0);
    for msg in &instance.messages {
        assert_eq!(
            out.delivered[msg.targets[0]].get(&(msg.src, msg.slot)),
            Some(&msg.payload),
            "message ({}, {}) lost",
            msg.src,
            msg.slot
        );
    }
}

/// A full resilient routed trial at n = 4096 — every node routes one
/// super-message through the cover-free engine over the sparse substrate.
/// Release-only (see module docs); the CI smoke step is its timing gate.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only large-n smoke (CI runs: cargo test --release -p bdclique-core --test large_n)"
)]
fn routed_trial_n4096_completes() {
    let n = 4096;
    let payload_bits = 64;
    let instance = RoutingInstance {
        n,
        payload_bits,
        messages: (0..n)
            .map(|u| SuperMessage {
                src: u,
                slot: 0,
                payload: BitVec::from_fn(payload_bits, |i| (u * 31 + i * 7) % 11 < 4),
                targets: vec![(u + n / 2 + 1) % n],
            })
            .collect(),
    };
    let mut net = Network::new(n, 9, 0.0, Adversary::none());
    let out = route(&mut net, &instance, &RouterConfig::default()).unwrap();
    assert_eq!(out.report.engine, EngineUsed::CoverFree);
    assert_eq!(out.report.decode_failures, 0);
    for msg in &instance.messages {
        assert_eq!(
            out.delivered[msg.targets[0]].get(&(msg.src, 0)),
            Some(&msg.payload),
            "message from {} lost",
            msg.src
        );
    }
}

//! Per-layer probes: public layer functions timed on inputs shaped like the
//! workloads, so each layer has a micro-benchmark that predicts its share
//! of a trial.
//!
//! Every timed probe runs for at least [`MIN_SECONDS`] and at least
//! [`MIN_BATCHES`] batches and reports the median batch, per unit of work.
//! The shapes are printed beside the numbers.

use crate::decor::ACT;
use crate::trace::Trace;
use crate::workload::{adversary, Attack, BANDWIDTH};
use bdclique_bits::BitVec;
use bdclique_codes::{Gf, ReedSolomon, SymbolCode};
use bdclique_core::routing::{route, RouterConfig, RoutingInstance, SuperMessage};
use bdclique_netsim::{Adversary, Network, SeedStream, Traffic};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Shortest time a timed probe runs.
pub const MIN_SECONDS: f64 = 0.5;
/// Fewest batches a timed probe reports the median of.
pub const MIN_BATCHES: usize = 11;

/// Clique size of the network probes — the workloads' `n`.
const N: usize = 1024;
/// Reed–Solomon codeword length of the workloads' codes.
const CODEWORD: usize = 255;
/// Message length at fault budget 0 (the `sqrt-clean` code).
const K_CLEAN: usize = 253;
/// Message length at fault budget 8 (the `sqrt-greedy` code).
const K_GREEDY: usize = 237;
/// Symbols damaged in the erasure and error decode probes.
const DAMAGED: usize = 9;
/// Frame size of the compilers' routed rounds: wire bits per frame sent.
const ROUTED_FRAME_BITS: usize = 18;
/// Each node's fan-out in the sparse round, a 1/32 load.
const SPARSE_FANOUT: usize = N / 32;

/// One probe result.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Metric name; `metrics::PER_LAYER` has its unit.
    pub name: &'static str,
    /// Median over the batches (or the single reading).
    pub value: f64,
    /// Input shape and batch count, for the printed report.
    pub shape: String,
}

/// Files `readings` that share one input shape.
fn record(out: &mut Vec<Probe>, shape: &str, readings: &[(&'static str, f64)]) {
    out.extend(readings.iter().map(|&(name, value)| Probe {
        name,
        value,
        shape: shape.to_string(),
    }));
}

/// Runs `batch` until both minimums are met; each call returns the units
/// of work it did. Returns the median nanoseconds per unit and the number
/// of batches.
fn measure(mut batch: impl FnMut() -> u64) -> (f64, usize) {
    let mut per_unit = Vec::new();
    let start = Instant::now();
    while per_unit.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < MIN_SECONDS {
        let t = Instant::now();
        let units = batch();
        per_unit.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    (crate::stats::median(&per_unit), per_unit.len())
}

fn random_symbols(rng: &mut ChaCha8Rng, len: usize) -> Vec<u16> {
    (0..len).map(|_| rng.gen_range(0..256u32) as u16).collect()
}

/// GF(2^8) kernels, RS encode/decode and bit packing.
fn codes(rng: &mut ChaCha8Rng, out: &mut Vec<Probe>) {
    let gf = Gf::new(8);
    let src = random_symbols(rng, CODEWORD);
    let mut dst = random_symbols(rng, CODEWORD);
    let (ns, batches) = measure(|| {
        const CALLS: u64 = 4096;
        for c in 0..CALLS {
            gf.axpy(black_box(&mut dst), (c % 255 + 1) as u16, black_box(&src));
        }
        CALLS * CODEWORD as u64
    });
    out.push(Probe {
        name: "codes.gf_axpy_ns_per_elem",
        value: ns,
        shape: format!("GF(2^8) axpy over {CODEWORD} elements, {batches} batches of 4096 calls"),
    });

    const WORDS: usize = 128;
    let clean = ReedSolomon::new(8, CODEWORD, K_CLEAN).expect("RS(8; 255, 253)");
    let messages: Vec<Vec<u16>> = (0..WORDS).map(|_| random_symbols(rng, K_CLEAN)).collect();
    let (ns, batches) = measure(|| {
        for m in &messages {
            black_box(clean.encode(black_box(m)).expect("well-formed message"));
        }
        (WORDS * CODEWORD) as u64
    });
    out.push(Probe {
        name: "codes.rs_encode_ns_per_sym",
        value: ns,
        shape: format!("RS(8; {CODEWORD}, {K_CLEAN}) encode, {batches} batches of {WORDS} words"),
    });

    let greedy = ReedSolomon::new(8, CODEWORD, K_GREEDY).expect("RS(8; 255, 237)");
    let messages: Vec<Vec<u16>> = (0..WORDS).map(|_| random_symbols(rng, K_GREEDY)).collect();
    let words: Vec<Vec<u16>> = messages
        .iter()
        .map(|m| greedy.encode(m).expect("well-formed message"))
        .collect();
    // Damage the same positions in both damaged variants, spread evenly.
    let damaged: Vec<usize> = (0..DAMAGED).map(|i| i * CODEWORD / DAMAGED).collect();
    let mut flags = vec![false; CODEWORD];
    let mut flipped = words.clone();
    for &p in &damaged {
        flags[p] = true;
        for w in &mut flipped {
            w[p] ^= 0xff;
        }
    }
    let none = vec![false; CODEWORD];
    let mut decode = |name: &'static str, what: &str, received: &[Vec<u16>], erasures: &[bool]| {
        let (ns, batches) = measure(|| {
            for (word, message) in received.iter().zip(&messages) {
                let decoded = greedy
                    .decode(black_box(word), erasures)
                    .expect("within the decoding radius");
                assert_eq!(&decoded, message, "{name}: wrong decode");
            }
            (WORDS * CODEWORD) as u64
        });
        out.push(Probe {
            name,
            value: ns,
            shape: format!(
                "RS(8; {CODEWORD}, {K_GREEDY}) decode, {what}, {batches} batches of {WORDS} words"
            ),
        });
    };
    decode(
        "codes.rs_decode_clean_ns_per_sym",
        "undamaged",
        &words,
        &none,
    );
    decode(
        "codes.rs_decode_erasure_ns_per_sym",
        "9 erasures",
        &flipped,
        &flags,
    );
    decode(
        "codes.rs_decode_error_ns_per_sym",
        "9 flipped symbols",
        &flipped,
        &none,
    );

    // The packing `encode_bits`/`decode_bits` do around the code proper.
    let payloads: Vec<BitVec> = (0..WORDS)
        .map(|_| BitVec::from_fn(K_CLEAN * 8, |_| rng.gen()))
        .collect();
    let (ns, batches) = measure(|| {
        for bits in &payloads {
            let symbols = black_box(bits).read_uints(0, 8, K_CLEAN);
            let mut back = BitVec::new();
            back.push_uints(8, black_box(&symbols));
            black_box(back);
        }
        (WORDS * K_CLEAN) as u64
    });
    out.push(Probe {
        name: "bits.pack_ns_per_sym",
        value: ns,
        shape: format!(
            "unpack {K_CLEAN} 8-bit symbols and pack them back, {batches} batches of {WORDS} payloads"
        ),
    });
}

/// Queues one round: every node sends `frame` to `fanout` peers.
fn fill(fanout: usize, frame: &BitVec) -> Traffic {
    let mut traffic = Traffic::new(N, BANDWIDTH);
    let stride = (N - 1) / fanout;
    for u in 0..N {
        for j in 0..fanout {
            traffic.send(u, (u + 1 + j * stride) % N, frame.clone());
        }
    }
    traffic
}

/// Fill, exchange and inbox walk of one round shape on a fault-free
/// network; returns median nanoseconds per frame for each, and the frame
/// store's bytes per frame.
fn round_shape(fanout: usize, frame_bits: usize) -> ([f64; 3], f64, usize) {
    let frame = BitVec::zeros(frame_bits);
    let frames = (N * fanout) as f64;
    let mut net = Network::new(N, BANDWIDTH, 0.0, Adversary::none());
    let (mut fills, mut exchanges, mut walks) = (Vec::new(), Vec::new(), Vec::new());
    let mut store_bytes = 0;
    let start = Instant::now();
    while fills.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < MIN_SECONDS {
        let t = Instant::now();
        let traffic = fill(fanout, &frame);
        fills.push(t.elapsed().as_nanos() as f64 / frames);
        store_bytes = traffic.store_bytes();

        let t = Instant::now();
        let delivery = net.try_exchange(traffic).expect("fault-free round");
        exchanges.push(t.elapsed().as_nanos() as f64 / frames);

        let t = Instant::now();
        let mut seen = 0usize;
        for v in 0..N {
            for (_, bits) in delivery.inbox_of(v) {
                seen += bits.len();
            }
        }
        walks.push(t.elapsed().as_nanos() as f64 / frames);
        assert_eq!(seen, N * fanout * frame_bits, "probe round lost frames");
        net.reclaim(delivery);
    }
    let median = crate::stats::median;
    (
        [median(&fills), median(&exchanges), median(&walks)],
        store_bytes as f64 / frames,
        fills.len(),
    )
}

/// Dense and sparse round shapes through `Traffic` and `Network`.
fn netsim(out: &mut Vec<Probe>) {
    let ([fill_ns, exchange_ns, walk_ns], bytes, batches) = round_shape(N - 1, 1);
    let shape = format!("n = {N} full load, 1-bit frames, no adversary, {batches} rounds");
    record(
        out,
        &shape,
        &[
            ("netsim.traffic_fill_ns_per_frame", fill_ns),
            ("netsim.exchange_dense_ns_per_frame", exchange_ns),
            ("netsim.inbox_walk_ns_per_frame", walk_ns),
            ("netsim.store_bytes_per_frame_dense", bytes),
        ],
    );
    let ([_, exchange_ns, _], bytes, batches) = round_shape(SPARSE_FANOUT, ROUTED_FRAME_BITS);
    let shape = format!(
        "n = {N} at 1/32 load, {ROUTED_FRAME_BITS}-bit frames, no adversary, {batches} rounds"
    );
    record(
        out,
        &shape,
        &[
            ("netsim.exchange_sparse_ns_per_frame", exchange_ns),
            ("netsim.store_bytes_per_frame_sparse", bytes),
        ],
    );
}

/// The decorated adversary's time per round on the dense probe round.
fn adversary_round(attack: Attack, alpha: f64, seeds: &SeedStream) -> (f64, usize) {
    let trace = Trace::new();
    let trial = trace.begin_trial();
    let mut net = Network::new(N, BANDWIDTH, alpha, adversary(attack, seeds, Some(&trace)));
    let frame = BitVec::zeros(1);
    let mut rounds = 0;
    let start = Instant::now();
    while rounds < MIN_BATCHES || start.elapsed().as_secs_f64() < MIN_SECONDS {
        let delivery = net
            .try_exchange(fill(N - 1, &frame))
            .expect("adversary within its budget");
        net.reclaim(delivery);
        rounds += 1;
    }
    // A non-adaptive adversary acts twice a round (plan, then corruptor).
    let act_us: f64 = trace.durations(trial, ACT, 1e6).iter().sum();
    (act_us / rounds as f64, rounds)
}

fn adversaries(seeds: &SeedStream, out: &mut Vec<Probe>) {
    for (name, attack, budget) in [
        (
            "adversary.matchings_us_per_round",
            Attack::MatchingsFlip,
            4.2,
        ),
        ("adversary.greedy_us_per_round", Attack::GreedyFlip, 8.2),
    ] {
        let (us, rounds) = adversary_round(attack, budget / N as f64, &seeds.fork(name));
        out.push(Probe {
            name,
            value: us,
            shape: format!(
                "n = {N} full load, 1-bit frames, budget {}, mean of {rounds} rounds",
                budget as usize
            ),
        });
    }
}

/// `routing::route` on a fault-free instance shaped like det-sqrt's first
/// wave: every node holds √n super-messages of √n bits, one target each.
fn routing(rng: &mut ChaCha8Rng, seeds: &SeedStream, out: &mut Vec<Probe>) -> Result<(), String> {
    let s = 32;
    let instance = RoutingInstance {
        n: N,
        payload_bits: s,
        messages: (0..N)
            .flat_map(|v| (0..s).map(move |j| (v, j)))
            .map(|(v, j)| SuperMessage {
                src: v,
                slot: j,
                payload: BitVec::from_fn(s, |_| rng.gen()),
                targets: vec![(v / s) * s + j],
            })
            .collect(),
    };
    // A budget-0 plan behind the timing decorator: it corrupts nothing,
    // and its first call marks the first exchange.
    let trace = Trace::new();
    let trial = trace.begin_trial();
    let quiet = adversary(Attack::MatchingsFlip, seeds, Some(&trace));
    let mut net = Network::new(N, BANDWIDTH, 0.0, quiet);
    let route_span = trace.enter("core.routing.route");
    let routed = route(&mut net, &instance, &RouterConfig::default());
    trace.exit(route_span);
    let routed = routed.map_err(|e| format!("routing probe: {e}"))?;

    let spans = trace.spans();
    let first_exchange = spans
        .iter()
        .find(|s| s.trial == trial && s.name == ACT)
        .ok_or("routing probe: no exchange ran")?;
    let wrong = instance
        .messages
        .iter()
        .filter(|m| routed.delivered[m.targets[0]].get(&(m.src, m.slot)) != Some(&m.payload))
        .count();
    if wrong > 0 {
        return Err(format!("routing probe: {wrong} payloads wrong or missing"));
    }
    let shape = format!(
        "route() of {} super-messages of {s} bits, n = {N}, one target each, fault-free, one run",
        instance.messages.len()
    );
    record(
        out,
        &shape,
        &[
            ("core.routing.route_s", spans[route_span].secs()),
            (
                "core.routing.session_open_ms",
                (first_exchange.start_ns - spans[route_span].start_ns) as f64 / 1e6,
            ),
            ("core.routing.route_rounds", routed.report.rounds as f64),
            (
                "core.routing.decode_failures",
                routed.report.decode_failures as f64,
            ),
        ],
    );
    Ok(())
}

/// Runs every probe. Inputs derive from `seed`.
///
/// # Errors
///
/// A message when the routing probe fails to deliver.
pub fn run(seed: u64) -> Result<Vec<Probe>, String> {
    let seeds = SeedStream::new(seed).fork("probes");
    let mut rng = ChaCha8Rng::seed_from_u64(seeds.fork("inputs").seed());
    let mut out = Vec::new();
    codes(&mut rng, &mut out);
    netsim(&mut out);
    adversaries(&seeds, &mut out);
    routing(&mut rng, &seeds.fork("routing"), &mut out)?;
    Ok(out)
}

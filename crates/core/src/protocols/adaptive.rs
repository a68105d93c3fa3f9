//! Theorem 1.3 / 5.5: randomized `AllToAllComm` against the **adaptive**
//! (rushing) α-BD adversary, via locally decodable codes and sparse recovery
//! sketches.
//!
//! Two variants, following the paper's Section 3 exposition:
//!
//! * [`AdaptiveTakeOne`] ("Take I", `O(q)` rounds): every node LDC-encodes
//!   its whole outgoing row `M(u, V)`, scatters one codeword symbol per
//!   node, and every receiver locally decodes its own positions from `q`
//!   non-adaptive queries fetched through the resilient router.
//! * [`AdaptiveAllToAll`] ("Take II", Theorem 1.3): the full pipeline —
//!   direct exchange, random partition `P` (Lemma 5.6), per-(group, node)
//!   sparse recovery sketches (Lemma 2.4), LDC-encoded distributed sketch
//!   storage, non-adaptive query fetch, and local correction. The
//!   `query_via_ldc` switch replaces the LDC fetch with a direct resilient
//!   sketch pull — the ablation that quantifies when the LDC machinery pays
//!   (it requires `αn ≫ 1/α`; at `n = 16`, budget 1, the LDC path costs
//!   9056 rounds against 181 for the direct pull — the goldens in
//!   `tests/session_regression.rs`).
//!
//! **Ordering matters**: codewords are scattered *before* the decoding
//! randomness `R3` is generated and broadcast, so the rushing adversary
//! commits its corruption of the distributed storage without knowing which
//! positions will be queried — exactly the paper's Step II/III order.

use super::naive::NaiveSession;
use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::broadcast::BroadcastSession;
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::routing::{RouteSession, RouterConfig, RoutingInstance, RoutingOutput, SuperMessage};
use bdclique_bits::{bits_for, BitVec};
use bdclique_codes::{Ldc, RmLdc};
use bdclique_hash::{KWiseHashFamily, SharedRandomness};
use bdclique_netsim::Network;
use bdclique_sketch::{RecoverySketch, SketchShape};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Serializes a ChaCha8 generator mid-stream (key + block counter + intra-
/// block cursor), so a restored session continues the exact draw sequence.
fn snapshot_rng(rng: &ChaCha8Rng, enc: &mut Enc) {
    let (key, counter, idx) = rng.position();
    for w in key {
        enc.put_u32(w);
    }
    enc.put_u64(counter);
    enc.put_usize(idx);
}

fn restore_rng(dec: &mut Dec<'_>) -> Result<ChaCha8Rng, SnapError> {
    let mut key = [0u32; 8];
    for w in &mut key {
        *w = dec.get_u32()?;
    }
    let counter = dec.get_u64()?;
    let idx = dec.get_usize()?;
    if idx > 16 {
        return Err(SnapError::corrupt("rng block cursor out of range"));
    }
    Ok(ChaCha8Rng::from_position(key, counter, idx))
}

/// Serializes an `n`-row table of per-node bit strings (broadcast outputs).
fn snapshot_bits_table(rows: &[BitVec], enc: &mut Enc) {
    enc.put_seq(rows, Enc::put_bits);
}

fn restore_bits_table(n: usize, dec: &mut Dec<'_>) -> Result<Vec<BitVec>, CoreError> {
    let rows = dec.get_seq(1, Dec::get_bits).map_err(CoreError::from)?;
    if rows.len() != n {
        return Err(CoreError::invalid("snapshot bit table size mismatch"));
    }
    Ok(rows)
}

/// Serializes scattered symbols (`[receiver][holder][chunk]`, rectangular)
/// flat; the dimensions are re-derived from the plan at restore and only
/// checked here.
fn snapshot_symbols(symbols: &[Vec<Vec<u16>>], enc: &mut Enc) {
    enc.put_usize(symbols.len());
    enc.put_usize(symbols.first().and_then(|r| r.first()).map_or(0, Vec::len));
    for row in symbols {
        for per_holder in row {
            for &sym in per_holder {
                enc.put_u16(sym);
            }
        }
    }
}

fn restore_symbols(
    n: usize,
    chunks: usize,
    dec: &mut Dec<'_>,
) -> Result<Vec<Vec<Vec<u16>>>, CoreError> {
    let stored_n = dec.get_usize().map_err(CoreError::from)?;
    let stored_chunks = dec.get_usize().map_err(CoreError::from)?;
    if stored_n != n || stored_chunks != chunks {
        return Err(CoreError::invalid("snapshot symbol table shape mismatch"));
    }
    let mut symbols = vec![vec![vec![0u16; chunks]; n]; n];
    for row in &mut symbols {
        for per_holder in row.iter_mut() {
            for sym in per_holder.iter_mut() {
                *sym = dec.get_u16().map_err(CoreError::from)?;
            }
        }
    }
    Ok(symbols)
}

/// Serializes the per-node query sets (`wanted[v]` = `(chunk, position)`
/// pairs).
fn snapshot_wanted(wanted: &[Vec<(usize, usize)>], enc: &mut Enc) {
    for pairs in wanted {
        enc.put_seq(pairs, |e, &(c, r)| {
            e.put_usize(c);
            e.put_usize(r);
        });
    }
}

fn restore_wanted(n: usize, dec: &mut Dec<'_>) -> Result<Vec<Vec<(usize, usize)>>, CoreError> {
    (0..n)
        .map(|_| {
            dec.get_seq(2, |d| Ok((d.get_usize()?, d.get_usize()?)))
                .map_err(CoreError::from)
        })
        .collect()
}

/// Per-node fetched query answers: `(chunk, position) → holder-indexed
/// symbol bundle`.
type QueryAnswers = BTreeMap<(usize, usize), BitVec>;

/// LDC geometry shared by both variants.
struct LdcPlan {
    ldc: RmLdc,
    /// Symbol width in bits (= field extension degree).
    mf: u32,
    /// Payload bits per codeword.
    cap_bits: usize,
}

impl LdcPlan {
    /// Picks the largest bivariate RM code whose plane fits in `n` nodes and
    /// whose lines keep at least `line_capacity` error slots.
    fn for_network(n: usize, lines: usize, line_capacity: usize) -> Result<Self, CoreError> {
        let mf = (bits_for(n) / 2).min(8);
        if mf < 2 {
            return Err(CoreError::infeasible(format!(
                "n = {n} too small for a bivariate RM plane (need n ≥ 16)"
            )));
        }
        let q = 1usize << mf;
        debug_assert!(q * q <= n.next_power_of_two().max(q * q));
        if q * q > n {
            return Err(CoreError::infeasible(format!(
                "RM plane q² = {} exceeds n = {n}",
                q * q
            )));
        }
        let d = q
            .checked_sub(1 + 2 * line_capacity)
            .filter(|&d| d >= 1)
            .ok_or_else(|| {
                CoreError::infeasible(format!(
                    "field size {q} cannot offer line capacity {line_capacity}"
                ))
            })?;
        let ldc =
            RmLdc::new(mf, d, lines).map_err(|e| CoreError::infeasible(format!("RM LDC: {e}")))?;
        let cap_bits = ldc.message_len() * mf as usize;
        Ok(Self { ldc, mf, cap_bits })
    }

    /// Bit position → (chunk, symbol index, bit within symbol).
    fn locate(&self, bit: usize) -> (usize, usize, usize) {
        let chunk = bit / self.cap_bits;
        let inner = bit % self.cap_bits;
        (chunk, inner / self.mf as usize, inner % self.mf as usize)
    }
}

/// Scatters per-holder chunked LDC codewords: one symbol per node per
/// chunk, `lanes` chunks per exchange — one exchange per
/// [`ScatterSession::step`]. Produces `symbols[receiver][holder][chunk]`.
///
/// Holders with fewer chunks than `chunks` pad with zero codewords.
struct ScatterSession {
    mf: u32,
    /// Codeword positions `q² ≤ n`.
    positions: usize,
    lanes: usize,
    chunks: usize,
    n: usize,
    codewords: Vec<Vec<Vec<u16>>>,
    symbols: Vec<Vec<Vec<u16>>>,
    /// First chunk of the next pack.
    chunk_start: usize,
}

impl ScatterSession {
    fn new(
        net: &Network,
        plan: &LdcPlan,
        payloads: &[BitVec], // per holder, padded to chunks * cap_bits
        chunks: usize,
    ) -> Result<Self, CoreError> {
        let n = net.n();
        let mf = plan.mf;
        // Pre-encode all codewords.
        let mut codewords: Vec<Vec<Vec<u16>>> = Vec::with_capacity(n);
        for payload in payloads {
            let mut per_chunk = Vec::with_capacity(chunks);
            for c in 0..chunks {
                let chunk_bits = payload.slice(c * plan.cap_bits, (c + 1) * plan.cap_bits);
                let msg = chunk_bits.to_symbols(mf);
                let cw = plan
                    .ldc
                    .encode(&msg)
                    .map_err(|e| CoreError::invalid(format!("LDC encode: {e}")))?;
                per_chunk.push(cw);
            }
            codewords.push(per_chunk);
        }
        Ok(Self {
            mf,
            positions: plan.ldc.codeword_len(), // q² ≤ n
            lanes: (net.bandwidth() / mf as usize).max(1),
            chunks,
            n,
            codewords,
            symbols: vec![vec![vec![0u16; chunks]; n]; n],
            chunk_start: 0,
        })
    }

    /// Serializes the scatter mid-flight. Codewords are written out rather
    /// than re-encoded at restore: Take II's payloads derive from wave-A
    /// deliveries that no longer exist by the time a restore runs.
    fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.chunks);
        enc.put_usize(self.chunk_start);
        for per_chunk in &self.codewords {
            for cw in per_chunk {
                for &sym in cw {
                    enc.put_u16(sym);
                }
            }
        }
        for row in &self.symbols {
            for per_holder in row {
                for &sym in per_holder {
                    enc.put_u16(sym);
                }
            }
        }
    }

    /// Rebuilds a scatter serialized by [`ScatterSession::snapshot`].
    /// Geometry (`mf`, `positions`, `lanes`) is re-derived from the network
    /// and plan; `expected_chunks` pins the chunk count the caller derives
    /// from its payload width.
    fn restore(
        net: &Network,
        plan: &LdcPlan,
        expected_chunks: usize,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let n = net.n();
        let positions = plan.ldc.codeword_len();
        let chunks = dec.get_usize().map_err(CoreError::from)?;
        if chunks != expected_chunks {
            return Err(CoreError::invalid("scatter snapshot chunk count mismatch"));
        }
        let chunk_start = dec.get_usize().map_err(CoreError::from)?;
        if chunk_start >= chunks {
            return Err(CoreError::invalid("scatter snapshot cursor out of range"));
        }
        let mut codewords = vec![vec![vec![0u16; positions]; chunks]; n];
        for per_chunk in &mut codewords {
            for cw in per_chunk.iter_mut() {
                for sym in cw.iter_mut() {
                    *sym = dec.get_u16().map_err(CoreError::from)?;
                }
            }
        }
        let mut symbols = vec![vec![vec![0u16; chunks]; n]; n];
        for row in &mut symbols {
            for per_holder in row.iter_mut() {
                for sym in per_holder.iter_mut() {
                    *sym = dec.get_u16().map_err(CoreError::from)?;
                }
            }
        }
        Ok(Self {
            mf: plan.mf,
            positions,
            lanes: (net.bandwidth() / plan.mf as usize).max(1),
            chunks,
            n,
            codewords,
            symbols,
            chunk_start,
        })
    }

    /// One exchange; `Some(symbols)` when the final pack lands.
    fn step(&mut self, net: &mut Network) -> Result<Option<Vec<Vec<Vec<u16>>>>, CoreError> {
        let (n, mf, positions) = (self.n, self.mf, self.positions);
        if self.chunk_start >= self.chunks {
            return Ok(Some(std::mem::take(&mut self.symbols)));
        }
        let pack: Vec<usize> =
            (self.chunk_start..self.chunks.min(self.chunk_start + self.lanes)).collect();
        let mut traffic = net.traffic();
        for h in 0..n {
            for r in 0..positions.min(n) {
                if r == h {
                    continue;
                }
                let mut frame = BitVec::zeros(pack.len() * mf as usize);
                for (lane, &c) in pack.iter().enumerate() {
                    frame.write_uint(lane * mf as usize, mf, self.codewords[h][c][r] as u64);
                }
                traffic.send(h, r, frame);
            }
            // Own position held locally.
            if h < positions {
                for &c in &pack {
                    self.symbols[h][h][c] = self.codewords[h][c][h];
                }
            }
        }
        let delivery = net.exchange(traffic);
        for r in 0..positions.min(n) {
            for (h, frame) in delivery.inbox_of(r) {
                for (lane, &c) in pack.iter().enumerate() {
                    if frame.len() >= (lane + 1) * mf as usize {
                        self.symbols[r][h][c] = frame.read_uint(lane * mf as usize, mf) as u16;
                    }
                }
            }
        }
        net.reclaim(delivery);
        self.chunk_start += pack.len();
        if self.chunk_start >= self.chunks {
            return Ok(Some(std::mem::take(&mut self.symbols)));
        }
        Ok(None)
    }
}

/// Builds the query-fetch routing instance: `wanted[v]` = set of
/// `(chunk, position)` pairs node `v` must learn for **all** holders.
///
/// Messages are emitted in ascending `(position, chunk)` order. The
/// pre-session code collected them by iterating a `HashMap`, whose
/// per-process random iteration order leaked into the unit engine's greedy
/// stage coloring — making the LDC-fetch protocols' round counts vary
/// *across processes* for identical seeds. The `BTreeMap` pins the
/// canonical order (and with it cross-process reproducibility); clippy's
/// `disallowed_types` ban on hash containers keeps it that way.
fn fetch_instance(
    n: usize,
    plan: &LdcPlan,
    symbols: &[Vec<Vec<u16>>],
    wanted: &[Vec<(usize, usize)>],
) -> RoutingInstance {
    let mf = plan.mf as usize;
    // targets_of[(position r, chunk c)] -> target nodes.
    let mut targets_of: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (v, pairs) in wanted.iter().enumerate() {
        for &(c, r) in pairs {
            targets_of.entry((r, c)).or_default().push(v);
        }
    }
    let mut messages = Vec::with_capacity(targets_of.len());
    for ((r, c), mut targets) in targets_of {
        targets.sort_unstable();
        targets.dedup();
        let mut payload = BitVec::zeros(n * mf);
        for h in 0..n {
            payload.write_uint(h * mf, plan.mf, symbols[r][h][c] as u64);
        }
        messages.push(SuperMessage {
            src: r,
            slot: c,
            payload,
            targets,
        });
    }
    RoutingInstance {
        n,
        payload_bits: n * mf,
        messages,
    }
}

/// Extracts per-node fetched answers from a finished query-fetch routing:
/// `answers[v]` maps `(chunk, position)` to the `n·mf`-bit holder-indexed
/// symbol bundle.
fn collect_answers(
    n: usize,
    routed: &RoutingOutput,
    wanted: &[Vec<(usize, usize)>],
) -> Vec<QueryAnswers> {
    let mut answers: Vec<QueryAnswers> = vec![BTreeMap::new(); n];
    for (v, pairs) in wanted.iter().enumerate() {
        for &(c, r) in pairs {
            if let Some(p) = routed.delivered[v].get(&(r, c)) {
                answers[v].insert((c, r), p.clone());
            }
        }
    }
    answers
}

/// Locally decodes one symbol: gathers the per-line answers for `z` from the
/// fetched bundles (selecting holder `h`'s lane) and runs `LDCDecode`.
fn local_decode_symbol(
    plan: &LdcPlan,
    shared: &SharedRandomness,
    answers: &QueryAnswers,
    chunk: usize,
    z: usize,
    holder: usize,
) -> Option<u16> {
    let mf = plan.mf as usize;
    let qs = plan.ldc.decode_indices(z, shared);
    let vals: Vec<u16> = qs
        .iter()
        .map(|&r| {
            answers
                .get(&(chunk, r))
                .filter(|p| p.len() >= (holder + 1) * mf)
                .map_or(0, |p| p.read_uint(holder * mf, plan.mf) as u16)
        })
        .collect();
    plan.ldc.local_decode(z, &vals, shared).ok()
}

// ---------------------------------------------------------------------------
// Take I
// ---------------------------------------------------------------------------

/// "Take I" (Section 3): LDC over the raw outgoing rows, `O(q)` rounds.
#[derive(Debug, Clone)]
pub struct AdaptiveTakeOne {
    /// Router configuration for the query fetch.
    pub router: RouterConfig,
    /// LDC amplification lines.
    pub lines: usize,
    /// Guaranteed per-line adversarial error capacity.
    pub line_capacity: usize,
    /// Seed for node `v1`'s randomness.
    pub seed: u64,
}

impl Default for AdaptiveTakeOne {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            lines: 3,
            line_capacity: 2,
            seed: 0x5eed2,
        }
    }
}

/// Execution phases of Take I.
enum Take1Phase {
    /// Scattering the row codewords (before R3 exists).
    Scatter(ScatterSession),
    /// Broadcasting R3 (now the adversary may see it).
    BroadcastR3 {
        symbols: Vec<Vec<Vec<u16>>>,
        bcast: BroadcastSession,
    },
    /// Fetching the query answers through the resilient router.
    Fetch {
        r3_received: Vec<BitVec>,
        wanted: Vec<Vec<(usize, usize)>>,
        route: RouteSession<'static>,
    },
}

/// Take I as a state machine.
struct Take1Session<'a> {
    proto: &'a AdaptiveTakeOne,
    inst: &'a AllToAllInstance,
    n: usize,
    b: usize,
    plan: LdcPlan,
    phase: Take1Phase,
}

impl<'a> Take1Session<'a> {
    fn new(
        proto: &'a AdaptiveTakeOne,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let b = inst.b();
        let plan = LdcPlan::for_network(n, proto.lines, proto.line_capacity)?;
        if net.bandwidth() < plan.mf as usize {
            return Err(CoreError::infeasible("bandwidth below LDC symbol width"));
        }
        let row_bits = n * b;
        let chunks = row_bits.div_ceil(plan.cap_bits).max(1);

        // ---- Scatter codewords of every row (before R3 exists). ----
        let payloads: Vec<BitVec> = (0..n)
            .map(|u| {
                let mut p = inst.outgoing_concat(u);
                p.pad_to(chunks * plan.cap_bits);
                p
            })
            .collect();
        let scatter = ScatterSession::new(net, &plan, &payloads, chunks)?;
        Ok(Self {
            proto,
            inst,
            n,
            b,
            plan,
            phase: Take1Phase::Scatter(scatter),
        })
    }

    /// Rebuilds a session from a snapshot. Bypasses `new` so restores of
    /// post-scatter phases skip the (expensive, discarded) row re-encoding;
    /// the LDC plan itself is deterministic and re-derived.
    fn restore(
        proto: &'a AdaptiveTakeOne,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let b = inst.b();
        let plan = LdcPlan::for_network(n, proto.lines, proto.line_capacity)?;
        if net.bandwidth() < plan.mf as usize {
            return Err(CoreError::infeasible("bandwidth below LDC symbol width"));
        }
        let chunks = (n * b).div_ceil(plan.cap_bits).max(1);
        let phase = match dec.get_u8().map_err(CoreError::from)? {
            0 => Take1Phase::Scatter(ScatterSession::restore(net, &plan, chunks, dec)?),
            1 => Take1Phase::BroadcastR3 {
                symbols: restore_symbols(n, chunks, dec)?,
                bcast: BroadcastSession::restore(net, dec)?,
            },
            2 => Take1Phase::Fetch {
                r3_received: restore_bits_table(n, dec)?,
                wanted: restore_wanted(n, dec)?,
                route: RouteSession::restore(net, None, dec)?,
            },
            _ => return Err(CoreError::invalid("unknown take1 phase tag")),
        };
        Ok(Self {
            proto,
            inst,
            n,
            b,
            plan,
            phase,
        })
    }

    /// ---- Local decoding. ----
    fn finish(&self, r3_received: &[BitVec], answers: &[QueryAnswers]) -> AllToAllOutput {
        let (n, b) = (self.n, self.b);
        let plan = &self.plan;
        let mut out = AllToAllOutput::empty(n, b);
        for v in 0..n {
            let shared = SharedRandomness::from_bits(&r3_received[v]);
            // Decode each needed symbol once per holder.
            let mut decoded: BTreeMap<(usize, usize, usize), Option<u16>> = BTreeMap::new();
            for u in 0..n {
                if u == v {
                    out.set(v, u, self.inst.message(u, u));
                    continue;
                }
                let mut bits = BitVec::zeros(b);
                let mut ok = true;
                for t in 0..b {
                    let (c, z, inner) = plan.locate(v * b + t);
                    let sym = *decoded.entry((u, c, z)).or_insert_with(|| {
                        local_decode_symbol(plan, &shared, &answers[v], c, z, u)
                    });
                    match sym {
                        Some(s) => bits.set(t, s >> inner & 1 == 1),
                        None => ok = false,
                    }
                }
                if ok {
                    out.set(v, u, bits);
                }
            }
        }
        out
    }
}

impl ProtocolSession for Take1Session<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        let (n, b) = (self.n, self.b);
        match &mut self.phase {
            Take1Phase::Scatter(scatter) => {
                let Some(symbols) = scatter.step(net)? else {
                    return Ok(Step::Running);
                };
                // ---- Broadcast R3 (now the adversary may see it). ----
                let mut v1_rng = ChaCha8Rng::seed_from_u64(self.proto.seed);
                let r3_bits = SharedRandomness::generate(&mut v1_rng);
                net.publish("adaptive1/R3", r3_bits.clone());
                let bcast = BroadcastSession::new(net, 0, &r3_bits, &self.proto.router)?;
                self.phase = Take1Phase::BroadcastR3 { symbols, bcast };
                Ok(Step::Running)
            }
            Take1Phase::BroadcastR3 { symbols, bcast } => {
                let Some(r3_received) = bcast.step(net)? else {
                    return Ok(Step::Running);
                };
                // ---- Query sets: v needs bits [v·b, (v+1)·b) of every
                // row. ----
                let plan = &self.plan;
                let mut wanted: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
                for v in 0..n {
                    let shared = SharedRandomness::from_bits(&r3_received[v]);
                    let mut pairs = Vec::new();
                    for t in 0..b {
                        let (c, z, _) = plan.locate(v * b + t);
                        if !pairs.contains(&(c, z)) {
                            pairs.push((c, z));
                        }
                    }
                    for &(c, z) in &pairs {
                        for r in plan.ldc.decode_indices(z, &shared) {
                            if !wanted[v].contains(&(c, r)) {
                                wanted[v].push((c, r));
                            }
                        }
                    }
                }
                let instance = fetch_instance(n, plan, symbols, &wanted);
                let route = RouteSession::new(net, instance, &self.proto.router, None)?;
                self.phase = Take1Phase::Fetch {
                    r3_received,
                    wanted,
                    route,
                };
                Ok(Step::Running)
            }
            Take1Phase::Fetch {
                r3_received,
                wanted,
                route,
            } => {
                let Some(routed) = route.step(net)? else {
                    return Ok(Step::Running);
                };
                let answers = collect_answers(n, &routed, wanted);
                let r3_received = std::mem::take(r3_received);
                Ok(Step::Done(self.finish(&r3_received, &answers)))
            }
        }
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        match &self.phase {
            Take1Phase::Scatter(scatter) => {
                enc.put_u8(0);
                scatter.snapshot(enc);
            }
            Take1Phase::BroadcastR3 { symbols, bcast } => {
                enc.put_u8(1);
                snapshot_symbols(symbols, enc);
                bcast.snapshot(enc);
            }
            Take1Phase::Fetch {
                r3_received,
                wanted,
                route,
            } => {
                enc.put_u8(2);
                snapshot_bits_table(r3_received, enc);
                snapshot_wanted(wanted, enc);
                route.snapshot(enc);
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for AdaptiveTakeOne {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!(
            "adaptive-take1(lines={},cap={})",
            self.lines, self.line_capacity
        ))
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(Take1Session::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(Take1Session::restore(self, net, inst, dec)?))
    }
}

// ---------------------------------------------------------------------------
// Take II
// ---------------------------------------------------------------------------

/// The full adaptive compiler (Theorem 1.3, "Take II").
#[derive(Debug, Clone)]
pub struct AdaptiveAllToAll {
    /// Router configuration for all routed waves.
    pub router: RouterConfig,
    /// `1/α` — the size of each random part `P_j` (must divide `n`).
    pub p_size: usize,
    /// Sparse-recovery capacity per `(P_j, v)` sketch (Lemma 5.6 gives
    /// `O(log n)` w.h.p.; the default suits workspace scale).
    pub sketch_capacity: usize,
    /// LDC amplification lines.
    pub lines: usize,
    /// Guaranteed per-line adversarial error capacity.
    pub line_capacity: usize,
    /// `true` = fetch sketches through the LDC storage (the paper);
    /// `false` = pull sketches directly through the router (ablation).
    pub query_via_ldc: bool,
    /// Seed for node `v1`'s randomness.
    pub seed: u64,
}

impl Default for AdaptiveAllToAll {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            p_size: 4,
            sketch_capacity: 4,
            lines: 3,
            line_capacity: 2,
            query_via_ldc: true,
            seed: 0x5eed3,
        }
    }
}

impl AdaptiveAllToAll {
    fn sketch_key(n: usize, b: usize, u: usize, v: usize, m: &BitVec) -> u64 {
        let id = (u * n + v) as u64;
        (id << b) | m.read_uint(0, b as u32)
    }

    fn key_bits(n: usize, b: usize) -> u32 {
        2 * bits_for(n) + b as u32
    }

    /// The random partition `P` of Lemma 5.6: order nodes by a Θ(log n)-wise
    /// independent hash (ties by id), cut into `n / p_size` consecutive
    /// parts, sort each part ascending.
    fn partition(shared: &SharedRandomness, n: usize, p_size: usize) -> Vec<Vec<usize>> {
        let family = KWiseHashFamily::new(16, (4 * n) as u64);
        let f = family.sample(&mut shared.rng("partition"));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&u| (f.hash(u as u64), u));
        order
            .chunks(p_size)
            .map(|part| {
                let mut part: Vec<usize> = part.to_vec();
                part.sort_unstable();
                part
            })
            .collect()
    }
}

/// State shared by every post-wave-A phase of Take II.
struct Take2Common {
    /// Step I's directly received messages.
    received: AllToAllOutput,
    /// R2 as decoded by each node (sketch hashes).
    r2_received: Vec<BitVec>,
    /// The random partition `P` (Lemma 5.6).
    parts: Vec<Vec<usize>>,
}

/// Serializes the random partition `P`.
fn snapshot_parts(parts: &[Vec<usize>], enc: &mut Enc) {
    enc.put_seq(parts, |e, part| e.put_seq(part, |e, &u| e.put_usize(u)));
}

/// Restores `P`, enforcing its invariant: `n / p_size` parts of `p_size`
/// ascending node ids that together cover `0..n` exactly once.
fn restore_parts(n: usize, p_size: usize, dec: &mut Dec<'_>) -> Result<Vec<Vec<usize>>, CoreError> {
    let parts = dec
        .get_seq(1, |d| d.get_seq(1, Dec::get_usize))
        .map_err(CoreError::from)?;
    let mut seen = vec![false; n];
    if parts.len() != n / p_size {
        return Err(CoreError::invalid("snapshot partition count mismatch"));
    }
    for part in &parts {
        if part.len() != p_size {
            return Err(CoreError::invalid("snapshot partition part size mismatch"));
        }
        for &u in part {
            if u >= n || std::mem::replace(&mut seen[u], true) {
                return Err(CoreError::invalid(
                    "snapshot partition is not a partition of V",
                ));
            }
        }
    }
    Ok(parts)
}

impl Take2Common {
    fn snapshot(&self, enc: &mut Enc) {
        self.received.snapshot(enc);
        snapshot_bits_table(&self.r2_received, enc);
        snapshot_parts(&self.parts, enc);
    }

    fn restore(n: usize, b: usize, p_size: usize, dec: &mut Dec<'_>) -> Result<Self, CoreError> {
        let received = AllToAllOutput::restore(dec, b).map_err(CoreError::from)?;
        if received.n() != n {
            return Err(CoreError::invalid("snapshot received-table size mismatch"));
        }
        Ok(Self {
            received,
            r2_received: restore_bits_table(n, dec)?,
            parts: restore_parts(n, p_size, dec)?,
        })
    }
}

/// Execution phases of Take II.
enum Take2Phase<'a> {
    /// Left behind while a step owns the real phase; observed only if a
    /// failed session is stepped again.
    Poisoned,
    /// Step I: direct exchange.
    Naive(NaiveSession<'a>),
    /// Broadcasting R1 (partition randomness).
    BroadcastR1 {
        received: AllToAllOutput,
        r2_bits: BitVec,
        bcast: BroadcastSession,
    },
    /// Broadcasting R2 (sketch hashes); `r1_first` is node 0's decoded R1,
    /// which drives the shared partition schedule.
    BroadcastR2 {
        received: AllToAllOutput,
        r1_first: BitVec,
        bcast: BroadcastSession,
    },
    /// Step II(a): wave A — P_j[i] learns M(P_j, S_i).
    WaveA {
        received: AllToAllOutput,
        r2_received: Vec<BitVec>,
        parts: Vec<Vec<usize>>,
        route: RouteSession<'static>,
    },
    /// Step III, paper path: scattering the LDC-encoded sketch pieces.
    Scatter {
        common: Take2Common,
        plan: LdcPlan,
        scatter: ScatterSession,
    },
    /// Step III, paper path: broadcasting R3 (after the scatter — rushing
    /// adversary ordering).
    BroadcastR3 {
        common: Take2Common,
        plan: LdcPlan,
        symbols: Vec<Vec<Vec<u16>>>,
        bcast: BroadcastSession,
    },
    /// Step III, paper path: fetching the query answers.
    Fetch {
        common: Take2Common,
        plan: LdcPlan,
        r3_received: Vec<BitVec>,
        wanted: Vec<Vec<(usize, usize)>>,
        route: RouteSession<'static>,
    },
    /// Step III, ablation path: direct resilient sketch pull.
    Pull {
        common: Take2Common,
        route: RouteSession<'static>,
    },
}

/// Take II as a state machine.
struct Take2Session<'a> {
    proto: &'a AdaptiveAllToAll,
    inst: &'a AllToAllInstance,
    n: usize,
    b: usize,
    /// `|S_i| = αn`; also the number of P-groups.
    w: usize,
    /// Number of S segments.
    s_count: usize,
    p_count: usize,
    shape: SketchShape,
    /// Sketch wire width in bits.
    t: usize,
    /// Node v1's randomness source: R1, R2 are drawn at construction; R3
    /// later, *after* the scatter — so the generator must persist.
    v1_rng: ChaCha8Rng,
    phase: Take2Phase<'a>,
}

impl<'a> Take2Session<'a> {
    fn new(
        proto: &'a AdaptiveAllToAll,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let b = inst.b();
        if b > 16 {
            return Err(CoreError::invalid("sketch keys support B ≤ 16 bits"));
        }
        let p_size = proto.p_size;
        if p_size < 2 || !n.is_multiple_of(p_size) {
            return Err(CoreError::invalid(format!(
                "p_size {p_size} must divide n = {n} (and be ≥ 2)"
            )));
        }
        let w = n / p_size;
        let key_bits = AdaptiveAllToAll::key_bits(n, b);
        let shape = SketchShape::for_capacity(proto.sketch_capacity, key_bits);
        Ok(Self {
            proto,
            inst,
            n,
            b,
            w,
            s_count: p_size,
            p_count: w,
            shape,
            t: shape.bit_len(),
            v1_rng: ChaCha8Rng::seed_from_u64(proto.seed),
            phase: Take2Phase::Naive(NaiveSession::new(net, inst)?),
        })
    }

    fn seg(&self, i: usize) -> std::ops::Range<usize> {
        (i * self.w)..((i + 1) * self.w)
    }

    /// Chunk count of the Step III scatter (paper path).
    fn ldc_chunks(&self, plan: &LdcPlan) -> usize {
        (self.w * self.t).div_ceil(plan.cap_bits).max(1)
    }

    /// Rebuilds a session from a snapshot: geometry re-derives through
    /// `new`, then the persisted generator position and phase overlay the
    /// fresh state.
    fn restore(
        proto: &'a AdaptiveAllToAll,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let mut s = Self::new(proto, net, inst)?;
        let (n, b) = (s.n, s.b);
        s.v1_rng = restore_rng(dec).map_err(CoreError::from)?;
        let plan_for = || LdcPlan::for_network(n, proto.lines, proto.line_capacity);
        s.phase = match dec.get_u8().map_err(CoreError::from)? {
            0 => Take2Phase::Naive(NaiveSession::restore(net, inst, dec)?),
            1 => {
                let received = AllToAllOutput::restore(dec, b).map_err(CoreError::from)?;
                if received.n() != n {
                    return Err(CoreError::invalid("snapshot received-table size mismatch"));
                }
                Take2Phase::BroadcastR1 {
                    received,
                    r2_bits: dec.get_bits().map_err(CoreError::from)?,
                    bcast: BroadcastSession::restore(net, dec)?,
                }
            }
            2 => {
                let received = AllToAllOutput::restore(dec, b).map_err(CoreError::from)?;
                if received.n() != n {
                    return Err(CoreError::invalid("snapshot received-table size mismatch"));
                }
                Take2Phase::BroadcastR2 {
                    received,
                    r1_first: dec.get_bits().map_err(CoreError::from)?,
                    bcast: BroadcastSession::restore(net, dec)?,
                }
            }
            3 => {
                let received = AllToAllOutput::restore(dec, b).map_err(CoreError::from)?;
                if received.n() != n {
                    return Err(CoreError::invalid("snapshot received-table size mismatch"));
                }
                Take2Phase::WaveA {
                    received,
                    r2_received: restore_bits_table(n, dec)?,
                    parts: restore_parts(n, proto.p_size, dec)?,
                    route: RouteSession::restore(net, None, dec)?,
                }
            }
            4 => {
                let common = Take2Common::restore(n, b, proto.p_size, dec)?;
                let plan = plan_for()?;
                let chunks = s.ldc_chunks(&plan);
                Take2Phase::Scatter {
                    common,
                    scatter: ScatterSession::restore(net, &plan, chunks, dec)?,
                    plan,
                }
            }
            5 => {
                let common = Take2Common::restore(n, b, proto.p_size, dec)?;
                let plan = plan_for()?;
                let chunks = s.ldc_chunks(&plan);
                Take2Phase::BroadcastR3 {
                    common,
                    symbols: restore_symbols(n, chunks, dec)?,
                    bcast: BroadcastSession::restore(net, dec)?,
                    plan,
                }
            }
            6 => Take2Phase::Fetch {
                common: Take2Common::restore(n, b, proto.p_size, dec)?,
                plan: plan_for()?,
                r3_received: restore_bits_table(n, dec)?,
                wanted: restore_wanted(n, dec)?,
                route: RouteSession::restore(net, None, dec)?,
            },
            7 => Take2Phase::Pull {
                common: Take2Common::restore(n, b, proto.p_size, dec)?,
                route: RouteSession::restore(net, None, dec)?,
            },
            _ => return Err(CoreError::invalid("unknown take2 phase tag")),
        };
        Ok(s)
    }

    /// ---- Step II(b): build sketches Sk(P_j, {x}) at P_j[i]. ----
    /// `pieces[h] = Sk(P_j, S_i)` for the `(j, i)` with `h = P_j[i]`.
    fn build_pieces(
        &self,
        parts: &[Vec<usize>],
        r2_received: &[BitVec],
        routed_a: &RoutingOutput,
    ) -> Result<Vec<BitVec>, CoreError> {
        let (n, b, t) = (self.n, self.b, self.t);
        let mut pieces: Vec<BitVec> = vec![BitVec::new(); n];
        for part in parts.iter() {
            for (i, &h) in part.iter().enumerate() {
                let shared2 = SharedRandomness::from_bits(&r2_received[h]);
                let mut piece = BitVec::new();
                for (off, x) in self.seg(i).enumerate() {
                    let mut sk = RecoverySketch::new(self.shape, &shared2);
                    for &u in part {
                        let Some(pay) = routed_a.delivered[h].get(&(u, i)) else {
                            continue;
                        };
                        if pay.len() < (off + 1) * b {
                            continue;
                        }
                        let m = pay.slice(off * b, (off + 1) * b);
                        let key = AdaptiveAllToAll::sketch_key(n, b, u, x, &m);
                        sk.add(key, 1)
                            .map_err(|e| CoreError::invalid(format!("sketch add: {e}")))?;
                    }
                    piece.extend_bits(
                        &sk.to_bits()
                            .map_err(|e| CoreError::invalid(format!("sketch wire: {e}")))?,
                    );
                }
                debug_assert_eq!(piece.len(), self.w * t);
                pieces[h] = piece;
            }
        }
        Ok(pieces)
    }

    /// ---- Step IV: local correction (Lemma 2.4 / Lemma B.1). ----
    fn finish(
        &self,
        common: &Take2Common,
        sketch_bits: Vec<Vec<Option<BitVec>>>,
    ) -> AllToAllOutput {
        let (n, b) = (self.n, self.b);
        let mut out = AllToAllOutput::empty(n, b);
        for v in 0..n {
            // Start from the directly received messages.
            let mut current: Vec<BitVec> = (0..n)
                .map(|u| {
                    common
                        .received
                        .received(v, u)
                        .unwrap_or_else(|| BitVec::zeros(b))
                })
                .collect();
            let shared2 = SharedRandomness::from_bits(&common.r2_received[v]);
            for j in 0..self.p_count {
                let Some(bits) = &sketch_bits[v][j] else {
                    continue;
                };
                let Ok(mut sk) = RecoverySketch::from_bits(self.shape, bits, &shared2) else {
                    continue;
                };
                for &u in &common.parts[j] {
                    let key = AdaptiveAllToAll::sketch_key(n, b, u, v, &current[u]);
                    if sk.add(key, -1).is_err() {
                        continue;
                    }
                }
                let Some(items) = sk.recover() else {
                    continue;
                };
                for (key, freq) in items {
                    if freq != 1 {
                        continue; // -1 entries are the corrupted receptions
                    }
                    let id = key >> b;
                    let u = (id / n as u64) as usize;
                    let tgt = (id % n as u64) as usize;
                    if tgt != v || u >= n || !common.parts[j].contains(&u) {
                        continue;
                    }
                    let mut m = BitVec::zeros(b);
                    if b > 0 {
                        m.write_uint(0, b as u32, key & ((1u64 << b) - 1));
                    }
                    current[u] = m;
                }
            }
            for u in 0..n {
                out.set(
                    v,
                    u,
                    if u == v {
                        self.inst.message(u, u)
                    } else {
                        current[u].clone()
                    },
                );
            }
        }
        out
    }
}

impl ProtocolSession for Take2Session<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        let (n, b, w, t) = (self.n, self.b, self.w, self.t);
        // Own the phase for the duration of the step: state moves forward
        // without placeholder values. An error mid-step leaves the session
        // poisoned — stepping a failed session is a caller bug.
        let phase = std::mem::replace(&mut self.phase, Take2Phase::Poisoned);
        match phase {
            Take2Phase::Poisoned => Err(CoreError::invalid(
                "session stepped after a failed or consumed step",
            )),
            Take2Phase::Naive(mut naive) => {
                let received = match naive.step(net)? {
                    Step::Running => {
                        self.phase = Take2Phase::Naive(naive);
                        return Ok(Step::Running);
                    }
                    Step::Done(out) => out,
                };
                // ---- Broadcast R1 (partition) and R2 (sketch hashes). ----
                let r1_bits = SharedRandomness::generate(&mut self.v1_rng);
                let r2_bits = SharedRandomness::generate(&mut self.v1_rng);
                net.publish("adaptive2/R1", r1_bits.clone());
                net.publish("adaptive2/R2", r2_bits.clone());
                let bcast = BroadcastSession::new(net, 0, &r1_bits, &self.proto.router)?;
                self.phase = Take2Phase::BroadcastR1 {
                    received,
                    r2_bits,
                    bcast,
                };
                Ok(Step::Running)
            }
            Take2Phase::BroadcastR1 {
                received,
                r2_bits,
                mut bcast,
            } => {
                let Some(r1_received) = bcast.step(net)? else {
                    self.phase = Take2Phase::BroadcastR1 {
                        received,
                        r2_bits,
                        bcast,
                    };
                    return Ok(Step::Running);
                };
                let bcast = BroadcastSession::new(net, 0, &r2_bits, &self.proto.router)?;
                self.phase = Take2Phase::BroadcastR2 {
                    received,
                    r1_first: r1_received.into_iter().next().expect("n >= 2 nodes"),
                    bcast,
                };
                Ok(Step::Running)
            }
            Take2Phase::BroadcastR2 {
                received,
                r1_first,
                mut bcast,
            } => {
                let Some(r2_received) = bcast.step(net)? else {
                    self.phase = Take2Phase::BroadcastR2 {
                        received,
                        r1_first,
                        bcast,
                    };
                    return Ok(Step::Running);
                };
                // All honest nodes derive the same partition within the
                // routing margin; the reference copy drives the shared
                // schedule.
                let shared1 = SharedRandomness::from_bits(&r1_first);
                let parts = AdaptiveAllToAll::partition(&shared1, n, self.proto.p_size);
                debug_assert_eq!(parts.len(), self.p_count);
                let mut group_of = vec![0usize; n]; // P-group of each node
                for (j, part) in parts.iter().enumerate() {
                    for &u in part.iter() {
                        group_of[u] = j;
                    }
                }
                // ---- Step II(a): wave A — P_j[i] learns M(P_j, S_i). ----
                let inst = self.inst;
                let wave_a = RoutingInstance {
                    n,
                    payload_bits: w * b,
                    messages: (0..n)
                        .flat_map(|v| (0..self.s_count).map(move |i| (v, i)))
                        .map(|(v, i)| SuperMessage {
                            src: v,
                            slot: i,
                            payload: inst.outgoing_segment(v, (i * w)..((i + 1) * w)),
                            targets: vec![parts[group_of[v]][i]],
                        })
                        .collect(),
                };
                let route = RouteSession::new(net, wave_a, &self.proto.router, None)?;
                self.phase = Take2Phase::WaveA {
                    received,
                    r2_received,
                    parts,
                    route,
                };
                Ok(Step::Running)
            }
            Take2Phase::WaveA {
                received,
                r2_received,
                parts,
                mut route,
            } => {
                let Some(routed_a) = route.step(net)? else {
                    self.phase = Take2Phase::WaveA {
                        received,
                        r2_received,
                        parts,
                        route,
                    };
                    return Ok(Step::Running);
                };
                let pieces = self.build_pieces(&parts, &r2_received, &routed_a)?;
                let common = Take2Common {
                    received,
                    r2_received,
                    parts,
                };
                // ---- Step III: every v learns Sk(P_j, {v}) for all j. ----
                if self.proto.query_via_ldc {
                    let plan = LdcPlan::for_network(n, self.proto.lines, self.proto.line_capacity)?;
                    let chunks = (w * t).div_ceil(plan.cap_bits).max(1);
                    let padded: Vec<BitVec> = pieces
                        .iter()
                        .map(|p| {
                            let mut p = p.clone();
                            p.pad_to(chunks * plan.cap_bits);
                            p
                        })
                        .collect();
                    let scatter = ScatterSession::new(net, &plan, &padded, chunks)?;
                    self.phase = Take2Phase::Scatter {
                        common,
                        plan,
                        scatter,
                    };
                } else {
                    // Ablation: direct resilient sketch pull (k = αn
                    // messages per node — outside the paper's LDC regime but
                    // feasible when αn ≈ 1/α).
                    let parts = &common.parts;
                    let pull = RoutingInstance {
                        n,
                        payload_bits: t,
                        messages: (0..self.p_count)
                            .flat_map(|j| (0..self.s_count).map(move |i| (j, i)))
                            .flat_map(|(j, i)| {
                                let h = parts[j][i];
                                ((i * w)..((i + 1) * w))
                                    .enumerate()
                                    .map(|(off, x)| SuperMessage {
                                        src: h,
                                        slot: j * w + off,
                                        payload: pieces[h].slice(off * t, (off + 1) * t),
                                        targets: vec![x],
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect(),
                    };
                    let route = RouteSession::new(net, pull, &self.proto.router, None)?;
                    self.phase = Take2Phase::Pull { common, route };
                }
                Ok(Step::Running)
            }
            Take2Phase::Scatter {
                common,
                plan,
                mut scatter,
            } => {
                let Some(symbols) = scatter.step(net)? else {
                    self.phase = Take2Phase::Scatter {
                        common,
                        plan,
                        scatter,
                    };
                    return Ok(Step::Running);
                };
                // R3 after the scatter (rushing adversary ordering).
                let r3_bits = SharedRandomness::generate(&mut self.v1_rng);
                net.publish("adaptive2/R3", r3_bits.clone());
                let bcast = BroadcastSession::new(net, 0, &r3_bits, &self.proto.router)?;
                self.phase = Take2Phase::BroadcastR3 {
                    common,
                    plan,
                    symbols,
                    bcast,
                };
                Ok(Step::Running)
            }
            Take2Phase::BroadcastR3 {
                common,
                plan,
                symbols,
                mut bcast,
            } => {
                let Some(r3_received) = bcast.step(net)? else {
                    self.phase = Take2Phase::BroadcastR3 {
                        common,
                        plan,
                        symbols,
                        bcast,
                    };
                    return Ok(Step::Running);
                };
                // Positions of v's sketch inside any piece (Eq. (7)): bits
                // [pos_v·t, (pos_v+1)·t) — identical across j.
                let mut wanted: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
                for v in 0..n {
                    let shared3 = SharedRandomness::from_bits(&r3_received[v]);
                    let pos_v = v - (v / w) * w;
                    let mut pairs = Vec::new();
                    for bit in pos_v * t..(pos_v + 1) * t {
                        let (c, z, _) = plan.locate(bit);
                        if !pairs.contains(&(c, z)) {
                            pairs.push((c, z));
                        }
                    }
                    for &(c, z) in &pairs {
                        for r in plan.ldc.decode_indices(z, &shared3) {
                            if !wanted[v].contains(&(c, r)) {
                                wanted[v].push((c, r));
                            }
                        }
                    }
                }
                let instance = fetch_instance(n, &plan, &symbols, &wanted);
                let route = RouteSession::new(net, instance, &self.proto.router, None)?;
                self.phase = Take2Phase::Fetch {
                    common,
                    plan,
                    r3_received,
                    wanted,
                    route,
                };
                Ok(Step::Running)
            }
            Take2Phase::Fetch {
                common,
                plan,
                r3_received,
                wanted,
                mut route,
            } => {
                let Some(routed) = route.step(net)? else {
                    self.phase = Take2Phase::Fetch {
                        common,
                        plan,
                        r3_received,
                        wanted,
                        route,
                    };
                    return Ok(Step::Running);
                };
                let answers = collect_answers(n, &routed, &wanted);
                // Decode sketch_bits[v][j] = the t bits of Sk(P_j, {v}).
                let mut sketch_bits: Vec<Vec<Option<BitVec>>> = vec![vec![None; self.p_count]; n];
                for v in 0..n {
                    let shared3 = SharedRandomness::from_bits(&r3_received[v]);
                    let pos_v = v - (v / w) * w;
                    for j in 0..self.p_count {
                        let holder = common.parts[j][v / w];
                        let mut bits = BitVec::zeros(t);
                        let mut ok = true;
                        let mut cache: BTreeMap<(usize, usize), Option<u16>> = BTreeMap::new();
                        for (offset, bit) in (pos_v * t..(pos_v + 1) * t).enumerate() {
                            let (c, z, inner) = plan.locate(bit);
                            let sym = *cache.entry((c, z)).or_insert_with(|| {
                                local_decode_symbol(&plan, &shared3, &answers[v], c, z, holder)
                            });
                            match sym {
                                Some(s) => bits.set(offset, s >> inner & 1 == 1),
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok {
                            sketch_bits[v][j] = Some(bits);
                        }
                    }
                }
                Ok(Step::Done(self.finish(&common, sketch_bits)))
            }
            Take2Phase::Pull { common, mut route } => {
                let Some(routed) = route.step(net)? else {
                    self.phase = Take2Phase::Pull { common, route };
                    return Ok(Step::Running);
                };
                let mut sketch_bits: Vec<Vec<Option<BitVec>>> = vec![vec![None; self.p_count]; n];
                for v in 0..n {
                    for j in 0..self.p_count {
                        let h = common.parts[j][v / w];
                        let off = v - (v / w) * w;
                        sketch_bits[v][j] = routed.delivered[v].get(&(h, j * w + off)).cloned();
                    }
                }
                Ok(Step::Done(self.finish(&common, sketch_bits)))
            }
        }
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        snapshot_rng(&self.v1_rng, enc);
        match &self.phase {
            Take2Phase::Poisoned => {
                return Err(CoreError::invalid(
                    "cannot snapshot a failed or consumed session",
                ))
            }
            Take2Phase::Naive(naive) => {
                enc.put_u8(0);
                ProtocolSession::snapshot(naive, enc)?;
            }
            Take2Phase::BroadcastR1 {
                received,
                r2_bits,
                bcast,
            } => {
                enc.put_u8(1);
                received.snapshot(enc);
                enc.put_bits(r2_bits);
                bcast.snapshot(enc);
            }
            Take2Phase::BroadcastR2 {
                received,
                r1_first,
                bcast,
            } => {
                enc.put_u8(2);
                received.snapshot(enc);
                enc.put_bits(r1_first);
                bcast.snapshot(enc);
            }
            Take2Phase::WaveA {
                received,
                r2_received,
                parts,
                route,
            } => {
                enc.put_u8(3);
                received.snapshot(enc);
                snapshot_bits_table(r2_received, enc);
                snapshot_parts(parts, enc);
                route.snapshot(enc);
            }
            Take2Phase::Scatter {
                common, scatter, ..
            } => {
                enc.put_u8(4);
                common.snapshot(enc);
                scatter.snapshot(enc);
            }
            Take2Phase::BroadcastR3 {
                common,
                symbols,
                bcast,
                ..
            } => {
                enc.put_u8(5);
                common.snapshot(enc);
                snapshot_symbols(symbols, enc);
                bcast.snapshot(enc);
            }
            Take2Phase::Fetch {
                common,
                r3_received,
                wanted,
                route,
                ..
            } => {
                enc.put_u8(6);
                common.snapshot(enc);
                snapshot_bits_table(r3_received, enc);
                snapshot_wanted(wanted, enc);
                route.snapshot(enc);
            }
            Take2Phase::Pull { common, route } => {
                enc.put_u8(7);
                common.snapshot(enc);
                route.snapshot(enc);
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for AdaptiveAllToAll {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!(
            "adaptive-take2(p={},{})",
            self.p_size,
            if self.query_via_ldc { "ldc" } else { "direct" }
        ))
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(Take2Session::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(Take2Session::restore(self, net, inst, dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;

    #[test]
    fn take1_perfect_without_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(16, 1, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let proto = AdaptiveTakeOne {
            line_capacity: 1, // GF(4) plane at n = 16
            ..Default::default()
        };
        let out = proto.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn take2_direct_pull_perfect_without_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(16, 1, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let proto = AdaptiveAllToAll {
            query_via_ldc: false,
            ..Default::default()
        };
        let out = proto.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn take2_ldc_perfect_without_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let inst = AllToAllInstance::random(16, 1, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let proto = AdaptiveAllToAll {
            line_capacity: 1, // GF(4) plane at n = 16
            ..Default::default()
        };
        let out = proto.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn take2_rejects_bad_p_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let inst = AllToAllInstance::random(16, 1, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let proto = AdaptiveAllToAll {
            p_size: 3,
            ..Default::default()
        };
        assert!(proto.run(&mut net, &inst).is_err());
    }
}

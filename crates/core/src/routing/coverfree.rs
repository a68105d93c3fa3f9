//! The cover-free parallel routing engine (Section 4.2 of the paper).
//!
//! All `k` super-messages per node route simultaneously: each message
//! `(u, j)` gets a receiver set `A_{(u,j)}` drawn from a `(k-1, δ)`-cover-free
//! family w.r.t. `H = {INind(u)}_u ∪ {OUTind(v)}_v` (Eq. (2)). Round 1 sends
//! codeword symbols to receiver-set members under the `InLoad = 1` filter;
//! round 2 forwards them to targets under the `OutLoad = 1` filter.
//!
//! Two refinements over the paper's analysis:
//!
//! * Overlap positions dropped by the load filters are *computable by
//!   every node* from public data, so the decoder treats them as **known
//!   erasures** instead of errors — doubling their budget efficiency
//!   relative to Lemma 4.6's accounting.
//! * The decode margin (Lemma 4.5's inequality) is checked *numerically* at
//!   construction time from the verified family's measured cover fraction;
//!   infeasible parameter combinations are rejected before any round runs,
//!   which is what lets [`super::RoutingMode::Auto`] fall back cleanly.
//!
//! Frame assembly keeps no table keyed by edge: each round collects one
//! entry per `(edge, lane)` slot it writes — in loop order, with an absent
//! relay symbol still claiming its slot — sorts the entries by `(from, to)`,
//! and emits every frame once, ascending, which is the order
//! [`Traffic::send`]'s append fast-path wants. The `= 1` load filters give
//! each slot a single writer, so the sort is all the bookkeeping there is.
//!
//! With [`RouterConfig::event_driven`] the engine runs on the same
//! event-driven pack executor as the unit engine (see
//! [`super::unit`]'s module docs): round-1 codeword encoding and frame
//! assembly for upcoming chunk packs are prefetched as [`crate::exec`] jobs
//! posting arena-free batches onto a [`MessageBus`] keyed by virtual
//! delivery time, and round-2 decoding folds in asynchronously. Exchanges
//! stay serialized in virtual-round order, so wire behavior is bit-identical
//! to the lockstep path.

use super::{
    absorbed_error_budget, check_budget, empty_instance_code, encode_chunks, lane_symbol,
    map_units, payload_chunk, EngineUsed, Inst, RelayGrid, RouterConfig, RoutingInstance,
    RoutingOutput, RoutingReport, SharedCodewordCache,
};
use crate::error::CoreError;
use crate::exec::{self, Job};
use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon};
use bdclique_coverfree::{CoverFreeFamily, CoverFreeParams};
use bdclique_netsim::{Delivery, FramePool, MessageBus, Network, Traffic};
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

pub(crate) struct CfParams {
    code: ReedSolomon,
    l: usize,
    cap_bits: usize,
    chunks: usize,
    slot: usize,
    lanes: usize,
    /// Receiver set (ascending node ids) per message.
    sets: Vec<Vec<u32>>,
    /// `InLoad(u, w)`, row-major.
    in_load: Vec<u16>,
    /// `OutLoad(w, v)`, row-major.
    out_load: Vec<u16>,
}

impl CfParams {
    /// Parameters for the zero-message instance: nothing is encoded,
    /// relayed, or decoded, so no margin, family, or bandwidth constraint
    /// applies (see [`empty_instance_code`]).
    fn empty(cfg: &RouterConfig) -> Result<Self, CoreError> {
        let (code, slot) = empty_instance_code(cfg)?;
        Ok(Self {
            code,
            l: 2,
            cap_bits: cfg.symbol_bits as usize,
            chunks: 0,
            slot,
            lanes: 1,
            sets: Vec::new(),
            in_load: Vec::new(),
            out_load: Vec::new(),
        })
    }
}

pub(crate) fn derive_params(
    net: &Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<CfParams, CoreError> {
    let n = instance.n;
    let m = cfg.symbol_bits;
    if !(2..=8).contains(&m) {
        return Err(CoreError::invalid("symbol_bits must be in 2..=8"));
    }
    let slot = m as usize + 1;
    if net.bandwidth() < slot {
        return Err(CoreError::infeasible(format!(
            "bandwidth {} < wire slot {}",
            net.bandwidth(),
            slot
        )));
    }
    let k_src = instance.max_source_multiplicity();
    let k_tgt = instance.max_target_multiplicity();
    let k = k_src.max(k_tgt).max(1);

    // Group size controls the per-group collision probability (~(k-1)/group
    // per other set); default keeps the expected cover fraction near 1/8.
    let group = cfg
        .cf_group_size
        .unwrap_or((8 * k.saturating_sub(1)).max(4));
    if group < 2 || n / group == 0 {
        return Err(CoreError::infeasible(format!(
            "group size {group} invalid for n = {n}"
        )));
    }
    let l = (n / group).min((1usize << m) - 1);
    if l < 2 {
        return Err(CoreError::infeasible(format!(
            "receiver sets of size {l} are too small"
        )));
    }

    // Constraint collection H: per-source slots and per-target slots (Eq. 2).
    let mut in_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut out_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (idx, msg) in instance.messages.iter().enumerate() {
        in_ind[msg.src].push(idx as u32);
        let mut uniq = msg.targets.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for t in uniq {
            out_ind[t].push(idx as u32);
        }
    }
    let h: Vec<Vec<u32>> = in_ind
        .into_iter()
        .chain(out_ind)
        .filter(|t| t.len() >= 2)
        .collect();

    let params = CoverFreeParams {
        n,
        m: instance.messages.len(),
        r: k.saturating_sub(1),
        set_size: l,
    };
    let family = CoverFreeFamily::build(params, &h, cfg.cf_delta, 0xbdc11e, cfg.cf_seed_tries)
        .map_err(|e| CoreError::infeasible(format!("cover-free family: {e}")))?;
    let num_msgs = instance.messages.len();
    let sets: Vec<Vec<u32>> = (0..num_msgs).map(|i| family.set(i)).collect();

    // Load maps (public data: every node computes these identically).
    let mut in_load = vec![0u16; n * n];
    for (idx, msg) in instance.messages.iter().enumerate() {
        for &w in &sets[idx] {
            in_load[msg.src * n + w as usize] += 1;
        }
    }
    let mut out_load = vec![0u16; n * n];
    for (idx, msg) in instance.messages.iter().enumerate() {
        let mut uniq = msg.targets.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for &v in &uniq {
            for &w in &sets[idx] {
                out_load[w as usize * n + v] += 1;
            }
        }
    }

    // Exact worst-case erasure count: positions lost to either load filter,
    // maximized over (message, target) pairs. This replaces Lemma 4.5's
    // δ-based bound with the measured quantity.
    let mut worst_erasures = 0usize;
    for (idx, msg) in instance.messages.iter().enumerate() {
        for &v in &msg.targets {
            if v == msg.src {
                continue;
            }
            let lost = sets[idx]
                .iter()
                .filter(|&&w| {
                    in_load[msg.src * n + w as usize] != 1 || out_load[w as usize * n + v] != 1
                })
                .count();
            worst_erasures = worst_erasures.max(lost);
        }
    }

    // Decode margin: per codeword, adversarial errors ≤ ⌊αn⌋ per round (at
    // the source in round 1, at the target in round 2) + slack; filtered
    // positions are known erasures. Need 2e + f < L - k_rs + 1.
    let e_allow = absorbed_error_budget(net, cfg.extra_error_slack);
    if l <= 2 * e_allow + worst_erasures {
        return Err(CoreError::infeasible(format!(
            "cover-free margin fails: L = {l}, need > 2·{e_allow} + {worst_erasures} erasures"
        )));
    }
    let k_rs = l - 2 * e_allow - worst_erasures;
    let code = ReedSolomon::new(m, l, k_rs)
        .map_err(|e| CoreError::infeasible(format!("RS construction: {e}")))?;
    let cap_bits = k_rs * m as usize;
    let chunks = instance.payload_bits.div_ceil(cap_bits).max(1);
    let lanes = (net.bandwidth() / slot).max(1);
    Ok(CfParams {
        code,
        l,
        cap_bits,
        chunks,
        slot,
        lanes,
        sets,
        in_load,
        out_load,
    })
}

/// The session's immutable routing plan, shared with event-mode background
/// jobs via `Arc` (the cover-free analogue of the unit engine's `UnitPlan`).
struct CfPlan {
    params: CfParams,
    symbol_bits: u32,
    /// Deduplicated target lists, computed once. All per-round loops
    /// iterate messages × receiver-set positions — O(m·L) work proportional
    /// to the frames actually sent, never an n² relay/target table scan
    /// (the former `relay_msg`/`target_msg` matrices alone were 2·n² words
    /// — 256 MiB at n = 4096).
    uniq_targets: Vec<Vec<usize>>,
    chunk_ids: Vec<usize>,
}

/// Which half of a chunk pack the session will execute next.
enum CfPhase {
    /// Sources scatter to receiver sets (InLoad filter).
    Round1,
    /// Relays forward to targets (OutLoad filter), holding the
    /// [`RelayGrid`] gathered after round 1: one contiguous lane-major
    /// buffer addressed `(lane, msg, pos)` where `pos` indexes the
    /// message's receiver set (all sets have size `L`, so rows are
    /// uniform).
    Round2 { relay: RelayGrid },
}

/// What one round-1 prefetch job produces: the pack's codeword symbols
/// (`[msg][lane][pos]`) and its fully assembled traffic batch.
type CfEncodeResult = Result<(Vec<Vec<Vec<u16>>>, Traffic), CoreError>;

/// One decoded unit: `((target, msg_idx, chunk), bits, decode_failed)`.
type CfDecodedUnit = ((usize, usize, usize), BitVec, bool);

/// What one background decode job produces: decoded units plus the consumed
/// delivery, handed back for main-thread arena reclaim.
type CfDecodeBatch = (Vec<CfDecodedUnit>, Delivery);

/// Round-1 prefetch depth; see the unit engine's `PREFETCH_PACKS`.
const PREFETCH_PACKS: usize = 2;

/// Decode jobs allowed in flight before the oldest is folded.
const DECODES_IN_FLIGHT: usize = 2;

/// Per-session event-executor state (see [`super::unit`]'s module docs).
struct CfEventState {
    bus: MessageBus,
    encodes: VecDeque<(usize, Job<CfEncodeResult>)>,
    next_dispatch: usize,
    decodes: VecDeque<Job<CfDecodeBatch>>,
    n: usize,
    bandwidth: usize,
    /// `Sync` free-list of frame buffers shared with the prefetch jobs (the
    /// arena is not `Sync`); delivered frames recycle into later prefetches.
    pool: Arc<FramePool>,
}

/// One lane slot of one wire frame, as the round builders collect them in
/// loop order (lane, then message, then receiver-set position).
/// `sym == RelayGrid::ABSENT` leaves the slot's validity bit clear — round
/// 2 still sends the frame when the relay holds nothing, which is the wire
/// behavior the adversary observes.
#[derive(Clone, Copy)]
struct SlotWrite {
    /// `from << 32 | to`: ascending edge keys are ascending `(from, to)`.
    edge: u64,
    lane: u32,
    sym: u16,
}

impl SlotWrite {
    fn new(from: usize, to: usize, lane: usize, sym: u16) -> Self {
        Self {
            edge: ((from as u64) << 32) | to as u64,
            lane: lane as u32,
            sym,
        }
    }

    /// The edge's `(from, to)`.
    fn ends(&self) -> (usize, usize) {
        (
            (self.edge >> 32) as usize,
            (self.edge & 0xffff_ffff) as usize,
        )
    }
}

/// Turns `slots` into frames, emitting each edge's frame exactly once in
/// ascending `(from, to)` order — the order the sparse substrate's append
/// fast-path relies on, independent of any hash iteration. The sort is
/// stable, so slots of one edge apply in collection order; the
/// `InLoad`/`OutLoad = 1` filters give every `(edge, lane)` slot a single
/// writer anyway, which is why no edge-keyed table is needed.
fn assemble_frames(
    mut slots: Vec<SlotWrite>,
    params: &CfParams,
    mut frame_buffer: impl FnMut(usize) -> BitVec,
    mut emit: impl FnMut(usize, usize, BitVec),
) {
    slots.sort_by_key(|s| s.edge);
    for edge in slots.chunk_by(|a, b| a.edge == b.edge) {
        let mut frame = frame_buffer(params.lanes * params.slot);
        for s in edge {
            if s.sym != RelayGrid::ABSENT {
                // Validity bit first, then the symbol.
                let bits = 1 | (u64::from(s.sym) << 1);
                frame.write_uint(s.lane as usize * params.slot, params.slot as u32, bits);
            }
        }
        let (from, to) = edge[0].ends();
        emit(from, to, frame);
    }
}

/// Lazy per-pack encode (cache-aware): only the pack's chunks are
/// materialized, one message per fan-out unit. Returns `[msg][lane][pos]`.
fn encode_pack(
    instance: &RoutingInstance,
    plan: &CfPlan,
    cache: Option<&SharedCodewordCache>,
    parallel: bool,
    pack: &[usize],
) -> Result<Vec<Vec<Vec<u16>>>, CoreError> {
    let jobs: Vec<Vec<BitVec>> = instance
        .messages
        .iter()
        .map(|msg| {
            pack.iter()
                .map(|&chunk| payload_chunk(&msg.payload, chunk, plan.params.cap_bits))
                .collect()
        })
        .collect();
    encode_chunks(parallel, &plan.params.code, cache, jobs)
}

/// Round 1: sources scatter codeword symbols to receiver-set members
/// (InLoad filter).
fn round1_slots(
    instance: &RoutingInstance,
    plan: &CfPlan,
    pack_cw: &[Vec<Vec<u16>>],
    lanes_used: usize,
) -> Vec<SlotWrite> {
    let params = &plan.params;
    let n = instance.n;
    let mut slots = Vec::with_capacity(lanes_used * instance.messages.len() * params.l);
    for lane in 0..lanes_used {
        for (idx, msg) in instance.messages.iter().enumerate() {
            for (pos, &w) in params.sets[idx].iter().enumerate() {
                if params.in_load[msg.src * n + w as usize] != 1 {
                    continue; // dropped: known erasure everywhere
                }
                if w as usize == msg.src {
                    continue; // the source keeps its own symbol
                }
                slots.push(SlotWrite::new(
                    msg.src,
                    w as usize,
                    lane,
                    pack_cw[idx][lane][pos],
                ));
            }
        }
    }
    slots
}

/// Round 2: relays forward what they hold to targets (OutLoad filter). An
/// absent relay symbol still claims its slot, with the validity bit clear.
fn round2_slots(
    instance: &RoutingInstance,
    plan: &CfPlan,
    relay: &RelayGrid,
    lanes_used: usize,
) -> Vec<SlotWrite> {
    let params = &plan.params;
    let n = instance.n;
    let mut slots = Vec::new();
    for lane in 0..lanes_used {
        for (idx, msg) in instance.messages.iter().enumerate() {
            for (pos, &w) in params.sets[idx].iter().enumerate() {
                if params.in_load[msg.src * n + w as usize] != 1 {
                    continue; // w never expected this symbol
                }
                let sym = relay.get(lane, idx, pos).unwrap_or(RelayGrid::ABSENT);
                for &v in &plan.uniq_targets[idx] {
                    if v == w as usize || params.out_load[w as usize * n + v] != 1 {
                        continue;
                    }
                    slots.push(SlotWrite::new(w as usize, v, lane, sym));
                }
            }
        }
    }
    slots
}

/// Encodes one chunk pack and materializes its round-1 traffic — the single
/// builder behind the lockstep path (frames from the network arena) and the
/// event-mode prefetch jobs (arena-free zeroed buffers), so the two cannot
/// drift apart.
fn build_round1(
    instance: &RoutingInstance,
    plan: &CfPlan,
    cache: Option<&SharedCodewordCache>,
    parallel: bool,
    pack: &[usize],
    mut traffic: Traffic,
    frame_buffer: impl FnMut(usize) -> BitVec,
) -> CfEncodeResult {
    let pack_cw = encode_pack(instance, plan, cache, parallel, pack)?;
    let slots = round1_slots(instance, plan, &pack_cw, pack.len());
    assemble_frames(slots, &plan.params, frame_buffer, |from, to, frame| {
        traffic.send(from, to, frame)
    });
    Ok((pack_cw, traffic))
}

/// Decodes one chunk pack at its targets — one unit per
/// `(lane, msg, target)`, fanned out via [`map_units`]; results are keyed
/// `(target, msg_idx, chunk)` so folding is order-independent. Shared by
/// the lockstep path and the event-mode background jobs.
fn decode_pack(
    instance: &RoutingInstance,
    plan: &CfPlan,
    parallel: bool,
    pack: &[usize],
    relay: &RelayGrid,
    delivery: &Delivery,
) -> Vec<CfDecodedUnit> {
    let params = &plan.params;
    let n = instance.n;
    let mut units: Vec<(usize, usize, usize, usize)> = Vec::new(); // (lane, chunk, idx, v)
    for (lane, &chunk) in pack.iter().enumerate() {
        for (idx, msg) in instance.messages.iter().enumerate() {
            for &v in &plan.uniq_targets[idx] {
                if v != msg.src {
                    units.push((lane, chunk, idx, v));
                }
            }
        }
    }
    map_units(parallel, units, |(lane, chunk, idx, v)| {
        let msg = &instance.messages[idx];
        let mut received = vec![0u16; params.l];
        let mut erasures = vec![false; params.l];
        for (pos, &w) in params.sets[idx].iter().enumerate() {
            let w = w as usize;
            if params.in_load[msg.src * n + w] != 1 || params.out_load[w * n + v] != 1 {
                erasures[pos] = true; // known filter erasure
                continue;
            }
            let val = if w == v {
                relay.get(lane, idx, pos)
            } else {
                delivery
                    .received(v, w)
                    .and_then(|f| lane_symbol(f, lane, params.slot, plan.symbol_bits))
            };
            match val {
                Some(sym) => received[pos] = sym,
                None => erasures[pos] = true,
            }
        }
        match params
            .code
            .decode_bits(&received, &erasures, params.cap_bits)
        {
            Ok(b) => ((v, idx, chunk), b, false),
            Err(_) => ((v, idx, chunk), BitVec::zeros(params.cap_bits), true),
        }
    })
}

/// The cover-free engine as a resumable session: every [`CfSession::step`]
/// executes exactly one `exchange` (round 1 or round 2 of the current chunk
/// pack); the step that completes the final pack also assembles the output.
/// Round-for-round identical to the former monolithic loop; within a step,
/// the per-pack encode and decode fan out across threads exactly like the
/// unit engine's ([`RouterConfig::parallel`]), and with
/// [`RouterConfig::event_driven`] they additionally overlap *across* packs.
pub(crate) struct CfSession<'i> {
    /// Borrowed for the zero-copy [`super::route`] path, shared when a
    /// protocol session hands a wave over (or event mode needs owned data).
    instance: Inst<'i>,
    plan: Arc<CfPlan>,
    /// Fan per-pack relay gather / decode out over rayon.
    parallel: bool,
    /// Adversarial symbols per codeword the chosen code absorbs; see
    /// [`check_budget`]. `usize::MAX` for the empty instance.
    e_allow: usize,
    extra_error_slack: usize,
    /// Optional shared codeword cache ([`super::RouteSession::new_cached`]);
    /// `None` keeps the plain lazy per-pack encode path.
    cache: Option<SharedCodewordCache>,
    pack_start: usize,
    phase: CfPhase,
    /// Ordered so output assembly never iterates a hash map.
    chunk_store: BTreeMap<(usize, usize), Vec<BitVec>>,
    delivered: Vec<BTreeMap<(usize, usize), BitVec>>,
    decode_failures: usize,
    rounds_before: u64,
    /// Set once the output has been assembled; stepping again is an error.
    finished: bool,
    /// `Some` when running on the event-driven pack executor.
    event: Option<CfEventState>,
}

impl<'i> CfSession<'i> {
    /// Validates the decode margin. No rounds run until the first
    /// [`CfSession::step`] — infeasible parameter combinations are rejected
    /// here, before any round, which is what lets
    /// [`super::RoutingMode::Auto`] fall back cleanly. Codewords are
    /// encoded lazily, per pack.
    pub(crate) fn new(
        net: &Network,
        instance: Cow<'i, RoutingInstance>,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        // Zero messages: the first step returns a well-formed empty output
        // without running a round — no family or margin constraint can
        // apply to an instance that routes nothing (the same guard as
        // `UnitSession`).
        let params = if instance.messages.is_empty() {
            CfParams::empty(cfg)?
        } else {
            derive_params(net, &instance, cfg)?
        };
        Self::from_params(net, instance, cfg, params)
    }

    /// Second construction half, split out so Auto mode can probe
    /// [`derive_params`] for feasibility while keeping ownership of the
    /// instance on the fallback path.
    pub(crate) fn from_params(
        net: &Network,
        instance: Cow<'i, RoutingInstance>,
        cfg: &RouterConfig,
        params: CfParams,
    ) -> Result<Self, CoreError> {
        let n = instance.n;
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }

        let uniq_targets: Vec<Vec<usize>> = instance
            .messages
            .iter()
            .map(|msg| {
                let mut uniq = msg.targets.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq
            })
            .collect();

        let mut delivered: Vec<BTreeMap<(usize, usize), BitVec>> = vec![BTreeMap::new(); n];
        for msg in &instance.messages {
            if msg.targets.contains(&msg.src) {
                delivered[msg.src].insert((msg.src, msg.slot), msg.payload.clone());
            }
        }

        // Codewords are encoded lazily, per pack, at the top of each
        // round 1 — a pack only ever touches its own `lanes` chunks, so
        // holding all `messages × chunks × L` symbols for the whole
        // session (the former upfront pre-encode here) bought nothing but
        // memory.
        let empty = instance.messages.is_empty();
        let e_allow = if empty {
            usize::MAX
        } else {
            absorbed_error_budget(net, cfg.extra_error_slack)
        };
        let event = cfg.event_driven && !empty;
        Ok(Self {
            plan: Arc::new(CfPlan {
                chunk_ids: (0..params.chunks).collect(),
                params,
                symbol_bits: cfg.symbol_bits,
                uniq_targets,
            }),
            instance: Inst::from_cow(instance, event),
            parallel: cfg.parallel,
            e_allow,
            extra_error_slack: cfg.extra_error_slack,
            cache: None,
            pack_start: 0,
            phase: CfPhase::Round1,
            chunk_store: BTreeMap::new(),
            delivered,
            decode_failures: 0,
            rounds_before: net.rounds(),
            finished: false,
            event: event.then(|| CfEventState {
                bus: MessageBus::new(),
                encodes: VecDeque::new(),
                next_dispatch: 0,
                decodes: VecDeque::new(),
                n,
                bandwidth: net.bandwidth(),
                pool: Arc::new(FramePool::new()),
            }),
        })
    }

    /// Attaches a shared codeword cache (a no-op handle change: encoding is
    /// deterministic, so cached and uncached sessions are bit-identical).
    pub(crate) fn with_cache(mut self, cache: Option<SharedCodewordCache>) -> Self {
        self.cache = cache;
        self
    }

    fn pack(&self) -> &[usize] {
        let end = (self.pack_start + self.plan.params.lanes).min(self.plan.chunk_ids.len());
        &self.plan.chunk_ids[self.pack_start..end]
    }

    /// Dispatches round-1 prefetch jobs up to [`PREFETCH_PACKS`] in flight.
    fn dispatch_prefetch(&mut self) {
        let Some(ev) = &mut self.event else { return };
        let lanes = self.plan.params.lanes;
        while ev.encodes.len() < PREFETCH_PACKS && ev.next_dispatch < self.plan.chunk_ids.len() {
            let pack_start = ev.next_dispatch;
            ev.next_dispatch += lanes;
            let instance = self.instance.shared();
            let plan = self.plan.clone();
            let cache = self.cache.clone();
            let parallel = self.parallel;
            let (n, bandwidth) = (ev.n, ev.bandwidth);
            let pool = ev.pool.clone();
            let job = exec::spawn(move || {
                let end = (pack_start + plan.params.lanes).min(plan.chunk_ids.len());
                let pack = &plan.chunk_ids[pack_start..end];
                // Pooled zeroed frame buffers — indistinguishable from
                // `BitVec::zeros`, batched through a taker.
                let mut taker = pool.taker();
                build_round1(
                    &instance,
                    &plan,
                    cache.as_ref(),
                    parallel,
                    pack,
                    Traffic::new(n, bandwidth),
                    |len| taker.take(len),
                )
            });
            ev.encodes.push_back((pack_start, job));
        }
    }

    /// Folds decoded units into the chunk store — keyed writes, so the fold
    /// is order-independent across packs.
    fn fold_decoded(&mut self, decoded: Vec<CfDecodedUnit>) {
        let (chunks, cap_bits) = (self.plan.params.chunks, self.plan.params.cap_bits);
        for ((v, idx, chunk), bits, failed) in decoded {
            if failed {
                self.decode_failures += 1;
            }
            self.chunk_store
                .entry((v, idx))
                .or_insert_with(|| vec![BitVec::zeros(cap_bits); chunks])[chunk] = bits;
        }
    }

    /// Joins in-flight decode jobs down to `down_to`, folding results and
    /// reclaiming deliveries.
    fn drain_decodes(&mut self, net: &mut Network, down_to: usize) {
        while self
            .event
            .as_ref()
            .is_some_and(|ev| ev.decodes.len() > down_to)
        {
            let job = self
                .event
                .as_mut()
                .and_then(|ev| ev.decodes.pop_front())
                .expect("checked non-empty");
            let (decoded, delivery) = job.join();
            // Frames feed the `Sync` pool (for the next prefetch job), the
            // sparse tables go back to the arena as usual.
            let pool = self.event.as_ref().expect("event mode").pool.clone();
            net.reclaim_split(delivery, &pool);
            self.fold_decoded(decoded);
        }
    }

    /// Advances one exchange; `Some(output)` when the final pack is done.
    pub(crate) fn step(&mut self, net: &mut Network) -> Result<Option<RoutingOutput>, CoreError> {
        if self.finished {
            return Err(CoreError::invalid(
                "routing session stepped after completion",
            ));
        }
        if self.pack_start >= self.plan.chunk_ids.len() {
            return Ok(Some(self.finish(net)));
        }
        check_budget(net, self.e_allow, self.extra_error_slack)?;
        let pack: Vec<usize> = self.pack().to_vec();
        match std::mem::replace(&mut self.phase, CfPhase::Round1) {
            CfPhase::Round1 => {
                let (pack_cw, traffic) = if self.event.is_some() {
                    self.dispatch_prefetch();
                    let ev = self.event.as_mut().expect("event mode");
                    let (start, job) = ev
                        .encodes
                        .pop_front()
                        .expect("prefetch covers current pack");
                    debug_assert_eq!(start, self.pack_start, "prefetch FIFO tracks the clock");
                    let (pack_cw, batch) = job.join()?;
                    let vtime = net.virtual_time();
                    ev.bus.post(vtime, batch);
                    let traffic = ev.bus.take(vtime).expect("batch staged for current vtime");
                    (pack_cw, traffic)
                } else {
                    let traffic = net.traffic();
                    build_round1(
                        &self.instance,
                        &self.plan,
                        self.cache.as_ref(),
                        self.parallel,
                        &pack,
                        traffic,
                        |len| net.frame_buffer(len),
                    )?
                };
                let delivery1 = net.exchange(traffic);

                // ---- Relays note what they hold, straight into the flat
                // lane-major grid addressed (lane, msg, pos).
                // `InLoad(src, w) == 1` makes the message a relay expects
                // from a sender unique, so walking messages × set positions
                // recovers exactly the old dense relay-table scan in O(m·L);
                // each (lane, message) row is independent and fans out.
                let plan = &*self.plan;
                let params = &plan.params;
                let n = self.instance.n;
                let instance = &*self.instance;
                let num_msgs = instance.messages.len();
                let flat: Vec<(usize, usize)> = (0..pack.len())
                    .flat_map(|lane| (0..num_msgs).map(move |idx| (lane, idx)))
                    .collect();
                let pack_cw_ref = &pack_cw;
                let gathered: Vec<Vec<u16>> = map_units(self.parallel, flat, |(lane, idx)| {
                    let msg = &instance.messages[idx];
                    params.sets[idx]
                        .iter()
                        .enumerate()
                        .map(|(pos, &w)| {
                            let w = w as usize;
                            let val = if params.in_load[msg.src * n + w] != 1 {
                                None
                            } else if w == msg.src {
                                Some(pack_cw_ref[idx][lane][pos])
                            } else {
                                delivery1.received(w, msg.src).and_then(|f| {
                                    lane_symbol(f, lane, params.slot, plan.symbol_bits)
                                })
                            };
                            val.unwrap_or(RelayGrid::ABSENT)
                        })
                        .collect()
                });
                let mut blocks: Vec<Vec<u16>> = Vec::with_capacity(pack.len());
                let mut it = gathered.into_iter();
                for _ in 0..pack.len() {
                    let mut block = Vec::with_capacity(num_msgs * params.l);
                    for row in it.by_ref().take(num_msgs) {
                        block.extend_from_slice(&row);
                    }
                    blocks.push(block);
                }
                let relay =
                    RelayGrid::from_blocks(blocks, RelayGrid::uniform_offsets(num_msgs, params.l));
                net.reclaim(delivery1);
                self.phase = CfPhase::Round2 { relay };
                Ok(None)
            }
            CfPhase::Round2 { relay } => {
                // ---- Round 2: relays forward to targets (OutLoad filter),
                // frames assembled exactly as in round 1.
                let slots = round2_slots(&self.instance, &self.plan, &relay, pack.len());
                let mut traffic = net.traffic();
                assemble_frames(
                    slots,
                    &self.plan.params,
                    |len| net.frame_buffer(len),
                    |from, to, frame| traffic.send(from, to, frame),
                );
                let delivery2 = net.exchange(traffic);

                if self.event.is_some() {
                    // ---- Event mode: decode moves off-thread; results fold
                    // in later (keyed writes — order-independent), the
                    // delivery is reclaimed at join time.
                    let instance = self.instance.shared();
                    let plan = self.plan.clone();
                    let parallel = self.parallel;
                    let pack = pack.clone();
                    let job = exec::spawn(move || {
                        let decoded =
                            decode_pack(&instance, &plan, parallel, &pack, &relay, &delivery2);
                        (decoded, delivery2)
                    });
                    self.event
                        .as_mut()
                        .expect("event mode")
                        .decodes
                        .push_back(job);
                    self.drain_decodes(net, DECODES_IN_FLIGHT);
                } else {
                    let decoded = decode_pack(
                        &self.instance,
                        &self.plan,
                        self.parallel,
                        &pack,
                        &relay,
                        &delivery2,
                    );
                    net.reclaim(delivery2);
                    self.fold_decoded(decoded);
                }
                self.pack_start += self.plan.params.lanes;
                self.phase = CfPhase::Round1;
                if self.pack_start >= self.plan.chunk_ids.len() {
                    return Ok(Some(self.finish(net)));
                }
                Ok(None)
            }
        }
    }

    /// The engine's instance, for [`super::RouteSession::snapshot`].
    pub(crate) fn instance_ref(&self) -> &RoutingInstance {
        &self.instance
    }

    /// The dispatch frontier the event executor must sit at when the
    /// session is exactly between two steps in the current phase.
    fn quiesced_dispatch(&self) -> usize {
        self.pack_start
            + match self.phase {
                CfPhase::Round1 => 0,
                CfPhase::Round2 { .. } => self.plan.params.lanes,
            }
    }

    /// Quiesces event-path work to the current step boundary (see the unit
    /// engine's `quiesce`): decodes fold early (order-independent),
    /// prefetched encodes are discarded (pure) and re-dispatched on resume.
    fn quiesce(&mut self, net: &mut Network) {
        if self.event.is_none() {
            return;
        }
        self.drain_decodes(net, 0);
        let next = self.quiesced_dispatch();
        let ev = self.event.as_mut().expect("event mode");
        ev.encodes.clear();
        ev.next_dispatch = next;
    }

    /// Serializes the session's dynamic state, quiescing first; see
    /// [`super::RouteSession::snapshot`].
    pub(crate) fn snapshot_state(&mut self, net: &mut Network, enc: &mut Enc) {
        self.quiesce(net);
        enc.put_usize(self.e_allow);
        enc.put_usize(self.pack_start);
        match &self.phase {
            CfPhase::Round1 => enc.put_u8(0),
            CfPhase::Round2 { relay } => {
                enc.put_u8(1);
                relay.snapshot(enc);
            }
        }
        let entries: Vec<(&(usize, usize), &Vec<BitVec>)> = self.chunk_store.iter().collect();
        enc.put_seq(&entries, |e, ((v, idx), chunks)| {
            e.put_usize(*v);
            e.put_usize(*idx);
            e.put_seq(chunks, |e, b| e.put_bits(b));
        });
        super::snapshot_delivered(&self.delivered, enc);
        enc.put_usize(self.decode_failures);
        enc.put_u64(self.rounds_before);
        enc.put_bool(self.finished);
    }

    /// Rebuilds a session from `new` (the family, load maps, and code are
    /// deterministic functions of the instance and config) and overlays the
    /// dynamic state written by [`CfSession::snapshot_state`].
    pub(crate) fn restore(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
        cache: Option<SharedCodewordCache>,
        dec: &mut Dec<'_>,
    ) -> Result<CfSession<'static>, CoreError> {
        let mut s = CfSession::new(net, Cow::Owned(instance), cfg)?.with_cache(cache);
        let e_allow = dec.get_usize()?;
        if e_allow != s.e_allow {
            return Err(CoreError::invalid(format!(
                "snapshot: absorbed error budget drifted across restore \
                 (saved {e_allow}, rebuilt {})",
                s.e_allow
            )));
        }
        s.pack_start = dec.get_usize()?;
        s.phase = match dec.get_u8()? {
            0 => CfPhase::Round1,
            1 => CfPhase::Round2 {
                relay: RelayGrid::restore(dec)?,
            },
            t => {
                return Err(CoreError::invalid(format!(
                    "snapshot: cover-free phase tag {t}"
                )))
            }
        };
        let entries = dec.get_seq(24, |d| {
            let v = d.get_usize()?;
            let idx = d.get_usize()?;
            let chunks = d.get_seq(8, Dec::get_bits)?;
            Ok(((v, idx), chunks))
        })?;
        let mut last = None;
        s.chunk_store = BTreeMap::new();
        for ((v, idx), chunks) in entries {
            if last.is_some_and(|p| p >= (v, idx)) {
                return Err(CoreError::invalid("snapshot: chunk store out of order"));
            }
            last = Some((v, idx));
            s.chunk_store.insert((v, idx), chunks);
        }
        s.delivered = super::restore_delivered(dec)?;
        if s.delivered.len() != s.instance.n {
            return Err(CoreError::invalid(
                "snapshot: delivered table size mismatch",
            ));
        }
        s.decode_failures = dec.get_usize()?;
        s.rounds_before = dec.get_u64()?;
        s.finished = dec.get_bool()?;
        let next = s.quiesced_dispatch();
        if let Some(ev) = &mut s.event {
            ev.next_dispatch = next;
        }
        Ok(s)
    }

    /// Assembles the chunked payloads into the final output. Event mode
    /// drains every outstanding decode job first.
    fn finish(&mut self, net: &mut Network) -> RoutingOutput {
        self.drain_decodes(net, 0);
        self.finished = true;
        let mut delivered = std::mem::take(&mut self.delivered);
        for ((v, idx), chunks) in std::mem::take(&mut self.chunk_store) {
            let msg = &self.instance.messages[idx];
            let mut full = BitVec::concat(chunks.iter());
            full.truncate(msg.payload.len());
            delivered[v].insert((msg.src, msg.slot), full);
        }
        RoutingOutput {
            delivered,
            report: RoutingReport {
                engine: EngineUsed::CoverFree,
                rounds: net.rounds() - self.rounds_before,
                stages: 1,
                chunks: self.plan.params.chunks,
                decode_failures: self.decode_failures,
            },
        }
    }
}

/// Runs the cover-free engine to completion. See the module docs.
pub fn route_coverfree(
    net: &mut Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<RoutingOutput, CoreError> {
    let mut session = CfSession::new(net, Cow::Borrowed(instance), cfg)?;
    loop {
        if let Some(out) = session.step(net)? {
            return Ok(out);
        }
    }
}

/// [`route_coverfree`] on one thread: the bit-identity oracle for the
/// parallel encode/decode path.
///
/// # Errors
///
/// As [`route_coverfree`].
pub fn route_coverfree_serial(
    net: &mut Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<RoutingOutput, CoreError> {
    let cfg = RouterConfig {
        parallel: false,
        ..cfg.clone()
    };
    route_coverfree(net, instance, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::SuperMessage;
    use bdclique_netsim::Adversary;

    fn instance(
        n: usize,
        payload_bits: usize,
        msgs: Vec<(usize, usize, Vec<usize>)>,
    ) -> RoutingInstance {
        let messages = msgs
            .into_iter()
            .map(|(src, slot, targets)| SuperMessage {
                src,
                slot,
                payload: BitVec::from_fn(payload_bits, |i| (i * 7 + src + 3 * slot) % 5 < 2),
                targets,
            })
            .collect();
        RoutingInstance {
            n,
            payload_bits,
            messages,
        }
    }

    #[test]
    fn fault_free_two_messages_per_node() {
        let n = 64;
        // Every node sends 2 messages; message (u, j) targets (u + j + 1) % n.
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j + 1) % n])))
            .collect();
        let inst = instance(n, 16, msgs);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let out = route_coverfree(&mut net, &inst, &RouterConfig::default()).unwrap();
        assert_eq!(out.report.decode_failures, 0);
        assert_eq!(out.report.rounds, 2 * out.report.chunks as u64);
        for msg in &inst.messages {
            for &t in &msg.targets {
                assert_eq!(
                    out.delivered[t].get(&(msg.src, msg.slot)),
                    Some(&msg.payload),
                    "message ({}, {})",
                    msg.src,
                    msg.slot
                );
            }
        }
    }

    #[test]
    fn multi_target_broadcast_style() {
        let n = 32;
        let inst = instance(n, 8, vec![(5, 0, (0..n).collect())]);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let out = route_coverfree(&mut net, &inst, &RouterConfig::default()).unwrap();
        for v in 0..n {
            assert_eq!(
                out.delivered[v].get(&(5, 0)),
                Some(&inst.messages[0].payload)
            );
        }
    }

    #[test]
    fn survives_adaptive_attack_within_margin() {
        // n = 256, k = 2, budget 1: the cover-free margin holds and every
        // payload must decode despite an adaptive greedy flipper.
        let n = 256;
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j * 9 + 1) % n])))
            .collect();
        let inst = instance(n, 16, msgs);
        let adv = bdclique_netsim::Adversary::adaptive(TestGreedy);
        let mut net = Network::new(n, 9, 1.2 / n as f64, adv);
        let out = route_coverfree(&mut net, &inst, &RouterConfig::default()).unwrap();
        assert_eq!(out.report.decode_failures, 0);
        assert!(net.stats().edges_corrupted > 0);
        for msg in &inst.messages {
            for &t in &msg.targets {
                assert_eq!(
                    out.delivered[t].get(&(msg.src, msg.slot)),
                    Some(&msg.payload)
                );
            }
        }
    }

    /// Minimal in-crate adaptive flipper (the full strategy suite lives in
    /// `bdclique-adversary`, which would be a cyclic dev-dependency here).
    #[derive(Default)]
    struct TestGreedy;

    impl bdclique_netsim::AdaptiveStrategy for TestGreedy {
        fn corrupt(
            &mut self,
            _view: &bdclique_netsim::AdversaryView<'_>,
            scope: &mut bdclique_netsim::AdaptiveScope<'_>,
        ) {
            let n = scope.n();
            for u in 0..n {
                for v in (u + 1)..n {
                    if scope.intended(u, v).is_none() && scope.intended(v, u).is_none() {
                        continue;
                    }
                    if !scope.try_acquire(u, v) {
                        continue;
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        if let Some(f) = scope.intended(a, b) {
                            let mut flipped = f.clone();
                            for i in 0..flipped.len() {
                                flipped.flip(i);
                            }
                            scope.try_corrupt(a, b, Some(flipped));
                        }
                    }
                }
            }
        }
    }

    /// The pre-sort frame assembly, kept as the oracle for
    /// [`assemble_frames`]: a table keyed by edge, one buffer per first
    /// touch, slots applied in collection order, emitted ascending.
    fn reference_frames(slots: &[SlotWrite], params: &CfParams) -> Vec<(usize, usize, BitVec)> {
        let mut frames: BTreeMap<(usize, usize), BitVec> = BTreeMap::new();
        for s in slots {
            let frame = frames
                .entry(s.ends())
                .or_insert_with(|| BitVec::zeros(params.lanes * params.slot));
            if s.sym != RelayGrid::ABSENT {
                let at = s.lane as usize * params.slot;
                frame.set(at, true);
                frame.write_uint(at + 1, params.slot as u32 - 1, u64::from(s.sym));
            }
        }
        frames
            .into_iter()
            .map(|((from, to), frame)| (from, to, frame))
            .collect()
    }

    /// Frame assembly is byte-identical to the edge-keyed table it replaced:
    /// same edge set, same frame bits, same send order — every round of a
    /// `k = 2`, two-lane instance with an odd chunk count (a short last
    /// pack) under a frame-flipping adversary (so round 2 forwards absent
    /// relay symbols), and the frames the session actually puts on the wire
    /// are exactly those.
    #[test]
    fn frame_assembly_matches_edge_table_reference() {
        let n = 256;
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j * 9 + 1) % n])))
            .collect();
        let inst = instance(n, 400, msgs);
        let mut net = Network::new(n, 18, 1.2 / n as f64, Adversary::adaptive(TestGreedy));
        net.set_history_mode(bdclique_netsim::HistoryMode::Full);
        let mut session =
            CfSession::new(&net, Cow::Borrowed(&inst), &RouterConfig::default()).unwrap();
        assert_eq!(session.plan.params.lanes, 2);
        let chunks = session.plan.params.chunks;
        assert!(
            chunks >= 3 && chunks % 2 == 1,
            "needs a short last pack, got {chunks} chunks"
        );
        let (mut rounds, mut absent) = ([0usize; 2], 0usize);
        let out = loop {
            let pack = session.pack().to_vec();
            let (which, slots) = match &session.phase {
                CfPhase::Round1 => {
                    let cw = encode_pack(&inst, &session.plan, None, false, &pack).unwrap();
                    (0, round1_slots(&inst, &session.plan, &cw, pack.len()))
                }
                CfPhase::Round2 { relay } => {
                    (1, round2_slots(&inst, &session.plan, relay, pack.len()))
                }
            };
            rounds[which] += 1;
            absent += slots
                .iter()
                .filter(|s| which == 1 && s.sym == RelayGrid::ABSENT)
                .count();
            let expected = reference_frames(&slots, &session.plan.params);
            let mut assembled = Vec::new();
            assemble_frames(
                slots,
                &session.plan.params,
                BitVec::zeros,
                |from, to, frame| assembled.push((from, to, frame)),
            );
            assert_eq!(assembled, expected, "round kind {which}");
            let done = session.step(&mut net).unwrap();
            let mut sent = Vec::new();
            let record = net.history().records().last().unwrap();
            record
                .intended
                .as_ref()
                .expect("full history keeps the intended traffic")
                .for_each_frame(|from, to, frame| sent.push((from, to, frame.clone())));
            assert_eq!(sent, expected, "wire traffic, round kind {which}");
            if let Some(out) = done {
                break out;
            }
        };
        assert_eq!(rounds, [chunks.div_ceil(2); 2]);
        assert!(absent > 0, "round 2 must forward an absent relay symbol");
        assert_eq!(out.report.decode_failures, 0);
    }

    #[test]
    fn infeasibility_detected_before_any_round() {
        let n = 16;
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..4).map(move |j| (u, j, vec![(u + j + 1) % n])))
            .collect();
        let inst = instance(n, 8, msgs);
        // alpha = 0.4: budget 6, e_allow = 13 — hopeless for L ≤ n/8.
        let mut net = Network::new(n, 9, 0.4, Adversary::none());
        let err = route_coverfree(&mut net, &inst, &RouterConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
        assert_eq!(
            net.rounds(),
            0,
            "no rounds may run before feasibility is known"
        );
    }

    /// The event-driven executor is bit-identical to the lockstep path on
    /// the cover-free engine: same outputs, stats, and per-round corruption
    /// history — multi-chunk (so prefetch actually pipelines), multi-target,
    /// and under an active adversary.
    #[test]
    fn event_driven_matches_lockstep() {
        let ring = |n: usize| -> Vec<(usize, usize, Vec<usize>)> {
            (0..n)
                .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j + 1) % n])))
                .collect()
        };
        let cases: Vec<(usize, f64, RoutingInstance)> = vec![
            (64, 0.0, instance(64, 64, ring(64))), // multi-chunk pipeline
            (32, 0.0, instance(32, 8, vec![(5, 0, (0..32).collect())])),
            (256, 1.2 / 256.0, instance(256, 16, ring(256))),
        ];
        for (case, (n, alpha, inst)) in cases.into_iter().enumerate() {
            let run = |event: bool| {
                let adversary = if alpha > 0.0 {
                    Adversary::adaptive(TestGreedy)
                } else {
                    Adversary::none()
                };
                let mut net = Network::new(n, 9, alpha, adversary);
                let cfg = RouterConfig {
                    event_driven: event,
                    ..RouterConfig::default()
                };
                let out = route_coverfree(&mut net, &inst, &cfg).unwrap();
                let hist: Vec<_> = net
                    .history()
                    .records()
                    .iter()
                    .map(|r| (r.round, r.corrupted.clone(), r.frames, r.bits))
                    .collect();
                let stats = *net.stats();
                (out, stats, hist)
            };
            let (lock_out, lock_stats, lock_hist) = run(false);
            let (ev_out, ev_stats, ev_hist) = run(true);
            assert_eq!(lock_stats, ev_stats, "case {case}: stats");
            assert_eq!(lock_hist, ev_hist, "case {case}: round history");
            assert_eq!(lock_out.report, ev_out.report, "case {case}: report");
            for (x, (a, b)) in lock_out
                .delivered
                .iter()
                .zip(ev_out.delivered.iter())
                .enumerate()
            {
                assert_eq!(a, b, "case {case}: delivered payloads at node {x}");
            }
        }
    }
}

//! Resilient super-message routing (Theorem 4.1 / Theorem 1.1).
//!
//! An instance consists of super-messages, each identified by `(src, slot)`
//! with a payload of at most `payload_bits` bits and a target list known to
//! all nodes. Both routers are the same two-round scatter/gather, run pack
//! by pack by one [`RouteSession`]: encode a pack's codewords and scatter them
//! (round A), let the relays note what arrived, forward to the targets
//! (round B), erasure-decode. Two engines plan that loop differently:
//!
//! * [`mod@unit`] — the *scheduled unit-instance* engine: messages are greedily
//!   colored into stages so that each stage has per-node source- and
//!   target-multiplicity 1, and every stage scatters one Reed–Solomon
//!   codeword symbol per relay node. Maximal decode margin
//!   (`2·⌊αn⌋` errors against a radius of `(L-k)/2`), round cost
//!   `O(stages · chunks)`.
//! * [`coverfree`] — the paper's Section 4.2 engine: all `k` messages per
//!   node route *simultaneously* through a `(k-1, δ)`-cover-free family of
//!   receiver sets with the `InLoad`/`OutLoad` = 1 filters; overlap
//!   positions become *known erasures* (our erasure-aware refinement of
//!   Lemma 4.6). Round cost `O(chunks)` — constant in `k` — at the price of
//!   a tighter decode margin.
//!
//! [`route`] picks the engine per [`RouterConfig::mode`]; `Auto` uses the
//! cover-free engine whenever its margin validates and falls back to unit
//! scheduling otherwise, which mirrors how the paper trades the two: its
//! constants make the cover-free margin positive only asymptotically, so
//! the margin is checked numerically per instance — from the verified
//! family's measured erasure count — instead of assumed.
//!
//! The mobile adversary acts once per round, so exchanges are strictly
//! serial whatever the host does between them; the only host parallelism is
//! the rayon fan-out *inside* a pack — its encode, relay gather, forward
//! plan and decode are `into_par_iter().map(..).collect()` over independent
//! work units, folded in unit order. There is no serial twin of any entry
//! point: how many threads a fan-out uses is a property of the rayon pool
//! scope the caller runs in, so the bit-identity oracle is [`route`] itself
//! inside a one-thread `rayon::ThreadPool::install`
//! (`tests/stage_parallel.rs`). An executor that overlapped packs across
//! rounds was built, measured slower on every shape tried, and removed —
//! see CHANGES.md (PR 13) for the numbers.

pub mod coverfree;
pub mod unit;

use crate::error::CoreError;
use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon};
use bdclique_netsim::{Delivery, Network, Traffic};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One super-message: `slot` disambiguates multiple messages from the same
/// source (the paper's index `j`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperMessage {
    /// Source node.
    pub src: usize,
    /// Source-local slot `j`.
    pub slot: usize,
    /// Payload (at most the instance's `payload_bits`).
    pub payload: BitVec,
    /// Target nodes (may include `src`; duplicates ignored).
    pub targets: Vec<usize>,
}

/// A routing instance: the global knowledge shared by all nodes (message
/// identities, payload sizes, and target lists — but of course not payload
/// *contents*, which only sources hold).
#[derive(Debug, Clone)]
pub struct RoutingInstance {
    /// Clique size.
    pub n: usize,
    /// Upper bound λ on payload bits (all payloads padded to this on the
    /// wire).
    pub payload_bits: usize,
    /// The super-messages.
    pub messages: Vec<SuperMessage>,
}

impl RoutingInstance {
    /// Validates shape invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] with a diagnosis.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.messages {
            if m.src >= self.n {
                return Err(CoreError::invalid(format!("src {} out of range", m.src)));
            }
            if m.payload.len() > self.payload_bits {
                return Err(CoreError::invalid(format!(
                    "payload of ({}, {}) has {} bits > λ = {}",
                    m.src,
                    m.slot,
                    m.payload.len(),
                    self.payload_bits
                )));
            }
            if m.targets.is_empty() {
                return Err(CoreError::invalid(format!(
                    "message ({}, {}) has no targets",
                    m.src, m.slot
                )));
            }
            if m.targets.iter().any(|&t| t >= self.n) {
                return Err(CoreError::invalid("target out of range".to_string()));
            }
            if !seen.insert((m.src, m.slot)) {
                return Err(CoreError::invalid(format!(
                    "duplicate message id ({}, {})",
                    m.src, m.slot
                )));
            }
        }
        Ok(())
    }

    /// Maximum number of messages per source node.
    pub fn max_source_multiplicity(&self) -> usize {
        let mut counts = vec![0usize; self.n];
        for m in &self.messages {
            counts[m.src] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Serializes the instance for checkpointing. Protocol sessions whose
    /// in-flight waves are built from *received* data (not re-derivable
    /// from the problem instance) store the whole wave this way.
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        enc.put_usize(self.payload_bits);
        enc.put_seq(&self.messages, |e, m| {
            e.put_usize(m.src);
            e.put_usize(m.slot);
            e.put_bits(&m.payload);
            e.put_seq(&m.targets, |e, &t| e.put_usize(t));
        });
    }

    /// Decodes an instance written by [`RoutingInstance::snapshot`].
    pub(crate) fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.get_usize()?;
        let payload_bits = dec.get_usize()?;
        let messages = dec.get_seq(25, |d| {
            let src = d.get_usize()?;
            let slot = d.get_usize()?;
            let payload = d.get_bits()?;
            let targets = d.get_seq(8, Dec::get_usize)?;
            Ok(SuperMessage {
                src,
                slot,
                payload,
                targets,
            })
        })?;
        Ok(Self {
            n,
            payload_bits,
            messages,
        })
    }

    /// Maximum number of messages targeting any single node.
    pub fn max_target_multiplicity(&self) -> usize {
        let mut counts = vec![0usize; self.n];
        for m in &self.messages {
            let mut uniq: Vec<usize> = m.targets.clone();
            uniq.sort_unstable();
            uniq.dedup();
            for t in uniq {
                counts[t] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

impl From<RoutingInstance> for Cow<'_, RoutingInstance> {
    fn from(instance: RoutingInstance) -> Self {
        Cow::Owned(instance)
    }
}

impl<'i> From<&'i RoutingInstance> for Cow<'i, RoutingInstance> {
    fn from(instance: &'i RoutingInstance) -> Self {
        Cow::Borrowed(instance)
    }
}

/// Which engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Cover-free when its margin validates, otherwise unit scheduling.
    #[default]
    Auto,
    /// Force the scheduled unit-instance engine.
    Unit,
    /// Force the cover-free engine (error if infeasible).
    CoverFree,
}

/// Router configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouterConfig {
    /// Engine selection.
    pub mode: RoutingMode,
}

/// Bits per Reed–Solomon symbol (field GF(2^8)); the wire slot is one bit
/// wider (a validity flag).
pub(crate) const SYMBOL_BITS: u32 = 8;

/// Error-correction slack added on top of the `2·⌊αn⌋` worst-case
/// adversarial symbol corruptions.
const EXTRA_ERROR_SLACK: usize = 1;

/// Which engine actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUsed {
    /// Scheduled unit instances.
    Unit,
    /// Cover-free parallel routing.
    CoverFree,
}

/// Execution report for a routing call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingReport {
    /// Engine that ran.
    pub engine: EngineUsed,
    /// Network rounds consumed.
    pub rounds: u64,
    /// Unit engine: number of stages scheduled (1 for cover-free).
    pub stages: usize,
    /// Payload chunks per message.
    pub chunks: usize,
    /// Codeword decodes that failed (0 when the adversary is within the
    /// validated margin).
    pub decode_failures: usize,
}

/// Routing results: `delivered[v]` maps `(src, slot)` to the payload `v`
/// decoded. `BTreeMap` so iteration order is identical on every process —
/// the determinism invariant `clippy.toml`'s hash-container ban enforces.
#[derive(Debug, Clone)]
pub struct RoutingOutput {
    /// Per-node delivered payloads.
    pub delivered: Vec<BTreeMap<(usize, usize), BitVec>>,
    /// Execution report.
    pub report: RoutingReport,
}

/// Validates `instance` against the network and plans it with the engine
/// `mode` selects. `None` is the plan of a zero-message instance: nothing
/// is encoded, scattered or decoded, so no margin, family or bandwidth
/// constraint applies and the first step returns a well-formed empty output
/// without running a round.
fn plan(
    net: &Network,
    instance: &RoutingInstance,
    mode: RoutingMode,
) -> Result<(EngineUsed, Option<Box<dyn PackEngine>>), CoreError> {
    instance.validate()?;
    if instance.n != net.n() {
        return Err(CoreError::invalid("instance size != network size"));
    }
    // Both engines scatter codeword symbols through *every* node as a
    // relay, so they are defined only on the complete topology; on a
    // sparse graph the whole routed stack (and everything built on it)
    // reports infeasibility instead of silently dropping frames.
    if !net.topology().is_complete() {
        return Err(CoreError::infeasible(
            "super-message routing requires the complete topology (K_n): the \
             scatter/gather pattern uses every node as a relay"
                .to_string(),
        ));
    }
    if instance.messages.is_empty() {
        let used = match mode {
            RoutingMode::CoverFree => EngineUsed::CoverFree,
            RoutingMode::Unit | RoutingMode::Auto => EngineUsed::Unit,
        };
        return Ok((used, None));
    }
    let unit = || -> Result<(EngineUsed, Option<Box<dyn PackEngine>>), CoreError> {
        let engine = unit::UnitEngine::new(net, instance)?;
        Ok((EngineUsed::Unit, Some(Box::new(engine))))
    };
    match mode {
        RoutingMode::Unit => unit(),
        // Auto probes the cover-free margin first (all its infeasibility
        // checks live in plan derivation, before any round) and falls back
        // to unit scheduling.
        RoutingMode::CoverFree | RoutingMode::Auto => {
            match coverfree::CfEngine::new(net, instance) {
                Ok(engine) => Ok((EngineUsed::CoverFree, Some(Box::new(engine)))),
                Err(CoreError::Infeasible { .. }) if mode == RoutingMode::Auto => unit(),
                Err(e) => Err(e),
            }
        }
    }
}

/// Routes an instance over the network with the configured engine, running
/// the session to completion. Borrows the instance — no payload copies.
///
/// # Errors
///
/// [`CoreError::InvalidInput`] for malformed instances and
/// [`CoreError::Infeasible`] when no engine's decode margin validates for
/// the network's α.
pub fn route(
    net: &mut Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<RoutingOutput, CoreError> {
    let mut session = RouteSession::new(net, instance, cfg, None)?;
    loop {
        if let Some(out) = session.step(net)? {
            return Ok(out);
        }
    }
}

/// Code and wire geometry of a planned instance, derived the same way by
/// both engines once each has fixed its codeword length and redundancy.
pub(crate) struct PackShape {
    pub(crate) code: ReedSolomon,
    /// Codeword length: relay positions per codeword.
    pub(crate) l: usize,
    /// Payload bits per chunk.
    pub(crate) cap_bits: usize,
    /// Chunks per message.
    pub(crate) chunks: usize,
    /// Wire slot width: symbol + validity bit.
    pub(crate) slot: usize,
    /// Work units sharing one round pair (the `B`-fold speedup of Lemma
    /// 2.9 / Theorem 4.1).
    pub(crate) lanes: usize,
}

impl PackShape {
    /// The wire slot width (symbol + validity bit), or why the network
    /// cannot carry one. Checked before an engine sizes anything else.
    pub(crate) fn wire_slot(net: &Network) -> Result<usize, CoreError> {
        let slot = SYMBOL_BITS as usize + 1;
        if net.bandwidth() < slot {
            return Err(CoreError::infeasible(format!(
                "bandwidth {} < wire slot {slot} (symbol + validity bit)",
                net.bandwidth(),
            )));
        }
        Ok(slot)
    }

    /// The shape for `[l, k_rs]` Reed–Solomon codewords over GF(2^8), on
    /// `slot`-bit wire slots ([`PackShape::wire_slot`]).
    pub(crate) fn new(
        net: &Network,
        instance: &RoutingInstance,
        slot: usize,
        l: usize,
        k_rs: usize,
    ) -> Result<Self, CoreError> {
        let code = ReedSolomon::new(SYMBOL_BITS, l, k_rs)
            .map_err(|e| CoreError::infeasible(format!("RS construction: {e}")))?;
        let cap_bits = k_rs * SYMBOL_BITS as usize;
        Ok(Self {
            code,
            l,
            cap_bits,
            chunks: instance.payload_bits.div_ceil(cap_bits).max(1),
            slot,
            lanes: (net.bandwidth() / slot).max(1),
        })
    }
}

/// What an engine call sees of the session: the instance and the current
/// pack — a range into the engine's work list, at most `lanes` long.
pub(crate) struct PackCtx<'a> {
    pub(crate) instance: &'a RoutingInstance,
    pub(crate) pack: Range<usize>,
}

/// A pack's codeword symbols, indexed as the engine that encoded them
/// likes; the session only carries them from round A to the relay gather.
pub(crate) type PackCodewords = Vec<Vec<Vec<u16>>>;

/// One decoded chunk, keyed `(target, msg_idx, chunk)` so folding is
/// order-independent; `None` when the decoder gave up.
pub(crate) type DecodedUnit = ((usize, usize, usize), Option<BitVec>);

/// A routing engine reduced to what differs between the two: its plan and
/// the four pure functions of one pack. [`RouteSession`] drives them and
/// never asks which engine it is serving.
pub(crate) trait PackEngine {
    fn shape(&self) -> &PackShape;

    /// Work units in the whole session; a pack is up to `lanes` consecutive
    /// ones.
    fn work_len(&self) -> usize;

    /// [`RoutingReport::stages`].
    fn stages(&self) -> usize;

    /// Block count and row offsets of the [`RelayGrid`] that
    /// [`PackEngine::gather`] fills for `pack` — a function of the plan
    /// alone, which is what lets a restored grid be checked against it.
    fn grid_rows(&self, pack: &Range<usize>) -> (usize, Vec<usize>);

    /// Round A: encodes the pack's codewords (counted in `counter`) and
    /// builds the scatter traffic in ascending `(from, to)` order.
    fn build_round_a(
        &self,
        ctx: &PackCtx<'_>,
        counter: Option<&SharedCodewordCache>,
        net: &mut Network,
    ) -> Result<(PackCodewords, Traffic), CoreError>;

    /// What the relays hold after round A, one sentinel-filled block per
    /// [`PackEngine::grid_rows`] block.
    fn gather(
        &self,
        ctx: &PackCtx<'_>,
        codewords: &PackCodewords,
        delivery: &Delivery,
    ) -> Vec<Vec<u16>>;

    /// Round B: the relays' forward traffic. A frame is sent even when the
    /// relay holds nothing (validity bit clear) — the wire behavior the
    /// adversary model and the goldens observe.
    fn build_round_b(&self, ctx: &PackCtx<'_>, relay: &RelayGrid, net: &mut Network) -> Traffic;

    /// Erasure-decodes the pack at its targets.
    fn decode_pack(
        &self,
        ctx: &PackCtx<'_>,
        relay: &RelayGrid,
        delivery: &Delivery,
    ) -> Vec<DecodedUnit>;
}

/// Which half of a pack the session will execute next.
enum Phase {
    /// Scatter codeword symbols to relays.
    RoundA,
    /// Relays forward to targets, holding what they gathered after round A.
    RoundB { relay: RelayGrid },
}

/// A routing call in flight — the two-round scatter/gather loop both
/// engines share, as a resumable session: every [`RouteSession::step`]
/// executes exactly one `exchange` (round A or round B of the current pack),
/// so callers (protocol sessions, the driver) can observe or intervene
/// between rounds; the step that completes the final pack also assembles the
/// output. Engine selection and feasibility validation happen at
/// construction, before any round runs; [`route`] is a thin loop over this
/// type. Within a step the engine fans the pack's encode, gather and decode
/// out across the rayon pool; results are always folded in deterministic
/// work-unit order, so the output does not depend on the pool's size.
/// Codewords are encoded lazily, per pack, and counted in a shared
/// [`CodewordCache`] when one is given.
pub struct RouteSession<'i> {
    instance: Cow<'i, RoutingInstance>,
    used: EngineUsed,
    /// `None` for a zero-message instance (see [`plan`]).
    engine: Option<Box<dyn PackEngine>>,
    counter: Option<SharedCodewordCache>,
    /// Adversarial symbols per codeword the chosen code absorbs
    /// (`2·⌊αn⌋ + slack` at construction; `usize::MAX` when nothing is
    /// decoded). Re-validated every step against the network's *current*
    /// budget — see [`check_budget`].
    e_allow: usize,
    /// Start of the current pack within the engine's work list.
    pack_start: usize,
    phase: Phase,
    /// Decoded chunks per `(target, msg_idx)`, zero-filled until their pack
    /// has run; ordered so output assembly never iterates a hash map.
    chunk_store: BTreeMap<(usize, usize), Vec<BitVec>>,
    delivered: DeliveredMaps,
    decode_failures: usize,
    rounds_before: u64,
    /// Set once the output has been assembled; stepping again is an error
    /// (the drained state could otherwise masquerade as an empty result).
    finished: bool,
}

impl<'i> RouteSession<'i> {
    /// Validates the instance and plans it with the configured engine. The
    /// instance comes owned (protocol sessions hand over the waves they
    /// build, clone-free) or borrowed ([`route`]'s zero-copy path). With a
    /// `counter`, every codeword the session encodes is added to it; wire
    /// behavior and outputs are bit-identical to the session without one.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for malformed instances and
    /// [`CoreError::Infeasible`] when no engine's decode margin validates
    /// for the network's α. No rounds run on the error path.
    pub fn new(
        net: &Network,
        instance: impl Into<Cow<'i, RoutingInstance>>,
        cfg: &RouterConfig,
        counter: Option<SharedCodewordCache>,
    ) -> Result<Self, CoreError> {
        let instance = instance.into();
        let (used, engine) = plan(net, &instance, cfg.mode)?;
        Ok(Self::planned(net, instance, counter, used, engine))
    }

    /// The session at its first step, over an already planned engine.
    fn planned(
        net: &Network,
        instance: Cow<'i, RoutingInstance>,
        counter: Option<SharedCodewordCache>,
        used: EngineUsed,
        engine: Option<Box<dyn PackEngine>>,
    ) -> Self {
        let mut delivered: DeliveredMaps = vec![BTreeMap::new(); instance.n];
        // Local deliveries (target == src) never touch the network.
        for msg in &instance.messages {
            if msg.targets.contains(&msg.src) {
                delivered[msg.src].insert((msg.src, msg.slot), msg.payload.clone());
            }
        }
        let e_allow = match engine {
            Some(_) => absorbed_error_budget(net),
            None => usize::MAX,
        };
        Self {
            instance,
            used,
            engine,
            counter,
            e_allow,
            pack_start: 0,
            phase: Phase::RoundA,
            chunk_store: BTreeMap::new(),
            delivered,
            decode_failures: 0,
            rounds_before: net.rounds(),
            finished: false,
        }
    }

    /// The engine, if it has work left at `pack_start`, and the pack there.
    /// Takes the fields rather than `&self` so [`RouteSession::step`] can
    /// keep the engine borrowed while it moves the cursor.
    fn pack_at(
        engine: Option<&dyn PackEngine>,
        pack_start: usize,
    ) -> Option<(&dyn PackEngine, Range<usize>)> {
        let engine = engine?;
        let end = (pack_start + engine.shape().lanes).min(engine.work_len());
        (pack_start < end).then_some((engine, pack_start..end))
    }

    /// Advances at most one `exchange`; returns `Some(output)` once the
    /// final round of the instance has run. Stepping a completed session is
    /// an error, not an empty result.
    ///
    /// # Errors
    ///
    /// Propagates engine errors ([`CoreError`]).
    pub fn step(&mut self, net: &mut Network) -> Result<Option<RoutingOutput>, CoreError> {
        if self.finished {
            return Err(CoreError::invalid(
                "routing session stepped after completion",
            ));
        }
        let Some((engine, pack)) = Self::pack_at(self.engine.as_deref(), self.pack_start) else {
            return Ok(Some(self.finish(net)));
        };
        check_budget(net, self.e_allow)?;
        let ctx = PackCtx {
            instance: &self.instance,
            pack,
        };
        match std::mem::replace(&mut self.phase, Phase::RoundA) {
            Phase::RoundA => {
                let (codewords, traffic) =
                    engine.build_round_a(&ctx, self.counter.as_ref(), net)?;
                let delivery = net.exchange(traffic);
                let blocks = engine.gather(&ctx, &codewords, &delivery);
                net.reclaim(delivery);
                let (_, row_offsets) = engine.grid_rows(&ctx.pack);
                self.phase = Phase::RoundB {
                    relay: RelayGrid::from_blocks(blocks, row_offsets),
                };
            }
            Phase::RoundB { relay } => {
                let traffic = engine.build_round_b(&ctx, &relay, net);
                let delivery = net.exchange(traffic);
                let decoded = engine.decode_pack(&ctx, &relay, &delivery);
                net.reclaim(delivery);
                let shape = engine.shape();
                let (chunks, cap_bits) = (shape.chunks, shape.cap_bits);
                self.pack_start += shape.lanes;
                for ((x, mi, chunk), bits) in decoded {
                    if bits.is_none() {
                        self.decode_failures += 1;
                    }
                    // Keyed writes, so the fold is order-independent.
                    self.chunk_store
                        .entry((x, mi))
                        .or_insert_with(|| vec![BitVec::zeros(cap_bits); chunks])[chunk] =
                        bits.unwrap_or_else(|| BitVec::zeros(cap_bits));
                }
                if self.pack_start >= engine.work_len() {
                    return Ok(Some(self.finish(net)));
                }
            }
        }
        Ok(None)
    }

    /// Assembles the chunked payloads into the final output.
    fn finish(&mut self, net: &Network) -> RoutingOutput {
        self.finished = true;
        let mut delivered = std::mem::take(&mut self.delivered);
        for ((x, mi), chunks) in std::mem::take(&mut self.chunk_store) {
            let msg = &self.instance.messages[mi];
            let mut full = BitVec::concat(chunks.iter());
            full.truncate(msg.payload.len());
            delivered[x].insert((msg.src, msg.slot), full);
        }
        let (stages, chunks) = self
            .engine
            .as_deref()
            .map_or((0, 0), |e| (e.stages(), e.shape().chunks));
        RoutingOutput {
            delivered,
            report: RoutingReport {
                engine: self.used,
                rounds: net.rounds() - self.rounds_before,
                stages,
                chunks,
                decode_failures: self.decode_failures,
            },
        }
    }

    /// Serializes the session's dynamic state: engine discriminant, the
    /// instance, and everything [`RouteSession::new`] cannot re-derive —
    /// the cursor into the work list, relay holdings, and decoded chunks. A
    /// session is always exactly between two steps, so there is nothing to
    /// settle first.
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_u8(match self.used {
            EngineUsed::Unit => 0,
            EngineUsed::CoverFree => 1,
        });
        self.instance.snapshot(enc);
        enc.put_usize(self.e_allow);
        enc.put_usize(self.pack_start);
        match &self.phase {
            Phase::RoundA => enc.put_u8(0),
            Phase::RoundB { relay } => {
                enc.put_u8(1);
                relay.snapshot(enc);
            }
        }
        let entries: Vec<(&(usize, usize), &Vec<BitVec>)> = self.chunk_store.iter().collect();
        enc.put_seq(&entries, |e, ((x, mi), chunks)| {
            e.put_usize(*x);
            e.put_usize(*mi);
            e.put_seq(chunks, |e, b| e.put_bits(b));
        });
        snapshot_delivered(&self.delivered, enc);
        enc.put_usize(self.decode_failures);
        enc.put_u64(self.rounds_before);
        enc.put_bool(self.finished);
    }

    /// Reopens a session from state written by [`RouteSession::snapshot`].
    /// The engine recorded in the snapshot is rebuilt directly (no Auto
    /// re-probe, so a borderline margin cannot flip engines across a
    /// restore), its derived plan re-computed from the decoded instance,
    /// and the dynamic state overlaid.
    ///
    /// # Errors
    ///
    /// [`CoreError`] on corrupt state or when the network's parameters no
    /// longer match the snapshotted session's (e.g. a mid-run α change).
    pub(crate) fn restore(
        net: &Network,
        counter: Option<SharedCodewordCache>,
        dec: &mut Dec<'_>,
    ) -> Result<RouteSession<'static>, CoreError> {
        let mode = match dec.get_u8()? {
            0 => RoutingMode::Unit,
            1 => RoutingMode::CoverFree,
            t => return Err(CoreError::invalid(format!("snapshot: engine tag {t}"))),
        };
        let instance = RoutingInstance::restore(dec)?;
        let (used, engine) = plan(net, &instance, mode)?;
        let mut session = RouteSession::planned(net, Cow::Owned(instance), counter, used, engine);
        session.overlay_state(net, dec)?;
        Ok(session)
    }

    /// Overlays the dynamic state [`RouteSession::snapshot`] wrote after the
    /// instance onto a freshly planned session (same plan, schedule, family
    /// and code — all deterministic functions of the instance and engine).
    /// Every index a later [`RouteSession::step`] or `finish` follows is
    /// checked here against the rebuilt plan, so a structurally valid but
    /// inconsistent snapshot is an error now rather than a panic later.
    fn overlay_state(&mut self, net: &Network, dec: &mut Dec<'_>) -> Result<(), CoreError> {
        let bad = |what: &str| CoreError::invalid(format!("snapshot: {what}"));
        let e_allow = dec.get_usize()?;
        if e_allow != self.e_allow {
            return Err(CoreError::invalid(format!(
                "snapshot: absorbed error budget drifted across restore \
                 (saved {e_allow}, rebuilt {})",
                self.e_allow
            )));
        }
        let (work_len, lanes, chunks, cap_bits) =
            self.engine.as_deref().map_or((0, 1, 0, 0), |e| {
                let shape = e.shape();
                (e.work_len(), shape.lanes, shape.chunks, shape.cap_bits)
            });
        self.pack_start = dec.get_usize()?;
        if !self.pack_start.is_multiple_of(lanes)
            || self.pack_start > work_len.next_multiple_of(lanes)
        {
            return Err(bad("pack cursor off the work list"));
        }
        let pack = Self::pack_at(self.engine.as_deref(), self.pack_start);
        self.phase = match (dec.get_u8()?, pack) {
            (0, _) => Phase::RoundA,
            (1, Some((engine, pack))) => {
                let (blocks, row_offsets) = engine.grid_rows(&pack);
                Phase::RoundB {
                    relay: RelayGrid::restore(dec, blocks, row_offsets)?,
                }
            }
            (1, None) => return Err(bad("round B past the last pack")),
            (t, _) => return Err(bad(&format!("phase tag {t}"))),
        };
        let entries = dec.get_seq(24, |d| {
            let x = d.get_usize()?;
            let mi = d.get_usize()?;
            let stored = d.get_seq(8, Dec::get_bits)?;
            Ok(((x, mi), stored))
        })?;
        self.chunk_store = BTreeMap::new();
        let mut last = None;
        for ((x, mi), stored) in entries {
            if last.is_some_and(|p| p >= (x, mi)) {
                return Err(bad("chunk store out of order"));
            }
            last = Some((x, mi));
            let fits = x < self.instance.n
                && mi < self.instance.messages.len()
                && stored.len() == chunks
                && stored.iter().all(|b| b.len() == cap_bits);
            if !fits {
                return Err(bad("chunk store entry does not fit the plan"));
            }
            self.chunk_store.insert((x, mi), stored);
        }
        self.delivered = restore_delivered(dec)?;
        if self.delivered.len() != self.instance.n {
            return Err(bad("delivered table size mismatch"));
        }
        self.decode_failures = dec.get_usize()?;
        self.rounds_before = dec.get_u64()?;
        if self.rounds_before > net.rounds() {
            return Err(bad("session starts after the network's clock"));
        }
        self.finished = dec.get_bool()?;
        Ok(())
    }
}

/// Reads lane `lane`'s symbol out of a wire frame, `None` when the frame is
/// too short or its validity bit is clear. Shared wire format of both
/// engines: `lanes` slots of `slot = SYMBOL_BITS + 1` bits, validity first.
pub(crate) fn lane_symbol(frame: &bdclique_bits::BitVec, lane: usize, slot: usize) -> Option<u16> {
    (frame.len() >= (lane + 1) * slot && frame.get(lane * slot))
        .then(|| frame.read_uint(lane * slot + 1, SYMBOL_BITS) as u16)
}

/// Adversarial symbols per codeword a session must absorb at the network's
/// *current* fault budget: `2·⌊αn⌋` (one budget's worth per round of the
/// two-round scatter/gather) plus [`EXTRA_ERROR_SLACK`]. The single
/// definition both engines size their codes from at construction **and**
/// [`check_budget`] re-evaluates on every step — keeping them one function
/// is what makes the mid-session re-validation trustworthy.
pub(crate) fn absorbed_error_budget(net: &Network) -> usize {
    2 * net.fault_budget() + EXTRA_ERROR_SLACK
}

/// Decode margins are fixed at session construction from the then-current
/// fault budget; a [`Network::set_alpha`](bdclique_netsim::Network::set_alpha)
/// (e.g. from a scheduled observer) that *raises* the budget mid-session
/// would silently undershoot the decoding radius, so both engines
/// re-validate it before every exchange and refuse to continue once it has
/// grown past the `e_allow` symbols their code absorbs.
pub(crate) fn check_budget(net: &Network, e_allow: usize) -> Result<(), CoreError> {
    let e_now = absorbed_error_budget(net);
    if e_now > e_allow {
        return Err(CoreError::infeasible(format!(
            "fault budget grew mid-session: the code absorbs {e_allow} adversarial symbols \
             per codeword but the current budget implies {e_now}"
        )));
    }
    Ok(())
}

/// A count of the Reed–Solomon codewords encoded by the routing sessions
/// that share it — what the benchmark reads as `core.routing.cache_misses`
/// and feeds `codes.encode_share_pred`.
///
/// Nothing is cached. The names — `CodewordCache`,
/// [`shared_codeword_cache`] and its ignored argument,
/// `DEFAULT_MAX_SYMBOLS`, the `(hits, misses)` shape of
/// [`CodewordCache::stats`], [`SharedCodewordCache`] and
/// `attach_codeword_cache` — are a cache's only because the frozen
/// `benchmark/` package imports them; ROADMAP's Benchmark v2 item renames
/// them.
#[derive(Debug)]
pub struct CodewordCache {
    encoded: u64,
}

/// A [`CodewordCache`] behind `Arc<Mutex<_>>`, the handle
/// [`RouteSession::new`] accepts so several sessions (protocol waves, a
/// cell's trials) add to one count. The lock is taken once per pack, after
/// the encode fan-out.
pub type SharedCodewordCache = Arc<Mutex<CodewordCache>>;

/// Creates a [`SharedCodewordCache`] at zero. The argument is ignored.
pub fn shared_codeword_cache(_max_symbols: usize) -> SharedCodewordCache {
    Arc::new(Mutex::new(CodewordCache { encoded: 0 }))
}

impl CodewordCache {
    /// What callers pass to [`shared_codeword_cache`].
    pub const DEFAULT_MAX_SYMBOLS: usize = 0;

    /// `(0, codewords encoded)`, in the `(hits, misses)` shape its readers
    /// expect. A function of the instances routed, not of how their
    /// fan-outs interleaved.
    pub fn stats(&self) -> (u64, u64) {
        (0, self.encoded)
    }
}

/// Bits `[chunk·cap, (chunk+1)·cap)` of `payload`, zero-padded to `cap` —
/// the chunk both engines encode. Shared so the wire content cannot drift
/// between them.
pub(crate) fn payload_chunk(payload: &BitVec, chunk: usize, cap: usize) -> BitVec {
    let start = chunk * cap;
    let end = ((chunk + 1) * cap).min(payload.len());
    let mut bits = BitVec::zeros(cap);
    if start < payload.len() {
        bits.write_bits(0, &payload.slice(start, end));
    }
    bits
}

/// Encodes `jobs` (outer: work unit, inner: that unit's chunks) into
/// codewords, fanning the units out across the rayon pool, and adds their
/// number to `counter` once the fan-out is done.
pub(crate) fn encode_chunks(
    code: &ReedSolomon,
    counter: Option<&SharedCodewordCache>,
    jobs: Vec<Vec<BitVec>>,
) -> Result<Vec<Vec<Vec<u16>>>, CoreError> {
    let encoded: Vec<Result<Vec<Vec<u16>>, CoreError>> = jobs
        .into_par_iter()
        .map(|unit| {
            unit.iter()
                .map(|bits| {
                    code.encode_bits(bits)
                        .map_err(|e| CoreError::invalid(format!("encode: {e}")))
                })
                .collect()
        })
        .collect();
    let out: Vec<Vec<Vec<u16>>> = encoded.into_iter().collect::<Result<_, _>>()?;
    if let Some(counter) = counter {
        let codewords: usize = out.iter().map(Vec::len).sum();
        counter.lock().expect("encode counter poisoned").encoded += codewords as u64;
    }
    Ok(out)
}

/// Dense relay holdings for one pack, flattened into a single contiguous
/// buffer: block-major (`block` is the relay `w` for the unit engine, the
/// lane for the cover-free engine), with per-row offsets shared by every
/// block. The round-B forward-planning and decode loops walk `syms`
/// linearly; the cover-free engine's round 2 reads it frame by frame in
/// edge order, every lane of a `(message, position)` cell at once (see
/// [`coverfree`]'s frame assembly).
///
/// Absent symbols (erasures) are stored as [`RelayGrid::ABSENT`]; valid
/// symbols are field elements `< 2^8 ≤ 255`, so the sentinel is
/// unambiguous.
pub(crate) struct RelayGrid {
    syms: Vec<u16>,
    /// `row_offsets[row]` is the row's start within a block;
    /// `row_offsets[rows]` is the block stride.
    row_offsets: Vec<usize>,
}

impl RelayGrid {
    /// Sentinel for "relay holds nothing here" (a downstream erasure).
    pub(crate) const ABSENT: u16 = u16::MAX;

    /// Assembles per-block flat rows (each `row_offsets.last()` long,
    /// already sentinel-filled) produced by [`PackEngine::gather`]'s fan-out.
    pub(crate) fn from_blocks(blocks: Vec<Vec<u16>>, row_offsets: Vec<usize>) -> Self {
        let stride = row_offsets.last().copied().unwrap_or(0);
        let mut syms = Vec::with_capacity(blocks.len() * stride);
        for block in blocks {
            debug_assert_eq!(block.len(), stride);
            syms.extend_from_slice(&block);
        }
        Self { syms, row_offsets }
    }

    /// Uniform row offsets (`rows` rows of `width` positions each), for
    /// grids whose rows all have the same length.
    pub(crate) fn uniform_offsets(rows: usize, width: usize) -> Vec<usize> {
        (0..=rows).map(|r| r * width).collect()
    }

    #[inline]
    fn stride(&self) -> usize {
        self.row_offsets.last().copied().unwrap_or(0)
    }

    /// The symbol at `(block, row, pos)`, `None` when absent.
    #[inline]
    pub(crate) fn get(&self, block: usize, row: usize, pos: usize) -> Option<u16> {
        let s = self.syms[block * self.stride() + self.row_offsets[row] + pos];
        (s != Self::ABSENT).then_some(s)
    }

    /// Serializes the held symbols (a mid-pack snapshot holds a grid between
    /// round A and round B). The row offsets are the plan's, not state.
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_seq(&self.syms, |e, &s| e.put_u16(s));
    }

    /// Decodes a grid written by [`RelayGrid::snapshot`] into the `blocks` ×
    /// `row_offsets` shape the rebuilt plan expects, so every in-shape
    /// [`RelayGrid::get`] stays in bounds.
    pub(crate) fn restore(
        dec: &mut Dec<'_>,
        blocks: usize,
        row_offsets: Vec<usize>,
    ) -> Result<Self, SnapError> {
        let grid = Self {
            syms: dec.get_seq(2, Dec::get_u16)?,
            row_offsets,
        };
        if grid.syms.len() != blocks * grid.stride() {
            return Err(SnapError::corrupt(format!(
                "relay grid of {} symbols, the plan holds {blocks} blocks of {}",
                grid.syms.len(),
                grid.stride()
            )));
        }
        Ok(grid)
    }
}

/// Per-node delivered payloads: `delivered[v]` maps `(src, slot)` to bits.
pub(crate) type DeliveredMaps = Vec<BTreeMap<(usize, usize), BitVec>>;

/// Serializes per-node delivered payloads in ascending key order — the
/// deterministic encoding both engines' snapshots share. `BTreeMap`
/// iteration is already ascending by key, so the encoding is byte-identical
/// to the sorted `HashMap` encoding it replaces.
pub(crate) fn snapshot_delivered(delivered: &[BTreeMap<(usize, usize), BitVec>], enc: &mut Enc) {
    enc.put_usize(delivered.len());
    for per_node in delivered {
        let entries: Vec<(&(usize, usize), &BitVec)> = per_node.iter().collect();
        enc.put_seq(&entries, |e, ((src, slot), bits)| {
            e.put_usize(*src);
            e.put_usize(*slot);
            e.put_bits(bits);
        });
    }
}

/// Decodes what [`snapshot_delivered`] wrote, rejecting out-of-order keys
/// (which would break byte-identical re-encoding).
pub(crate) fn restore_delivered(dec: &mut Dec<'_>) -> Result<DeliveredMaps, SnapError> {
    let n = dec.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut last: Option<(usize, usize)> = None;
        let entries = dec.get_seq(24, |d| {
            let src = d.get_usize()?;
            let slot = d.get_usize()?;
            let bits = d.get_bits()?;
            Ok(((src, slot), bits))
        })?;
        let mut map = BTreeMap::new();
        for ((src, slot), bits) in entries {
            if last.is_some_and(|p| p >= (src, slot)) {
                return Err(SnapError::corrupt("delivered entries out of order"));
            }
            last = Some((src, slot));
            map.insert((src, slot), bits);
        }
        out.push(map);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::{Adversary, Network};

    #[test]
    fn relay_grid_roundtrips_ragged_rows() {
        // Two blocks, rows of widths 2 and 3 (offsets [0, 2, 5]).
        let offsets = vec![0usize, 2, 5];
        let blocks = vec![
            vec![7, RelayGrid::ABSENT, 1, 2, 3],
            vec![RelayGrid::ABSENT, 9, 4, RelayGrid::ABSENT, 6],
        ];
        let grid = RelayGrid::from_blocks(blocks, offsets);
        assert_eq!(grid.get(0, 0, 0), Some(7));
        assert_eq!(grid.get(0, 0, 1), None);
        assert_eq!(grid.get(0, 1, 2), Some(3));
        assert_eq!(grid.get(1, 0, 1), Some(9));
        assert_eq!(grid.get(1, 1, 0), Some(4));
        assert_eq!(grid.get(1, 1, 1), None);
        assert_eq!(grid.get(1, 1, 2), Some(6));
    }

    #[test]
    fn payload_chunk_pads_and_slices() {
        let payload = BitVec::from_fn(10, |i| i % 2 == 0);
        let c0 = payload_chunk(&payload, 0, 8);
        assert_eq!(c0, payload.slice(0, 8));
        let c1 = payload_chunk(&payload, 1, 8);
        assert_eq!(c1.len(), 8);
        assert_eq!(c1.slice(0, 2), payload.slice(8, 10));
        assert_eq!(c1.count_ones(), payload.slice(8, 10).count_ones());
        // Entirely past the payload: all zeros.
        assert_eq!(payload_chunk(&payload, 2, 8), BitVec::zeros(8));
    }

    /// Both routed engines address every node as a relay, so a sparse
    /// topology is rejected as infeasible before any round runs.
    #[test]
    fn sparse_topology_is_infeasible_for_routing() {
        use bdclique_netsim::Topology;
        let instance = RoutingInstance {
            n: 8,
            payload_bits: 8,
            messages: vec![SuperMessage {
                src: 0,
                slot: 0,
                payload: BitVec::from_fn(8, |i| i % 2 == 0),
                targets: vec![3],
            }],
        };
        for mode in [RoutingMode::Auto, RoutingMode::Unit, RoutingMode::CoverFree] {
            let mut net = Network::on_topology(Topology::ring(8), 9, 0.0, Adversary::none());
            let cfg = RouterConfig { mode };
            assert!(
                matches!(
                    route(&mut net, &instance, &cfg),
                    Err(CoreError::Infeasible { .. })
                ),
                "{mode:?} must refuse a sparse topology"
            );
            assert_eq!(net.rounds(), 0, "no round may run on the error path");
        }
    }

    /// Both engines at a shape with two lanes, several chunks and at least
    /// two packs, under an adaptive flipper inside the decode margin.
    fn checkpoint_cases() -> Vec<(RouterConfig, RoutingInstance)> {
        let instance = |n: usize, k: usize, payload_bits: usize| RoutingInstance {
            n,
            payload_bits,
            messages: (0..n)
                .flat_map(|u| (0..k).map(move |j| (u, j)))
                .map(|(u, j)| SuperMessage {
                    src: u,
                    slot: j,
                    payload: BitVec::from_fn(payload_bits, |i| (i * 7 + u + 3 * j) % 5 < 2),
                    targets: vec![(u + j * 9 + 1) % n],
                })
                .collect(),
        };
        [
            (RoutingMode::Unit, instance(16, 3, 100)),
            (RoutingMode::CoverFree, instance(256, 2, 400)),
        ]
        .into_iter()
        .map(|(mode, inst)| {
            let cfg = RouterConfig { mode };
            (cfg, inst)
        })
        .collect()
    }

    fn attacked_net(n: usize) -> Network {
        use bdclique_adversary::{adaptive::GreedyLoad, Payload};
        let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 0x5eed));
        Network::new(n, 18, 1.2 / n as f64, adversary)
    }

    fn session_bytes(session: &RouteSession<'_>) -> Vec<u8> {
        let mut enc = Enc::new();
        session.snapshot(&mut enc);
        enc.into_bytes()
    }

    fn reopen(net: &Network, bytes: &[u8]) -> Result<RouteSession<'static>, CoreError> {
        let mut dec = Dec::new(bytes);
        let session = RouteSession::restore(net, None, &mut dec)?;
        dec.finish()?;
        Ok(session)
    }

    /// A session restored from its own bytes at any step boundary finishes
    /// exactly like the uninterrupted run, and re-encodes byte-identically.
    #[test]
    fn restored_session_resumes_identically_at_every_step() {
        for (cfg, inst) in checkpoint_cases() {
            let mode = cfg.mode;
            let mut net = attacked_net(inst.n);
            let want = route(&mut net, &inst, &cfg).unwrap();
            let want_stats = *net.stats();
            assert!(want_stats.edges_corrupted > 0, "{mode:?}: adversary idle");
            assert!(want.report.chunks >= 2, "{mode:?}: single chunk");
            let steps = want.report.rounds as usize;
            assert!(steps >= 4, "{mode:?}: needs two packs, ran {steps} rounds");

            for crash in 0..steps {
                let mut net = attacked_net(inst.n);
                let mut session = RouteSession::new(&net, &inst, &cfg, None).unwrap();
                for _ in 0..crash {
                    assert!(session.step(&mut net).unwrap().is_none());
                }
                let bytes = session_bytes(&session);
                drop(session);
                let mut resumed = reopen(&net, &bytes).unwrap();
                assert_eq!(session_bytes(&resumed), bytes, "{mode:?} @ {crash}");
                let got = loop {
                    if let Some(out) = resumed.step(&mut net).unwrap() {
                        break out;
                    }
                };
                assert_eq!(got.delivered, want.delivered, "{mode:?} @ {crash}");
                assert_eq!(got.report, want.report, "{mode:?} @ {crash}");
                assert_eq!(*net.stats(), want_stats, "{mode:?} @ {crash}");
            }
        }
    }

    /// A structurally valid snapshot whose indices do not fit the rebuilt
    /// plan is refused at restore — it used to be accepted and panic a
    /// later step (`RelayGrid::get`, `slot_entry[chunk]`, `delivered[x]`).
    #[test]
    fn restore_refuses_state_that_does_not_fit_the_plan() {
        for (cfg, inst) in checkpoint_cases() {
            let mode = cfg.mode;
            let mut net = attacked_net(inst.n);
            let mut session = RouteSession::new(&net, &inst, &cfg, None).unwrap();
            // Into round B of the second pack: a relay grid is held and the
            // first pack's chunks are in the store.
            for _ in 0..3 {
                assert!(session.step(&mut net).unwrap().is_none());
            }
            let good = session_bytes(&session);
            let lanes = 2;
            let work_len = session.engine.as_deref().unwrap().work_len();
            assert_eq!(session.pack_start, lanes);
            assert!(!session.chunk_store.is_empty());

            let grid = |s: &mut RouteSession<'_>, keep: fn(&RelayGrid) -> usize| match &mut s.phase
            {
                Phase::RoundB { relay } => {
                    let keep = keep(relay);
                    relay.syms.truncate(keep);
                }
                Phase::RoundA => panic!("expected a held relay grid"),
            };
            type Tamper<'a> = Box<dyn Fn(&mut RouteSession<'_>) + 'a>;
            let n = inst.n;
            let num_msgs = inst.messages.len();
            let cases: Vec<(&str, Tamper<'_>)> = vec![
                ("empty grid", Box::new(|s| grid(s, |_| 0))),
                (
                    "grid one row short",
                    Box::new(|s| {
                        grid(s, |g| {
                            let rows = g.row_offsets.len() - 1;
                            g.syms.len() - (g.row_offsets[rows] - g.row_offsets[rows - 1])
                        })
                    }),
                ),
                ("cursor off by one", Box::new(|s| s.pack_start += 1)),
                (
                    "cursor past the end, mid-pack",
                    Box::new(move |s| s.pack_start = work_len.next_multiple_of(lanes)),
                ),
                (
                    "cursor past the end, between packs",
                    Box::new(move |s| {
                        s.phase = Phase::RoundA;
                        s.pack_start = work_len.next_multiple_of(lanes) + lanes;
                    }),
                ),
                (
                    "chunk vector one short",
                    Box::new(|s| {
                        s.chunk_store.values_mut().next().unwrap().pop();
                    }),
                ),
                (
                    "target index = n",
                    Box::new(move |s| {
                        let stored = s.chunk_store.values().next().unwrap().clone();
                        s.chunk_store.insert((n, 0), stored);
                    }),
                ),
                (
                    "message index past the instance",
                    Box::new(move |s| {
                        let stored = s.chunk_store.values().next().unwrap().clone();
                        s.chunk_store.insert((0, num_msgs), stored);
                    }),
                ),
            ];
            for (what, tamper) in cases {
                let mut doctored = reopen(&net, &good).unwrap();
                tamper(&mut doctored);
                let bad = session_bytes(&doctored);
                assert_ne!(bad, good, "{mode:?}: {what} changed nothing");
                let err = reopen(&net, &bad)
                    .err()
                    .unwrap_or_else(|| panic!("{mode:?}: {what} must be refused"));
                assert!(
                    matches!(err, CoreError::InvalidInput { .. }),
                    "{what}: {err}"
                );
            }
        }
    }

    /// An attached encode counter changes nothing a session produces, on
    /// either engine and on any pool size, and reads the same on all of
    /// them: one encode per (message, chunk).
    #[test]
    fn encode_counter_is_outcome_neutral_and_deterministic() {
        for (cfg, inst) in checkpoint_cases() {
            let mode = cfg.mode;
            let run = |counter: Option<SharedCodewordCache>| {
                let mut net = attacked_net(inst.n);
                let mut session = RouteSession::new(&net, &inst, &cfg, counter).unwrap();
                loop {
                    if let Some(out) = session.step(&mut net).unwrap() {
                        return (out.delivered, out.report, *net.stats());
                    }
                }
            };
            let plain = run(None);
            let encodes = (inst.messages.len() * plain.1.chunks) as u64;
            for threads in [1, 2] {
                let counter = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
                let counted = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| run(Some(counter.clone())));
                assert_eq!(counted, plain, "{mode:?} on {threads} thread(s)");
                assert_eq!(
                    counter.lock().unwrap().stats(),
                    (0, encodes),
                    "{mode:?} on {threads} thread(s)"
                );
            }
        }
    }
}

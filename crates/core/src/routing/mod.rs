//! Resilient super-message routing (Theorem 4.1 / Theorem 1.1).
//!
//! An instance consists of super-messages, each identified by `(src, slot)`
//! with a payload of at most `payload_bits` bits and a target list known to
//! all nodes. Two execution engines implement the same contract:
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

pub mod coverfree;
pub mod unit;

use crate::error::CoreError;
use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon, SymbolCode};
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc, SnapError};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
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
        let mut seen = std::collections::HashSet::new();
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

/// Router tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Engine selection.
    pub mode: RoutingMode,
    /// Fan the per-pack encode (round-A frame assembly) and decode (round-B
    /// erasure decoding) out across the rayon thread pool. Bit-identical to
    /// the serial path (`false` — the oracle behind
    /// [`unit::route_unit_serial`] / [`coverfree::route_coverfree_serial`]);
    /// network rounds themselves stay strictly sequential either way.
    pub parallel: bool,
    /// Run the session on the **event-driven pack executor**: round-A
    /// codeword encoding and frame assembly for upcoming packs run ahead of
    /// the network's virtual clock on the shared worker pool
    /// ([`crate::exec`]), staging finished batches on a
    /// [`bdclique_netsim::MessageBus`] keyed by virtual delivery time, while
    /// round-B erasure decoding drains asynchronously behind it. Exchanges
    /// themselves stay strictly serialized in virtual-round order (the
    /// mobile adversary acts per virtual round), so wire content, stats,
    /// history digests, and outputs are bit-identical to the lockstep path —
    /// property-tested in `tests/event_identity.rs`. Costs one instance
    /// clone on the borrowed-[`route`] path (background tasks need owned
    /// data); [`RouteSession::new`]/[`RouteSession::new_cached`] hand over
    /// ownership and pay nothing.
    pub event_driven: bool,
    /// Bits per Reed–Solomon symbol (field GF(2^m)); the wire slot is one
    /// bit wider (a validity flag).
    pub symbol_bits: u32,
    /// Extra error-correction slack added on top of the `2·⌊αn⌋` worst-case
    /// adversarial symbol corruptions.
    pub extra_error_slack: usize,
    /// Cover-free engine: ground-group size (elements per group); the
    /// receiver-set size is `n / group_size`. `None` picks
    /// `max(4, 2·k)` where `k` is the instance's multiplicity.
    pub cf_group_size: Option<usize>,
    /// Cover-free engine: maximum acceptable verified cover fraction δ.
    pub cf_delta: f64,
    /// Cover-free engine: seed-retry budget for the verified construction.
    pub cf_seed_tries: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            mode: RoutingMode::Auto,
            parallel: true,
            event_driven: false,
            symbol_bits: 8,
            extra_error_slack: 1,
            cf_group_size: None,
            cf_delta: 0.5,
            cf_seed_tries: 64,
        }
    }
}

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
/// the determinism invariant the no-hashmap-iteration lint enforces.
#[derive(Debug, Clone)]
pub struct RoutingOutput {
    /// Per-node delivered payloads.
    pub delivered: Vec<BTreeMap<(usize, usize), BitVec>>,
    /// Execution report.
    pub report: RoutingReport,
}

/// A routing call in flight: one [`RouteSession::step`] advances exactly one
/// network `exchange`, so callers (protocol sessions, the driver) can observe
/// or intervene between rounds. Engine selection and feasibility validation
/// happen at construction, before any round runs — exactly as [`route`]
/// behaved, which is now a thin loop over this type. Codewords are encoded
/// lazily, per pack, optionally through a shared [`CodewordCache`]
/// ([`RouteSession::new_cached`]).
pub struct RouteSession<'i> {
    engine: EngineSession<'i>,
}

enum EngineSession<'i> {
    Unit(unit::UnitSession<'i>),
    CoverFree(coverfree::CfSession<'i>),
}

impl RouteSession<'static> {
    /// Validates the instance and constructs the configured engine's
    /// session. Takes the instance by value — protocol sessions hand over
    /// the waves they build, clone-free.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for malformed instances and
    /// [`CoreError::Infeasible`] when no engine's decode margin validates
    /// for the network's α. No rounds run on the error path.
    pub fn new(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, std::borrow::Cow::Owned(instance), cfg, None)
    }

    /// [`RouteSession::new`] with a shared [`CodewordCache`]: chunks whose
    /// codewords are already resident (from an earlier pack or an earlier
    /// session on the same cache — e.g. a previous protocol wave) skip
    /// re-encoding; misses fall back to the lazy per-pack encode path and
    /// populate the cache. Wire behavior and outputs are bit-identical to
    /// the uncached session.
    ///
    /// # Errors
    ///
    /// As [`RouteSession::new`].
    pub fn new_cached(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
        cache: SharedCodewordCache,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, std::borrow::Cow::Owned(instance), cfg, Some(cache))
    }
}

impl<'i> RouteSession<'i> {
    /// [`RouteSession::new`] over a borrowed instance — the zero-copy path
    /// behind [`route`] for callers that keep ownership.
    ///
    /// # Errors
    ///
    /// As [`RouteSession::new`].
    pub fn borrowed(
        net: &Network,
        instance: &'i RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, std::borrow::Cow::Borrowed(instance), cfg, None)
    }

    fn with_instance(
        net: &Network,
        instance: std::borrow::Cow<'i, RoutingInstance>,
        cfg: &RouterConfig,
        cache: Option<SharedCodewordCache>,
    ) -> Result<Self, CoreError> {
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
        let engine = match cfg.mode {
            RoutingMode::Unit => {
                EngineSession::Unit(unit::UnitSession::new(net, instance, cfg)?.with_cache(cache))
            }
            RoutingMode::CoverFree => EngineSession::CoverFree(
                coverfree::CfSession::new(net, instance, cfg)?.with_cache(cache),
            ),
            // Auto probes the cover-free margin first (all its infeasibility
            // checks live in parameter derivation, before any round), and
            // falls back to unit scheduling while keeping ownership of the
            // instance.
            RoutingMode::Auto => match coverfree::derive_params(net, &instance, cfg) {
                Ok(params) => EngineSession::CoverFree(
                    coverfree::CfSession::from_params(net, instance, cfg, params)?
                        .with_cache(cache),
                ),
                Err(CoreError::Infeasible { .. }) => EngineSession::Unit(
                    unit::UnitSession::new(net, instance, cfg)?.with_cache(cache),
                ),
                Err(e) => return Err(e),
            },
        };
        Ok(Self { engine })
    }

    /// Advances at most one `exchange`; returns `Some(output)` once the
    /// final round of the instance has run. Stepping a completed session is
    /// an error, not an empty result.
    ///
    /// # Errors
    ///
    /// Propagates engine errors ([`CoreError`]).
    pub fn step(&mut self, net: &mut Network) -> Result<Option<RoutingOutput>, CoreError> {
        match &mut self.engine {
            EngineSession::Unit(s) => s.step(net),
            EngineSession::CoverFree(s) => s.step(net),
        }
    }

    /// Serializes the session's dynamic state (engine discriminant, the
    /// instance, the cursor into the work list, relay holdings, and decoded
    /// chunks), quiescing any in-flight event-path work to the current step
    /// boundary first. The session remains valid; continuing to step it is
    /// bit-identical to never having snapshotted.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` so future engines with
    /// non-quiesceable state can decline.
    pub(crate) fn snapshot(&mut self, net: &mut Network, enc: &mut Enc) -> Result<(), CoreError> {
        match &mut self.engine {
            EngineSession::Unit(s) => {
                enc.put_u8(0);
                s.instance_ref().snapshot(enc);
                s.snapshot_state(net, enc);
            }
            EngineSession::CoverFree(s) => {
                enc.put_u8(1);
                s.instance_ref().snapshot(enc);
                s.snapshot_state(net, enc);
            }
        }
        Ok(())
    }

    /// Reopens a session from state written by [`RouteSession::snapshot`].
    /// The engine recorded in the snapshot is rebuilt directly (no Auto
    /// re-probe, so a borderline margin cannot flip engines across a
    /// restore), its derived plan re-computed from `cfg` and the decoded
    /// instance, and the dynamic state overlaid.
    ///
    /// # Errors
    ///
    /// [`CoreError`] on corrupt state or when the network's parameters no
    /// longer match the snapshotted session's (e.g. a mid-run α change).
    pub(crate) fn restore(
        net: &Network,
        cfg: &RouterConfig,
        cache: Option<SharedCodewordCache>,
        dec: &mut Dec<'_>,
    ) -> Result<RouteSession<'static>, CoreError> {
        let tag = dec.get_u8()?;
        let instance = RoutingInstance::restore(dec)?;
        instance.validate()?;
        if instance.n != net.n() {
            return Err(CoreError::invalid(
                "snapshot: instance size != network size",
            ));
        }
        if !net.topology().is_complete() {
            return Err(CoreError::infeasible(
                "super-message routing requires the complete topology (K_n)".to_string(),
            ));
        }
        let engine = match tag {
            0 => EngineSession::Unit(unit::UnitSession::restore(net, instance, cfg, cache, dec)?),
            1 => EngineSession::CoverFree(coverfree::CfSession::restore(
                net, instance, cfg, cache, dec,
            )?),
            t => return Err(CoreError::invalid(format!("snapshot: engine tag {t}"))),
        };
        Ok(RouteSession { engine })
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
    let mut session = RouteSession::borrowed(net, instance, cfg)?;
    loop {
        if let Some(out) = session.step(net)? {
            return Ok(out);
        }
    }
}

/// [`route`] on one thread: the bit-identity oracle for the stage-parallel
/// engines (same pattern as `compile` vs `compile_serial`).
///
/// # Errors
///
/// As [`route`].
pub fn route_serial(
    net: &mut Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<RoutingOutput, CoreError> {
    let cfg = RouterConfig {
        parallel: false,
        ..cfg.clone()
    };
    route(net, instance, &cfg)
}

/// An engine's instance handle: borrowed (the zero-copy [`route`] path) or
/// behind an `Arc` so event-driven background jobs can hold the instance
/// across packs. Owned instances move behind the `Arc` for free; a borrowed
/// instance is cloned only when event mode actually needs owned data.
pub(crate) enum Inst<'i> {
    Borrowed(&'i RoutingInstance),
    Shared(std::sync::Arc<RoutingInstance>),
}

impl std::ops::Deref for Inst<'_> {
    type Target = RoutingInstance;

    fn deref(&self) -> &RoutingInstance {
        match self {
            Inst::Borrowed(i) => i,
            Inst::Shared(i) => i,
        }
    }
}

impl<'i> Inst<'i> {
    pub(crate) fn from_cow(cow: Cow<'i, RoutingInstance>, event: bool) -> Self {
        match cow {
            Cow::Owned(i) => Inst::Shared(std::sync::Arc::new(i)),
            Cow::Borrowed(i) if event => Inst::Shared(std::sync::Arc::new(i.clone())),
            Cow::Borrowed(i) => Inst::Borrowed(i),
        }
    }

    pub(crate) fn shared(&self) -> std::sync::Arc<RoutingInstance> {
        match self {
            Inst::Shared(i) => i.clone(),
            Inst::Borrowed(_) => unreachable!("event mode always holds a shared instance"),
        }
    }
}

/// Maps `f` over work units, fanned out across the rayon pool or on one
/// thread, always collecting in input order — the single switch point
/// between the engines' parallel paths and their serial oracles, so the two
/// cannot drift apart (the `compile` / `compile_serial` pattern).
pub(crate) fn map_units<T, U, F>(parallel: bool, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    use rayon::prelude::*;
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Reads lane `lane`'s symbol out of a wire frame, `None` when the frame is
/// too short or its validity bit is clear. Shared wire format of both
/// engines: `lanes` slots of `slot = symbol_bits + 1` bits, validity first.
pub(crate) fn lane_symbol(
    frame: &bdclique_bits::BitVec,
    lane: usize,
    slot: usize,
    symbol_bits: u32,
) -> Option<u16> {
    (frame.len() >= (lane + 1) * slot && frame.get(lane * slot))
        .then(|| frame.read_uint(lane * slot + 1, symbol_bits) as u16)
}

/// Adversarial symbols per codeword a session must absorb at the network's
/// *current* fault budget: `2·⌊αn⌋` (one budget's worth per round of the
/// two-round scatter/gather) plus the configured slack. The single
/// definition both engines size their codes from at construction **and**
/// [`check_budget`] re-evaluates on every step — keeping them one function
/// is what makes the mid-session re-validation trustworthy.
pub(crate) fn absorbed_error_budget(net: &Network, slack: usize) -> usize {
    2 * net.fault_budget() + slack
}

/// Decode margins are fixed at session construction from the then-current
/// fault budget; a [`Network::set_alpha`](bdclique_netsim::Network::set_alpha)
/// (e.g. from a scheduled observer) that *raises* the budget mid-session
/// would silently undershoot the decoding radius, so both engines
/// re-validate it before every exchange and refuse to continue once it has
/// grown past the `e_allow` symbols their code absorbs.
pub(crate) fn check_budget(net: &Network, e_allow: usize, slack: usize) -> Result<(), CoreError> {
    let e_now = absorbed_error_budget(net, slack);
    if e_now > e_allow {
        return Err(CoreError::infeasible(format!(
            "fault budget grew mid-session: the code absorbs {e_allow} adversarial symbols \
             per codeword but the current budget implies {e_now}"
        )));
    }
    Ok(())
}

/// A content-addressed cache of Reed–Solomon codewords, shared between
/// routing sessions (e.g. the two waves of
/// [`crate::protocols::DetSqrt`]) via [`SharedCodewordCache`].
///
/// Entries are keyed by an FNV-1a digest of the code's parameters and the
/// chunk's bit content, and every hit re-verifies the stored chunk bits by
/// equality — a hash collision degrades to a miss, never a wrong codeword,
/// so the cache is correctness-neutral by construction (systematic RS
/// encoding is a pure function of the chunk). A symbol budget bounds the
/// footprint: once `max_symbols` codeword symbols are resident, further
/// inserts are dropped (first-in wins — the entries most likely to recur,
/// such as the shared all-zero padding chunk, are inserted earliest).
#[derive(Debug)]
pub struct CodewordCache {
    /// digest → entries; each entry keeps the chunk for hit verification.
    map: HashMap<u64, Vec<(BitVec, Vec<u16>)>>,
    /// Codeword symbols currently resident.
    symbols: usize,
    /// Insertion stops once `symbols` would exceed this.
    max_symbols: usize,
    hits: u64,
    misses: u64,
}

/// A [`CodewordCache`] behind `Arc<Mutex<_>>`, the handle
/// [`RouteSession::new_cached`] accepts so several sessions (protocol
/// waves) can share one cache. Engines take the lock in two short batch
/// sections per pack (probe all, insert all), never inside the parallel
/// encode fan-out.
pub type SharedCodewordCache = Arc<Mutex<CodewordCache>>;

/// Creates a [`SharedCodewordCache`] with the given symbol budget
/// ([`CodewordCache::DEFAULT_MAX_SYMBOLS`] is a sensible default).
pub fn shared_codeword_cache(max_symbols: usize) -> SharedCodewordCache {
    Arc::new(Mutex::new(CodewordCache::new(max_symbols)))
}

impl CodewordCache {
    /// Default symbol budget: 2²¹ symbols ≈ 4 MiB of `u16`s — roughly 8k
    /// cached codewords at the `L = 255` codes the large-`n` scenarios use.
    pub const DEFAULT_MAX_SYMBOLS: usize = 1 << 21;

    /// An empty cache holding at most `max_symbols` codeword symbols.
    pub fn new(max_symbols: usize) -> Self {
        Self {
            map: HashMap::new(),
            symbols: 0,
            max_symbols,
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` counters across the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Codeword symbols currently resident.
    pub fn resident_symbols(&self) -> usize {
        self.symbols
    }

    /// FNV-1a over the code's identifying parameters and the chunk's bits,
    /// 64 bits at a time (the trailing partial word reads zero-padded,
    /// matching [`BitVec`]'s equality semantics).
    fn digest(code: &ReedSolomon, chunk: &BitVec) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(code.symbol_bits() as u64);
        mix(code.codeword_len() as u64);
        mix(code.message_len() as u64);
        mix(chunk.len() as u64);
        let mut pos = 0;
        while pos < chunk.len() {
            let width = (chunk.len() - pos).min(64) as u32;
            mix(chunk.read_uint(pos, width));
            pos += 64;
        }
        h
    }

    /// Looks up the codeword for `chunk` under `code`, verifying the stored
    /// chunk by equality before returning it.
    pub fn get(&mut self, code: &ReedSolomon, chunk: &BitVec) -> Option<Vec<u16>> {
        let key = Self::digest(code, chunk);
        let hit = self
            .map
            .get(&key)
            .and_then(|entries| entries.iter().find(|(c, _)| c == chunk))
            .map(|(_, cw)| cw.clone());
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inserts a freshly encoded codeword, unless the symbol budget is
    /// exhausted or an equal chunk is already resident.
    pub fn insert(&mut self, code: &ReedSolomon, chunk: BitVec, codeword: Vec<u16>) {
        if self.symbols + codeword.len() > self.max_symbols {
            return;
        }
        let key = Self::digest(code, &chunk);
        let entries = self.map.entry(key).or_default();
        if entries.iter().any(|(c, _)| c == &chunk) {
            return;
        }
        self.symbols += codeword.len();
        entries.push((chunk, codeword));
    }
}

/// Bits `[chunk·cap, (chunk+1)·cap)` of `payload`, zero-padded to `cap` —
/// the chunk both engines encode. Shared so the cache keys and the wire
/// content cannot drift between them.
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
/// codewords, fanning the units out via [`map_units`]. With a cache, all
/// chunks are probed under one lock acquisition first, only misses are
/// encoded, and fresh codewords are inserted under a second lock — the
/// parallel section never touches the mutex. Encoding is deterministic, so
/// the result is bit-identical with or without the cache, parallel or not.
pub(crate) fn encode_chunks(
    parallel: bool,
    code: &ReedSolomon,
    cache: Option<&SharedCodewordCache>,
    jobs: Vec<Vec<BitVec>>,
) -> Result<Vec<Vec<Vec<u16>>>, CoreError> {
    let encode = |bits: &BitVec| {
        code.encode_bits(bits)
            .map_err(|e| CoreError::invalid(format!("encode: {e}")))
    };
    let Some(cache) = cache else {
        let encoded: Vec<Result<Vec<Vec<u16>>, CoreError>> =
            map_units(parallel, jobs, |unit| unit.iter().map(encode).collect());
        return encoded.into_iter().collect();
    };

    // Probe pass: one lock acquisition for the whole pack.
    let probed: Vec<Vec<(BitVec, Option<Vec<u16>>)>> = {
        let mut c = cache.lock().expect("codeword cache poisoned");
        jobs.into_iter()
            .map(|unit| {
                unit.into_iter()
                    .map(|bits| {
                        let hit = c.get(code, &bits);
                        (bits, hit)
                    })
                    .collect()
            })
            .collect()
    };

    // Encode the misses, fanned out; collect fresh codewords per unit.
    type UnitEncoded = Result<(Vec<Vec<u16>>, Vec<(BitVec, Vec<u16>)>), CoreError>;
    let encoded: Vec<UnitEncoded> = map_units(parallel, probed, |unit| {
        let mut syms = Vec::with_capacity(unit.len());
        let mut fresh = Vec::new();
        for (bits, hit) in unit {
            match hit {
                Some(cw) => syms.push(cw),
                None => {
                    let cw = encode(&bits)?;
                    fresh.push((bits, cw.clone()));
                    syms.push(cw);
                }
            }
        }
        Ok((syms, fresh))
    });

    let mut out = Vec::with_capacity(encoded.len());
    let mut to_insert = Vec::new();
    for unit in encoded {
        let (syms, fresh) = unit?;
        out.push(syms);
        to_insert.extend(fresh);
    }
    if !to_insert.is_empty() {
        let mut c = cache.lock().expect("codeword cache poisoned");
        for (bits, cw) in to_insert {
            c.insert(code, bits, cw);
        }
    }
    Ok(out)
}

/// Dense relay holdings for one pack, flattened into a single contiguous
/// buffer: block-major (`block` is the relay `w` for the unit engine, the
/// lane for the cover-free engine), with per-row offsets shared by every
/// block. The round-B forward-planning and decode loops walk `syms`
/// linearly; the cover-free engine's round-2 planner reads it in (lane,
/// message, position) order into slot entries that are then sorted by edge
/// (see [`coverfree`]'s frame assembly).
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
    /// already sentinel-filled) produced by a [`map_units`] fan-out.
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

    /// Serializes the grid (a mid-pack snapshot holds one between round A
    /// and round B).
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_seq(&self.row_offsets, |e, &o| e.put_usize(o));
        enc.put_seq(&self.syms, |e, &s| e.put_u16(s));
    }

    /// Decodes a grid written by [`RelayGrid::snapshot`].
    pub(crate) fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let row_offsets = dec.get_seq(8, Dec::get_usize)?;
        let monotonic_from_zero = row_offsets.first().is_none_or(|&o| o == 0)
            && row_offsets.windows(2).all(|w| w[0] <= w[1]);
        if !monotonic_from_zero {
            return Err(SnapError::corrupt(
                "relay grid offsets not monotonic from 0",
            ));
        }
        let syms = dec.get_seq(2, Dec::get_u16)?;
        let stride = row_offsets.last().copied().unwrap_or(0);
        if stride > 0 && !syms.len().is_multiple_of(stride) {
            return Err(SnapError::corrupt(format!(
                "relay grid of {} symbols not a multiple of stride {stride}",
                syms.len()
            )));
        }
        Ok(Self { syms, row_offsets })
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

/// The placeholder code for a zero-message session (nothing is encoded or
/// decoded, so only the symbol width must be representable), plus its wire
/// slot width. Shared by both engines' empty-instance guards.
pub(crate) fn empty_instance_code(
    cfg: &RouterConfig,
) -> Result<(bdclique_codes::ReedSolomon, usize), CoreError> {
    let m = cfg.symbol_bits;
    if !(2..=8).contains(&m) {
        return Err(CoreError::invalid("symbol_bits must be in 2..=8"));
    }
    let code = bdclique_codes::ReedSolomon::new(m, 2, 1)
        .map_err(|e| CoreError::invalid(format!("RS construction: {e}")))?;
    Ok((code, m as usize + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::{Adversary, Network};

    fn rs_code() -> ReedSolomon {
        ReedSolomon::new(8, 15, 9).unwrap()
    }

    fn chunk(seed: usize, len: usize) -> BitVec {
        BitVec::from_fn(len, |i| (i * 7 + seed).is_multiple_of(3))
    }

    #[test]
    fn codeword_cache_hit_verifies_and_counts() {
        let code = rs_code();
        let mut cache = CodewordCache::new(1 << 16);
        let bits = chunk(1, 72);
        assert!(cache.get(&code, &bits).is_none());
        let cw = code.encode_bits(&bits).unwrap();
        cache.insert(&code, bits.clone(), cw.clone());
        assert_eq!(cache.get(&code, &bits), Some(cw.clone()));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.resident_symbols(), cw.len());
        // A different chunk of the same length misses.
        assert!(cache.get(&code, &chunk(2, 72)).is_none());
    }

    #[test]
    fn codeword_cache_key_separates_codes() {
        // The same chunk under two different codes must not collide.
        let a = ReedSolomon::new(8, 15, 9).unwrap();
        let b = ReedSolomon::new(8, 20, 9).unwrap();
        let bits = chunk(3, 72);
        let mut cache = CodewordCache::new(1 << 16);
        cache.insert(&a, bits.clone(), a.encode_bits(&bits).unwrap());
        assert!(cache.get(&b, &bits).is_none());
        assert_eq!(cache.get(&a, &bits).unwrap(), a.encode_bits(&bits).unwrap());
    }

    #[test]
    fn codeword_cache_respects_symbol_budget() {
        let code = rs_code();
        let mut cache = CodewordCache::new(20); // room for one 15-symbol codeword
        let first = chunk(1, 72);
        let second = chunk(2, 72);
        cache.insert(&code, first.clone(), code.encode_bits(&first).unwrap());
        cache.insert(&code, second.clone(), code.encode_bits(&second).unwrap());
        assert_eq!(cache.resident_symbols(), 15);
        assert!(cache.get(&code, &first).is_some());
        assert!(cache.get(&code, &second).is_none());
    }

    #[test]
    fn codeword_cache_insert_dedupes_equal_chunks() {
        let code = rs_code();
        let mut cache = CodewordCache::new(1 << 16);
        let bits = chunk(4, 72);
        let cw = code.encode_bits(&bits).unwrap();
        cache.insert(&code, bits.clone(), cw.clone());
        cache.insert(&code, bits.clone(), cw.clone());
        assert_eq!(cache.resident_symbols(), cw.len());
    }

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

    /// A cached session is bit-identical to an uncached one, and a second
    /// session over the same instance and cache encodes nothing anew.
    #[test]
    fn cached_routing_matches_uncached_and_reuses_codewords() {
        let n = 16;
        let instance = RoutingInstance {
            n,
            payload_bits: 96,
            messages: (0..n)
                .map(|v| SuperMessage {
                    src: v,
                    slot: 0,
                    payload: BitVec::from_fn(96, |i| (i + v) % 5 < 2),
                    targets: vec![(v + 3) % n],
                })
                .collect(),
        };
        let cfg = RouterConfig {
            mode: RoutingMode::Unit,
            ..RouterConfig::default()
        };

        let mut net_plain = Network::new(n, 9, 0.0, Adversary::none());
        let plain = route(&mut net_plain, &instance, &cfg).unwrap();

        let cache = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
        let run_cached = |cache: &SharedCodewordCache| {
            let mut net = Network::new(n, 9, 0.0, Adversary::none());
            let mut session =
                RouteSession::new_cached(&net, instance.clone(), &cfg, cache.clone()).unwrap();
            loop {
                if let Some(out) = session.step(&mut net).unwrap() {
                    return out;
                }
            }
        };

        let first = run_cached(&cache);
        assert_eq!(first.delivered.len(), plain.delivered.len());
        for (a, b) in first.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (hits_after_first, misses_after_first) = cache.lock().unwrap().stats();
        assert_eq!(hits_after_first, 0, "first run sees a cold cache");
        assert!(misses_after_first > 0);

        let second = run_cached(&cache);
        for (a, b) in second.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (hits, misses) = cache.lock().unwrap().stats();
        assert_eq!(
            misses, misses_after_first,
            "second identical run must not encode anything anew"
        );
        assert_eq!(hits, misses_after_first, "every probe of run 2 hits");
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
            let cfg = RouterConfig {
                mode,
                ..RouterConfig::default()
            };
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

    /// The cover-free engine's lazy per-pack encode path with a shared cache
    /// is bit-identical to the plain run as well.
    #[test]
    fn cached_coverfree_matches_uncached() {
        let n = 64;
        let instance = RoutingInstance {
            n,
            payload_bits: 16,
            messages: (0..n)
                .flat_map(|u| {
                    (0..2).map(move |j| SuperMessage {
                        src: u,
                        slot: j,
                        payload: BitVec::from_fn(16, |i| (i * 7 + u + 3 * j) % 5 < 2),
                        targets: vec![(u + j + 1) % n],
                    })
                })
                .collect(),
        };
        let cfg = RouterConfig {
            mode: RoutingMode::CoverFree,
            ..RouterConfig::default()
        };
        let mut net_plain = Network::new(n, 9, 0.0, Adversary::none());
        let plain = route(&mut net_plain, &instance, &cfg).unwrap();

        let cache = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let mut session =
            RouteSession::new_cached(&net, instance.clone(), &cfg, cache.clone()).unwrap();
        let cached = loop {
            if let Some(out) = session.step(&mut net).unwrap() {
                break out;
            }
        };
        for (a, b) in cached.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (_, misses) = cache.lock().unwrap().stats();
        assert!(misses > 0, "the lazy path must have probed the cache");
    }
}

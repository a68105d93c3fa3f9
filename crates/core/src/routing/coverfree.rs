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
//! # What this module is
//!
//! The engine's *plan* — the verified family, the load maps and the code
//! sized from the measured erasure count (`CfEngine::new`) — plus the
//! four pure functions of one chunk pack behind `PackEngine`: round 1 is
//! the session's round A, the relay gather, round 2 its round B, and the
//! decode. The loop that runs them, the chunk store, checkpoints and output
//! assembly are [`super::RouteSession`]'s, shared with [`super::unit`]; the
//! per-pack encode, gather and decode fan out across the rayon pool exactly
//! like the unit engine's, and are held bit-identical to a one-thread pool
//! scope the same way (`coverfree_parallel_matches_serial`).
//!
//! Frame assembly keeps no table keyed by edge: each round collects one
//! entry per `(edge, lane)` slot it writes — in loop order, with an absent
//! relay symbol still claiming its slot — sorts the entries by `(from, to)`,
//! and emits every frame once, ascending, which is the order
//! [`Traffic::send`]'s append fast-path wants. The `= 1` load filters give
//! each slot a single writer, so the sort is all the bookkeeping there is.

use super::{
    absorbed_error_budget, encode_chunks, lane_symbol, payload_chunk, DecodedUnit, PackCodewords,
    PackCtx, PackEngine, PackShape, RelayGrid, RoutingInstance, SharedCodewordCache, SYMBOL_BITS,
};
use crate::error::CoreError;
use bdclique_bits::BitVec;
use bdclique_codes::BitCode;
use bdclique_coverfree::{CoverFreeFamily, CoverFreeParams};
use bdclique_netsim::{Delivery, Network, Traffic};
use rayon::prelude::*;
use std::ops::Range;

/// The cover-free engine's immutable routing plan.
pub(crate) struct CfEngine {
    shape: PackShape,
    /// Receiver set (ascending node ids) per message.
    sets: Vec<Vec<u32>>,
    /// `InLoad(u, w)`, row-major.
    in_load: Vec<u16>,
    /// `OutLoad(w, v)`, row-major.
    out_load: Vec<u16>,
    /// Deduplicated target lists, computed once. All per-round loops
    /// iterate messages × receiver-set positions — O(m·L) work proportional
    /// to the frames actually sent, never an n² relay/target table scan
    /// (the former `relay_msg`/`target_msg` matrices alone were 2·n² words
    /// — 256 MiB at n = 4096).
    uniq_targets: Vec<Vec<usize>>,
}

/// Maximum acceptable verified cover fraction δ of the family.
const CF_DELTA: f64 = 0.5;

/// Seed-retry budget for the verified family construction.
const CF_SEED_TRIES: u64 = 64;

impl CfEngine {
    /// Builds the family and validates the decode margin. Infeasible
    /// parameter combinations are rejected here, before any round, which is
    /// what lets [`super::RoutingMode::Auto`] fall back cleanly.
    pub(crate) fn new(net: &Network, instance: &RoutingInstance) -> Result<Self, CoreError> {
        let n = instance.n;
        let slot = PackShape::wire_slot(net)?;
        let k_src = instance.max_source_multiplicity();
        let k_tgt = instance.max_target_multiplicity();
        let k = k_src.max(k_tgt).max(1);

        // Ground-group size (elements per group; the receiver-set size is
        // `n / group`). It controls the per-group collision probability
        // (~(k-1)/group per other set); this keeps the expected cover
        // fraction near 1/8.
        let group = (8 * k.saturating_sub(1)).max(4);
        if n < group {
            return Err(CoreError::infeasible(format!(
                "group size {group} invalid for n = {n}"
            )));
        }
        let l = (n / group).min((1usize << SYMBOL_BITS) - 1);
        if l < 2 {
            return Err(CoreError::infeasible(format!(
                "receiver sets of size {l} are too small"
            )));
        }
        // The family-independent half of the decode margin below: erasures
        // are ≥ 0, so no family can rescue `L ≤ 2e`. Testing it here spares
        // a doomed probe the family search (64 seeds over every message).
        let e_allow = absorbed_error_budget(net);
        if l <= 2 * e_allow {
            return Err(CoreError::infeasible(format!(
                "cover-free margin fails: L = {l}, need > 2·{e_allow} before any erasure"
            )));
        }

        // Constraint collection H: per-source slots and per-target slots (Eq. 2).
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
        let mut in_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut out_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (idx, msg) in instance.messages.iter().enumerate() {
            in_ind[msg.src].push(idx as u32);
            for &t in &uniq_targets[idx] {
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
        let family = CoverFreeFamily::build(params, &h, CF_DELTA, 0xbdc11e, CF_SEED_TRIES)
            .map_err(|e| CoreError::infeasible(format!("cover-free family: {e}")))?;
        let num_msgs = instance.messages.len();
        let sets: Vec<Vec<u32>> = (0..num_msgs).map(|i| family.set(i)).collect();

        // Load maps (public data: every node computes these identically).
        let mut in_load = vec![0u16; n * n];
        let mut out_load = vec![0u16; n * n];
        for (idx, msg) in instance.messages.iter().enumerate() {
            for &w in &sets[idx] {
                in_load[msg.src * n + w as usize] += 1;
                for &v in &uniq_targets[idx] {
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
        if l <= 2 * e_allow + worst_erasures {
            return Err(CoreError::infeasible(format!(
                "cover-free margin fails: L = {l}, need > 2·{e_allow} + {worst_erasures} erasures"
            )));
        }
        let shape = PackShape::new(net, instance, slot, l, l - 2 * e_allow - worst_erasures)?;
        Ok(Self {
            shape,
            sets,
            in_load,
            out_load,
            uniq_targets,
        })
    }

    /// Lazy per-pack encode: only the pack's chunks are
    /// materialized, one message per fan-out unit. Returns `[msg][lane][pos]`.
    fn encode_pack(
        &self,
        instance: &RoutingInstance,
        counter: Option<&SharedCodewordCache>,
        pack: &Range<usize>,
    ) -> Result<PackCodewords, CoreError> {
        let jobs: Vec<Vec<BitVec>> = instance
            .messages
            .iter()
            .map(|msg| {
                pack.clone()
                    .map(|chunk| payload_chunk(&msg.payload, chunk, self.shape.cap_bits))
                    .collect()
            })
            .collect();
        encode_chunks(&self.shape.code, counter, jobs)
    }

    /// Round 1: sources scatter codeword symbols to receiver-set members
    /// (InLoad filter).
    fn round1_slots(
        &self,
        instance: &RoutingInstance,
        pack_cw: &PackCodewords,
        lanes_used: usize,
    ) -> Vec<SlotWrite> {
        let n = instance.n;
        let mut slots = Vec::with_capacity(lanes_used * instance.messages.len() * self.shape.l);
        for lane in 0..lanes_used {
            for (idx, msg) in instance.messages.iter().enumerate() {
                for (pos, &w) in self.sets[idx].iter().enumerate() {
                    if self.in_load[msg.src * n + w as usize] != 1 {
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

    /// Round 2: relays forward what they hold to targets (OutLoad filter).
    /// An absent relay symbol still claims its slot, with the validity bit
    /// clear.
    fn round2_slots(
        &self,
        instance: &RoutingInstance,
        relay: &RelayGrid,
        lanes_used: usize,
    ) -> Vec<SlotWrite> {
        let n = instance.n;
        let mut slots = Vec::new();
        for lane in 0..lanes_used {
            for (idx, msg) in instance.messages.iter().enumerate() {
                for (pos, &w) in self.sets[idx].iter().enumerate() {
                    if self.in_load[msg.src * n + w as usize] != 1 {
                        continue; // w never expected this symbol
                    }
                    let sym = relay.get(lane, idx, pos).unwrap_or(RelayGrid::ABSENT);
                    for &v in &self.uniq_targets[idx] {
                        if v == w as usize || self.out_load[w as usize * n + v] != 1 {
                            continue;
                        }
                        slots.push(SlotWrite::new(w as usize, v, lane, sym));
                    }
                }
            }
        }
        slots
    }

    /// Sorts `slots` into a round's traffic.
    fn send_slots(&self, slots: Vec<SlotWrite>, net: &mut Network) -> Traffic {
        let mut traffic = net.traffic();
        assemble_frames(slots, &self.shape, |from, to, frame| {
            traffic.send(from, to, frame)
        });
        traffic
    }
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
    shape: &PackShape,
    mut emit: impl FnMut(usize, usize, BitVec),
) {
    slots.sort_by_key(|s| s.edge);
    for edge in slots.chunk_by(|a, b| a.edge == b.edge) {
        let mut frame = BitVec::zeros(shape.lanes * shape.slot);
        for s in edge {
            if s.sym != RelayGrid::ABSENT {
                // Validity bit first, then the symbol.
                let bits = 1 | (u64::from(s.sym) << 1);
                frame.write_uint(s.lane as usize * shape.slot, shape.slot as u32, bits);
            }
        }
        let (from, to) = edge[0].ends();
        emit(from, to, frame);
    }
}

impl PackEngine for CfEngine {
    fn shape(&self) -> &PackShape {
        &self.shape
    }

    /// One work unit per payload chunk: a pack is a run of chunk ids.
    fn work_len(&self) -> usize {
        self.shape.chunks
    }

    fn stages(&self) -> usize {
        1
    }

    /// One block per lane; rows are the messages, uniformly `L` wide (all
    /// receiver sets have size `L`), addressed `(lane, msg, pos)` where
    /// `pos` indexes the message's receiver set.
    fn grid_rows(&self, pack: &Range<usize>) -> (usize, Vec<usize>) {
        let offsets = RelayGrid::uniform_offsets(self.sets.len(), self.shape.l);
        (pack.len(), offsets)
    }

    fn build_round_a(
        &self,
        ctx: &PackCtx<'_>,
        counter: Option<&SharedCodewordCache>,
        net: &mut Network,
    ) -> Result<(PackCodewords, Traffic), CoreError> {
        let pack_cw = self.encode_pack(ctx.instance, counter, &ctx.pack)?;
        let slots = self.round1_slots(ctx.instance, &pack_cw, ctx.pack.len());
        Ok((pack_cw, self.send_slots(slots, net)))
    }

    /// `InLoad(src, w) == 1` makes the message a relay expects from a
    /// sender unique, so walking messages × set positions recovers exactly
    /// the old dense relay-table scan in O(m·L); each (lane, message) row is
    /// independent and fans out.
    fn gather(
        &self,
        ctx: &PackCtx<'_>,
        pack_cw: &PackCodewords,
        delivery: &Delivery,
    ) -> Vec<Vec<u16>> {
        let shape = &self.shape;
        let n = ctx.instance.n;
        let num_msgs = ctx.instance.messages.len();
        let flat: Vec<(usize, usize)> = (0..ctx.pack.len())
            .flat_map(|lane| (0..num_msgs).map(move |idx| (lane, idx)))
            .collect();
        let gathered: Vec<Vec<u16>> = flat
            .into_par_iter()
            .map(|(lane, idx)| {
                let msg = &ctx.instance.messages[idx];
                self.sets[idx]
                    .iter()
                    .enumerate()
                    .map(|(pos, &w)| {
                        let w = w as usize;
                        let val = if self.in_load[msg.src * n + w] != 1 {
                            None
                        } else if w == msg.src {
                            Some(pack_cw[idx][lane][pos])
                        } else {
                            delivery
                                .received(w, msg.src)
                                .and_then(|f| lane_symbol(f, lane, shape.slot))
                        };
                        val.unwrap_or(RelayGrid::ABSENT)
                    })
                    .collect()
            })
            .collect();
        let mut blocks: Vec<Vec<u16>> = Vec::with_capacity(ctx.pack.len());
        let mut it = gathered.into_iter();
        for _ in 0..ctx.pack.len() {
            let mut block = Vec::with_capacity(num_msgs * shape.l);
            for row in it.by_ref().take(num_msgs) {
                block.extend_from_slice(&row);
            }
            blocks.push(block);
        }
        blocks
    }

    fn build_round_b(&self, ctx: &PackCtx<'_>, relay: &RelayGrid, net: &mut Network) -> Traffic {
        let slots = self.round2_slots(ctx.instance, relay, ctx.pack.len());
        self.send_slots(slots, net)
    }

    /// One unit per `(lane, msg, target)`.
    fn decode_pack(
        &self,
        ctx: &PackCtx<'_>,
        relay: &RelayGrid,
        delivery: &Delivery,
    ) -> Vec<DecodedUnit> {
        let shape = &self.shape;
        let n = ctx.instance.n;
        let mut units: Vec<(usize, usize, usize, usize)> = Vec::new(); // (lane, chunk, idx, v)
        for (lane, chunk) in ctx.pack.clone().enumerate() {
            for (idx, msg) in ctx.instance.messages.iter().enumerate() {
                for &v in &self.uniq_targets[idx] {
                    if v != msg.src {
                        units.push((lane, chunk, idx, v));
                    }
                }
            }
        }
        units
            .into_par_iter()
            .map(|(lane, chunk, idx, v)| {
                let msg = &ctx.instance.messages[idx];
                let mut received = vec![0u16; shape.l];
                let mut erasures = vec![false; shape.l];
                for (pos, &w) in self.sets[idx].iter().enumerate() {
                    let w = w as usize;
                    if self.in_load[msg.src * n + w] != 1 || self.out_load[w * n + v] != 1 {
                        erasures[pos] = true; // known filter erasure
                        continue;
                    }
                    let val = if w == v {
                        relay.get(lane, idx, pos)
                    } else {
                        delivery
                            .received(v, w)
                            .and_then(|f| lane_symbol(f, lane, shape.slot))
                    };
                    match val {
                        Some(sym) => received[pos] = sym,
                        None => erasures[pos] = true,
                    }
                }
                let bits = shape.code.decode_bits(&received, &erasures, shape.cap_bits);
                ((v, idx, chunk), bits.ok())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{
        route, EngineUsed, Phase, RouteSession, RouterConfig, RoutingMode, SuperMessage,
    };
    use bdclique_netsim::Adversary;
    use std::collections::BTreeMap;

    fn cf_cfg() -> RouterConfig {
        RouterConfig {
            mode: RoutingMode::CoverFree,
        }
    }

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
        let out = route(&mut net, &inst, &cf_cfg()).unwrap();
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
        let out = route(&mut net, &inst, &cf_cfg()).unwrap();
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
        let out = route(&mut net, &inst, &cf_cfg()).unwrap();
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
    fn reference_frames(slots: &[SlotWrite], params: &PackShape) -> Vec<(usize, usize, BitVec)> {
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
        let engine = CfEngine::new(&net, &inst).unwrap();
        let mut session = RouteSession::new(&net, &inst, &cf_cfg(), None).unwrap();
        assert_eq!(engine.shape.lanes, 2);
        let chunks = engine.shape.chunks;
        assert!(
            chunks >= 3 && chunks % 2 == 1,
            "needs a short last pack, got {chunks} chunks"
        );
        let (mut rounds, mut absent) = ([0usize; 2], 0usize);
        let out = loop {
            let start = session.pack_start;
            let pack = start..(start + 2).min(chunks);
            let (which, slots) = match &session.phase {
                Phase::RoundA => {
                    let cw = engine.encode_pack(&inst, None, &pack).unwrap();
                    (0, engine.round1_slots(&inst, &cw, pack.len()))
                }
                Phase::RoundB { relay } => (1, engine.round2_slots(&inst, relay, pack.len())),
            };
            rounds[which] += 1;
            absent += slots
                .iter()
                .filter(|s| which == 1 && s.sym == RelayGrid::ABSENT)
                .count();
            let expected = reference_frames(&slots, &engine.shape);
            let mut assembled = Vec::new();
            assemble_frames(slots, &engine.shape, |from, to, frame| {
                assembled.push((from, to, frame))
            });
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
        let err = route(&mut net, &inst, &cf_cfg()).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
        assert_eq!(
            net.rounds(),
            0,
            "no rounds may run before feasibility is known"
        );
    }

    /// A det-sqrt-shaped wave (k = √n messages per node) under α > 0:
    /// `L = n / (8(k − 1)) = 2` cannot absorb `2·e_allow = 10` errors
    /// whatever the family, so the probe is refused before the family is
    /// searched for — `Auto` lands on the unit engine, and the pinned
    /// cover-free engine reports `Infeasible` with no round run.
    #[test]
    fn hopeless_margin_sends_auto_to_the_unit_engine() {
        let (n, k) = (256, 16);
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..k).map(move |j| (u, j, vec![(u + j + 1) % n])))
            .collect();
        let inst = instance(n, 8, msgs);
        let net = Network::new(n, 9, 0.01, Adversary::none());
        assert_eq!(net.fault_budget(), 2);
        let auto = RouteSession::new(&net, &inst, &RouterConfig::default(), None)
            .expect("Auto must fall back, not report Infeasible");
        assert_eq!(auto.used, EngineUsed::Unit);
        let pinned = RouteSession::new(&net, &inst, &cf_cfg(), None);
        assert!(matches!(pinned, Err(CoreError::Infeasible { .. })));
        assert_eq!(net.rounds(), 0);
    }
}

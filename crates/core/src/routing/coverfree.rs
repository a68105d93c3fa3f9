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
//! Frame assembly keeps no table keyed by edge and sorts nothing globally:
//! the `= 1` load filters give every edge a single writer, so each round
//! walks its frames in ascending `(from, to)` order — the order
//! [`Traffic::send`]'s append fast-path wants — and writes all of a frame's
//! lanes when it reaches it. Round 1 goes source by source, merging the
//! source's `k` ascending receiver sets. Round 2 needs the frames relay by
//! relay while the plan is message-major, so one counting pass over the
//! `(target, message, position)` triples — visited target-major, which
//! leaves every relay's bucket ascending by target — lays them out
//! relay-major for the round and is dropped with it. An absent relay symbol
//! still sends its frame, validity bit clear.

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
    /// `INind(u)`: the messages node `u` sources, ascending — round 1's
    /// walk order.
    by_src: Vec<Vec<u32>>,
    /// `OUTind(v)`: the messages targeting node `v`, ascending — round 2's
    /// walk order.
    by_tgt: Vec<Vec<u32>>,
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
        // Constraint collection H: per-source slots and per-target slots
        // (Eq. 2). Their longest lists are the instance's multiplicities.
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
        let mut by_src: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut by_tgt: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (idx, msg) in instance.messages.iter().enumerate() {
            by_src[msg.src].push(idx as u32);
            for &t in &uniq_targets[idx] {
                by_tgt[t].push(idx as u32);
            }
        }
        let k = by_src
            .iter()
            .chain(&by_tgt)
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1);

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

        let h: Vec<Vec<u32>> = by_src
            .iter()
            .chain(&by_tgt)
            .filter(|t| t.len() >= 2)
            .cloned()
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
            for &v in &uniq_targets[idx] {
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
            by_src,
            by_tgt,
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
    /// (InLoad filter). Emits every frame once, in ascending `(from, to)`
    /// order: source by source, the source's receiver sets merged.
    fn round1_frames(
        &self,
        instance: &RoutingInstance,
        pack_cw: &PackCodewords,
        lanes_used: usize,
        mut emit: impl FnMut(usize, usize, BitVec),
    ) {
        let n = instance.n;
        // (receiver, message, position) of one source's frames.
        let mut hops: Vec<(u32, u32, u32)> = Vec::new();
        for (src, msgs) in self.by_src.iter().enumerate() {
            hops.clear();
            for &idx in msgs {
                for (pos, &w) in self.sets[idx as usize].iter().enumerate() {
                    if self.in_load[src * n + w as usize] != 1 {
                        continue; // dropped: known erasure everywhere
                    }
                    if w as usize == src {
                        continue; // the source keeps its own symbol
                    }
                    hops.push((w, idx, pos as u32));
                }
            }
            // One ascending run per message, and `InLoad = 1` keeps the
            // receivers distinct across them: the stable sort finds the runs
            // and merges them.
            hops.sort_by_key(|&(w, ..)| w);
            for &(w, idx, pos) in &hops {
                let cw = &pack_cw[idx as usize];
                let syms = (0..lanes_used).map(|lane| cw[lane][pos as usize]);
                emit(src, w as usize, lane_frame(&self.shape, syms));
            }
        }
    }

    /// Visits every round-2 frame as `(relay, (target, message, position))`,
    /// target by target, ascending. `OutLoad(w, v) = 1` admits one message,
    /// hence one frame, per edge.
    fn for_each_forward(
        &self,
        instance: &RoutingInstance,
        mut visit: impl FnMut(usize, (u32, u32, u32)),
    ) {
        let n = instance.n;
        for (v, msgs) in self.by_tgt.iter().enumerate() {
            for &idx in msgs {
                let src = instance.messages[idx as usize].src;
                for (pos, &w) in self.sets[idx as usize].iter().enumerate() {
                    let w = w as usize;
                    if self.in_load[src * n + w] != 1 {
                        continue; // w never expected this symbol
                    }
                    if v == w || self.out_load[w * n + v] != 1 {
                        continue;
                    }
                    visit(w, (v as u32, idx, pos as u32));
                }
            }
        }
    }

    /// Round 2: relays forward what they hold to targets (OutLoad filter).
    /// An absent relay symbol still claims its slot, with the validity bit
    /// clear. Emits every frame once, in ascending `(from, to)` order: a
    /// counting pass buckets the frames by relay, and because they are
    /// visited target-major each bucket fills ascending by target.
    fn round2_frames(
        &self,
        instance: &RoutingInstance,
        relay: &RelayGrid,
        lanes_used: usize,
        mut emit: impl FnMut(usize, usize, BitVec),
    ) {
        let n = instance.n;
        // starts[w + 1] counts relay w's frames, then prefix-sums into the
        // end of its bucket, which is where relay w + 1's starts.
        let mut starts = vec![0usize; n + 1];
        self.for_each_forward(instance, |w, _| starts[w + 1] += 1);
        for w in 0..n {
            starts[w + 1] += starts[w];
        }
        // (target, message, position) per frame, relay-major.
        let mut hops = vec![(0u32, 0u32, 0u32); starts[n]];
        let mut fill = starts.clone();
        self.for_each_forward(instance, |w, hop| {
            hops[fill[w]] = hop;
            fill[w] += 1;
        });
        for (w, bucket) in starts.windows(2).enumerate() {
            for &(v, idx, pos) in &hops[bucket[0]..bucket[1]] {
                let syms = (0..lanes_used).map(|lane| {
                    relay
                        .get(lane, idx as usize, pos as usize)
                        .unwrap_or(RelayGrid::ABSENT)
                });
                emit(w, v as usize, lane_frame(&self.shape, syms));
            }
        }
    }
}

/// One wire frame from its lanes' symbols, lane 0 first: `lanes` slots of
/// `slot` bits, validity bit then symbol. A [`RelayGrid::ABSENT`] symbol
/// leaves its slot zero, validity bit clear — round 2 still sends the
/// frame when the relay holds nothing, which is the wire behavior the
/// adversary observes — as are the slots past a short last pack's lanes.
fn lane_frame(shape: &PackShape, syms: impl Iterator<Item = u16>) -> BitVec {
    let mut frame = BitVec::zeros(shape.lanes * shape.slot);
    for (lane, sym) in syms.enumerate() {
        if sym != RelayGrid::ABSENT {
            // Validity bit first, then the symbol.
            let bits = 1 | (u64::from(sym) << 1);
            frame.write_uint(lane * shape.slot, shape.slot as u32, bits);
        }
    }
    frame
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
        let mut traffic = net.traffic();
        self.round1_frames(ctx.instance, &pack_cw, ctx.pack.len(), |from, to, frame| {
            traffic.send(from, to, frame)
        });
        Ok((pack_cw, traffic))
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
                                .and_then(|f| lane_symbol(&f, lane, shape.slot))
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
        let mut traffic = net.traffic();
        self.round2_frames(ctx.instance, relay, ctx.pack.len(), |from, to, frame| {
            traffic.send(from, to, frame)
        });
        traffic
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
                            .and_then(|f| lane_symbol(&f, lane, shape.slot))
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
    use bdclique_netsim::{AdaptiveStrategy, Adversary};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

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
                        if let Some(mut flipped) = scope.intended(a, b) {
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

    /// [`TestGreedy`] that first copies the round's intended frames — what
    /// the session put on the wire, before any corruption — into `sent`.
    struct Recording {
        sent: Rc<RefCell<Vec<(usize, usize, BitVec)>>>,
    }

    impl AdaptiveStrategy for Recording {
        fn corrupt(
            &mut self,
            view: &bdclique_netsim::AdversaryView<'_>,
            scope: &mut bdclique_netsim::AdaptiveScope<'_>,
        ) {
            let mut sent = self.sent.borrow_mut();
            sent.clear();
            for (from, to, _) in scope.intended_frames() {
                let frame = scope.intended(from, to).expect("listed as intended");
                sent.push((from, to, frame));
            }
            TestGreedy.corrupt(view, scope);
        }
    }

    /// One lane slot of one wire frame — `(from, to, lane, symbol)` — as
    /// the table-keyed frame assembly collected them, in loop order (lane,
    /// then message, then receiver-set position).
    type SlotWrite = (usize, usize, usize, u16);

    /// Round 1's slots, message-major: the oracle's input for
    /// [`CfEngine::round1_frames`].
    fn reference_round1_slots(
        engine: &CfEngine,
        inst: &RoutingInstance,
        pack_cw: &PackCodewords,
        lanes_used: usize,
    ) -> Vec<SlotWrite> {
        let n = inst.n;
        let mut slots = Vec::new();
        for lane in 0..lanes_used {
            for (idx, msg) in inst.messages.iter().enumerate() {
                for (pos, &w) in engine.sets[idx].iter().enumerate() {
                    let w = w as usize;
                    if engine.in_load[msg.src * n + w] == 1 && w != msg.src {
                        slots.push((msg.src, w, lane, pack_cw[idx][lane][pos]));
                    }
                }
            }
        }
        slots
    }

    /// Round 2's slots, message-major, an absent relay symbol still claiming
    /// its slot: the oracle's input for [`CfEngine::round2_frames`].
    fn reference_round2_slots(
        engine: &CfEngine,
        inst: &RoutingInstance,
        relay: &RelayGrid,
        lanes_used: usize,
    ) -> Vec<SlotWrite> {
        let n = inst.n;
        let mut slots = Vec::new();
        for lane in 0..lanes_used {
            for (idx, msg) in inst.messages.iter().enumerate() {
                for (pos, &w) in engine.sets[idx].iter().enumerate() {
                    let w = w as usize;
                    if engine.in_load[msg.src * n + w] != 1 {
                        continue;
                    }
                    let sym = relay.get(lane, idx, pos).unwrap_or(RelayGrid::ABSENT);
                    // The raw target list, duplicates and all: a second
                    // write of the same slot changes nothing.
                    for &v in &msg.targets {
                        if v != w && engine.out_load[w * n + v] == 1 {
                            slots.push((w, v, lane, sym));
                        }
                    }
                }
            }
        }
        slots
    }

    /// The table-keyed frame assembly, kept as the oracle for the edge-order
    /// emit: a table keyed by edge, one buffer per first touch, slots
    /// applied in collection order, emitted ascending.
    fn reference_frames(slots: &[SlotWrite], params: &PackShape) -> Vec<(usize, usize, BitVec)> {
        let mut frames: BTreeMap<(usize, usize), BitVec> = BTreeMap::new();
        for &(from, to, lane, sym) in slots {
            let frame = frames
                .entry((from, to))
                .or_insert_with(|| BitVec::zeros(params.lanes * params.slot));
            if sym != RelayGrid::ABSENT {
                let at = lane * params.slot;
                frame.set(at, true);
                frame.write_uint(at + 1, params.slot as u32 - 1, u64::from(sym));
            }
        }
        frames
            .into_iter()
            .map(|((from, to), frame)| (from, to, frame))
            .collect()
    }

    /// Frame assembly is byte-identical to the edge-keyed table it replaced:
    /// same edge set, same frame bits, same send order — every round of a
    /// `k = 2`, three-lane instance whose chunk count leaves a short last
    /// pack, with two-target messages (listed with a duplicate) next to the
    /// single-target ones so a relay forwards one symbol to several targets,
    /// under a frame-flipping adversary (so round 2 forwards absent relay
    /// symbols) — and the frames the session actually puts on the wire are
    /// exactly those.
    #[test]
    fn frame_assembly_matches_edge_table_reference() {
        let n = 256;
        // Every node sources (u, 0) → u + 1; even nodes also source
        // (u, 1) → {u + 10, u + 11}, which reaches every node once more.
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| {
                let one = (u, 0, vec![(u + 1) % n]);
                let two = (u, 1, vec![(u + 11) % n, (u + 10) % n, (u + 11) % n]);
                [one, two].into_iter().take(2 - u % 2)
            })
            .collect();
        let inst = instance(n, 400, msgs);
        let sent = Rc::new(RefCell::new(Vec::new()));
        let recording = Recording { sent: sent.clone() };
        let mut net = Network::new(n, 27, 1.2 / n as f64, Adversary::adaptive(recording));
        let engine = CfEngine::new(&net, &inst).unwrap();
        let mut session = RouteSession::new(&net, &inst, &cf_cfg(), None).unwrap();
        let lanes = engine.shape.lanes;
        assert_eq!(lanes, 3);
        let chunks = engine.shape.chunks;
        assert!(
            chunks > lanes && !chunks.is_multiple_of(lanes),
            "needs a short last pack, got {chunks} chunks"
        );
        let (mut rounds, mut absent) = ([0usize; 2], 0usize);
        let out = loop {
            let start = session.pack_start;
            let pack = start..(start + lanes).min(chunks);
            let mut assembled = Vec::new();
            let emit = |from, to, frame| assembled.push((from, to, frame));
            let (which, slots) = match &session.phase {
                Phase::RoundA => {
                    let cw = engine.encode_pack(&inst, None, &pack).unwrap();
                    engine.round1_frames(&inst, &cw, pack.len(), emit);
                    (0, reference_round1_slots(&engine, &inst, &cw, pack.len()))
                }
                Phase::RoundB { relay } => {
                    engine.round2_frames(&inst, relay, pack.len(), emit);
                    (1, reference_round2_slots(&engine, &inst, relay, pack.len()))
                }
            };
            rounds[which] += 1;
            absent += slots
                .iter()
                .filter(|s| which == 1 && s.3 == RelayGrid::ABSENT)
                .count();
            let expected = reference_frames(&slots, &engine.shape);
            assert_eq!(assembled, expected, "round kind {which}");
            if which == 1 {
                let fanned_out = expected
                    .windows(2)
                    .any(|e| e[0].0 == e[1].0 && e[0].2 == e[1].2 && e[0].2.count_ones() > 0);
                assert!(fanned_out, "no relay forwarded one symbol to two targets");
            }
            let done = session.step(&mut net).unwrap();
            assert_eq!(*sent.borrow(), expected, "wire traffic, round kind {which}");
            if let Some(out) = done {
                break out;
            }
        };
        assert_eq!(rounds, [chunks.div_ceil(lanes); 2]);
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

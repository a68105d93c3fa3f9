//! The scheduled unit-instance routing engine.
//!
//! Messages are colored into *stages* such that within a stage every node is
//! the source of at most one active message and the target of at most one
//! active message (multi-target messages deliver to all their targets in one
//! stage). Each stage runs the two-round scatter/gather of the paper's
//! Section 3 warm-up observation: the source spreads one Reed–Solomon
//! symbol per relay node, then relays forward to the targets. Per codeword
//! the adversary corrupts at most `⌊αn⌋` symbols in each of the two rounds,
//! against a decoding radius of `(L - k)/2` chosen as `2⌊αn⌋ + slack`;
//! suppressed frames are decoded as erasures.
//!
//! When the network bandwidth exceeds one wire slot (`SYMBOL_BITS + 1`),
//! multiple stages and payload chunks run in parallel inside a single round
//! pair — the `B`-fold speedup of Lemma 2.9 / Theorem 4.1.
//!
//! # What this module is
//!
//! The engine's *plan* — `schedule_stages`, the code sized for the
//! network's fault budget, and the `(stage, chunk)` work list — plus the
//! four pure functions of one pack behind `PackEngine`: build the scatter
//! traffic, gather what the relays hold, build the forward traffic, decode.
//! The loop that runs them, the chunk store, checkpoints and output
//! assembly are [`super::RouteSession`]'s, shared with [`super::coverfree`].
//!
//! Each `(stage, chunk)` work unit is independent: it encodes its own
//! codewords, scatters and gathers its own frames, and decodes its own
//! payload chunk. So per pack the round-A codeword encoding, the relay
//! gather, the round-B forward planning and the erasure decoding fan out
//! across the rayon thread pool, while the network exchanges and the frame
//! materialization stay strictly sequential (rounds are the unit of
//! synchrony; a frame is `lanes · slot` ≤ 64 bits in every registry cell,
//! so `BitVec::zeros` builds it inline, without an allocation). Results are
//! always collected in work-unit order, so a run is bit-identical on any pool
//! size — checked against the same [`super::route`] inside a one-thread
//! pool scope (`unit_parallel_matches_serial`), the contract `compile`
//! keeps the same way.
//!
//! Codewords are encoded *lazily*, per pack, instead of for the whole
//! instance up front: a `k ≈ √n` wave at `n = 4096` has ~260k messages, and
//! materializing all their codewords before round 0 would pin
//! `messages × chunks × L` symbols for the whole session.

use super::{
    absorbed_error_budget, encode_chunks, lane_symbol, payload_chunk, DecodedUnit, PackCodewords,
    PackCtx, PackEngine, PackShape, RelayGrid, RoutingInstance, SharedCodewordCache, SYMBOL_BITS,
};
use crate::error::CoreError;
use bdclique_bits::BitVec;
use bdclique_codes::BitCode;
use bdclique_netsim::{Delivery, Network, Traffic};
use rayon::prelude::*;
use std::ops::Range;

/// First-fit stage coloring: same-source or shared-target messages never
/// share a stage; each message takes the smallest stage where its source
/// and all its targets are free. Returns `stage_of[msg_idx]`.
///
/// Implemented with per-endpoint counters: `src_next[u]` / `tgt_next[v]`
/// hold each endpoint's smallest free stage (its *mex*), so the scan for a
/// message starts at the maximum of its endpoints' counters — every earlier
/// stage is provably occupied by one of them — and probes occupancy in
/// per-endpoint stage bitsets, one row per source and one per target, each
/// grown only up to the highest stage used at that endpoint. This is the
/// same coloring the old `O(stages · n)`-memory occupancy matrices computed
/// (stage-for-stage identical, regression-tested below) in near-linear
/// time: the scan past the counter maximum only crosses stages genuinely
/// blocked by a conflicting endpoint, so total work is bounded by the
/// conflict count rather than `messages × stages`.
///
/// Stage count never exceeds the greedy coloring bound `2·Δ − 1`, where `Δ`
/// is the maximum per-endpoint multiplicity: a single-target message
/// conflicts with at most `(deg(src) − 1) + (deg(tgt) − 1) ≤ 2Δ − 2` other
/// messages, so first-fit places it below stage `2Δ − 1`. Each of the two
/// occupancy tables therefore holds at most `n·⌈2Δ/64⌉` words.
pub(crate) fn schedule_stages(instance: &RoutingInstance) -> Vec<usize> {
    let mut stage_of = vec![0usize; instance.messages.len()];
    let mut src_next = vec![0u32; instance.n];
    let mut tgt_next = vec![0u32; instance.n];
    let mut src_used: Vec<Vec<u64>> = vec![Vec::new(); instance.n];
    let mut tgt_used: Vec<Vec<u64>> = vec![Vec::new(); instance.n];
    for (idx, m) in instance.messages.iter().enumerate() {
        let mut stage = m
            .targets
            .iter()
            .map(|&t| tgt_next[t])
            .fold(src_next[m.src], u32::max);
        loop {
            let free = !stage_taken(&src_used[m.src], stage)
                && m.targets.iter().all(|&t| !stage_taken(&tgt_used[t], stage));
            if free {
                break;
            }
            stage += 1;
        }
        take_stage(&mut src_used[m.src], stage);
        while stage_taken(&src_used[m.src], src_next[m.src]) {
            src_next[m.src] += 1;
        }
        for &t in &m.targets {
            take_stage(&mut tgt_used[t], stage);
            while stage_taken(&tgt_used[t], tgt_next[t]) {
                tgt_next[t] += 1;
            }
        }
        stage_of[idx] = stage as usize;
    }
    stage_of
}

/// Whether `stage` is occupied in one endpoint's occupancy row.
fn stage_taken(row: &[u64], stage: u32) -> bool {
    row.get((stage / 64) as usize)
        .is_some_and(|w| (w >> (stage % 64)) & 1 == 1)
}

/// Marks `stage` occupied in one endpoint's occupancy row, growing it.
fn take_stage(row: &mut Vec<u64>, stage: u32) {
    let word = (stage / 64) as usize;
    if word >= row.len() {
        row.resize(word + 1, 0);
    }
    row[word] |= 1u64 << (stage % 64);
}

/// The unit engine's immutable routing plan: code parameters, stage
/// coloring, and work list.
pub(crate) struct UnitEngine {
    shape: PackShape,
    num_stages: usize,
    /// Message indices per stage.
    stage_msgs: Vec<Vec<usize>>,
    /// Per stage: `(src, pos)` sorted by source id, `pos` indexing
    /// `stage_msgs[stage]` — sources are distinct within a stage, so relays
    /// attribute an incoming frame with one binary search.
    stage_src: Vec<Vec<(usize, usize)>>,
    /// Work units: (stage, chunk) pairs, executed `lanes` at a time.
    work: Vec<(usize, usize)>,
}

impl UnitEngine {
    /// Sizes the code for the network's current fault budget and schedules
    /// the stages.
    pub(crate) fn new(net: &Network, instance: &RoutingInstance) -> Result<Self, CoreError> {
        let slot = PackShape::wire_slot(net)?;
        let l = instance.n.min((1usize << SYMBOL_BITS) - 1);
        let e_allow = absorbed_error_budget(net);
        if l <= 2 * e_allow {
            return Err(CoreError::infeasible(format!(
                "relay count {l} cannot absorb 2·({e_allow}) adversarial symbols"
            )));
        }
        let shape = PackShape::new(net, instance, slot, l, l - 2 * e_allow)?;

        let stage_of = schedule_stages(instance);
        let num_stages = stage_of.iter().map(|&s| s + 1).max().unwrap_or(0);
        let work = (0..num_stages)
            .flat_map(|s| (0..shape.chunks).map(move |c| (s, c)))
            .collect();
        let mut stage_msgs: Vec<Vec<usize>> = vec![Vec::new(); num_stages];
        for (idx, &s) in stage_of.iter().enumerate() {
            stage_msgs[s].push(idx);
        }
        let stage_src = stage_msgs
            .iter()
            .map(|msgs| {
                let mut by_src: Vec<(usize, usize)> = msgs
                    .iter()
                    .enumerate()
                    .map(|(pos, &mi)| (instance.messages[mi].src, pos))
                    .collect();
                by_src.sort_unstable();
                by_src
            })
            .collect();
        Ok(Self {
            shape,
            num_stages,
            stage_msgs,
            stage_src,
            work,
        })
    }

    /// One relay's view after round A, as a flat sentinel-filled block: its
    /// own-source symbols plus whatever its inbox carried for each lane.
    fn gather_relay(
        &self,
        w: usize,
        pack: &[(usize, usize)],
        lane_offsets: &[usize],
        lane_syms: &PackCodewords,
        delivery: &Delivery,
    ) -> Vec<u16> {
        let mut block = vec![RelayGrid::ABSENT; *lane_offsets.last().unwrap_or(&0)];
        for (lane, &(stage, _)) in pack.iter().enumerate() {
            // The source keeps its own symbol for position src — no frame.
            if let Ok(i) = self.stage_src[stage].binary_search_by_key(&w, |e| e.0) {
                let pos = self.stage_src[stage][i].1;
                block[lane_offsets[lane] + pos] = lane_syms[lane][pos][w];
            }
        }
        for (src, frame) in delivery.inbox_of(w) {
            for (lane, &(stage, _)) in pack.iter().enumerate() {
                let Ok(i) = self.stage_src[stage].binary_search_by_key(&src, |e| e.0) else {
                    continue;
                };
                let pos = self.stage_src[stage][i].1;
                if let Some(sym) = lane_symbol(&frame, lane, self.shape.slot) {
                    block[lane_offsets[lane] + pos] = sym;
                }
            }
        }
        block
    }
}

impl PackEngine for UnitEngine {
    fn shape(&self) -> &PackShape {
        &self.shape
    }

    fn work_len(&self) -> usize {
        self.work.len()
    }

    fn stages(&self) -> usize {
        self.num_stages
    }

    /// One block per relay `w`; rows are the pack's lanes, ragged — per-lane
    /// offsets are prefix sums of the pack's stage sizes — and addressed
    /// `(w, lane, pos)` where `pos` indexes the lane's stage message list.
    fn grid_rows(&self, pack: &Range<usize>) -> (usize, Vec<usize>) {
        let mut lane_offsets = Vec::with_capacity(pack.len() + 1);
        lane_offsets.push(0);
        for &(stage, _) in &self.work[pack.clone()] {
            lane_offsets.push(lane_offsets.last().unwrap() + self.stage_msgs[stage].len());
        }
        (self.shape.l, lane_offsets)
    }

    fn build_round_a(
        &self,
        ctx: &PackCtx<'_>,
        counter: Option<&SharedCodewordCache>,
        net: &mut Network,
    ) -> Result<(PackCodewords, Traffic), CoreError> {
        let shape = &self.shape;
        let pack = &self.work[ctx.pack.clone()];
        let mut traffic = net.traffic();
        // ---- Encode: every lane's stage messages. Chunk extraction is a
        // cheap block copy; the encode itself is the hot part and fans out
        // per lane.
        let jobs: Vec<Vec<BitVec>> = pack
            .iter()
            .map(|&(stage, chunk)| {
                self.stage_msgs[stage]
                    .iter()
                    .map(|&mi| {
                        payload_chunk(&ctx.instance.messages[mi].payload, chunk, shape.cap_bits)
                    })
                    .collect()
            })
            .collect();
        let lane_syms = encode_chunks(&shape.code, counter, jobs)?;

        // ---- Materialize round-A frames in ascending (src, relay) order.
        // A frame (src, w) carries one slot per active lane; sources active
        // in several lanes of the pack share the frame at distinct offsets.
        let mut by_src: Vec<(usize, usize, usize)> = Vec::new(); // (src, lane, pos)
        for (lane, &(stage, _)) in pack.iter().enumerate() {
            for &(src, pos) in &self.stage_src[stage] {
                by_src.push((src, lane, pos));
            }
        }
        by_src.sort_unstable();
        for group in by_src.chunk_by(|a, b| a.0 == b.0) {
            let src = group[0].0;
            for w in 0..shape.l {
                if w == src {
                    continue; // the source is its own relay for position src
                }
                let mut frame = BitVec::zeros(shape.lanes * shape.slot);
                for &(_, lane, pos) in group {
                    frame.set(lane * shape.slot, true); // validity
                    frame.write_uint(
                        lane * shape.slot + 1,
                        SYMBOL_BITS,
                        lane_syms[lane][pos][w] as u64,
                    );
                }
                traffic.send(src, w, frame);
            }
        }
        Ok((lane_syms, traffic))
    }

    /// Each relay's inbox walk is independent, so the blocks fan out and
    /// come back in `w` order.
    fn gather(
        &self,
        ctx: &PackCtx<'_>,
        lane_syms: &PackCodewords,
        delivery: &Delivery,
    ) -> Vec<Vec<u16>> {
        let pack = &self.work[ctx.pack.clone()];
        let (_, lane_offsets) = self.grid_rows(&ctx.pack);
        (0..self.shape.l)
            .into_par_iter()
            .map(|w| self.gather_relay(w, pack, &lane_offsets, lane_syms, delivery))
            .collect()
    }

    fn build_round_b(&self, ctx: &PackCtx<'_>, relay: &RelayGrid, net: &mut Network) -> Traffic {
        let shape = &self.shape;
        let pack = &self.work[ctx.pack.clone()];
        // ---- Plan each relay's forwards: (target, lane, symbol) sorted by
        // (target, lane), one relay per fan-out unit.
        let plans: Vec<Vec<(u32, u32, Option<u16>)>> = (0..shape.l)
            .into_par_iter()
            .map(|w| {
                let mut out: Vec<(u32, u32, Option<u16>)> = Vec::new();
                for (lane, &(stage, _)) in pack.iter().enumerate() {
                    for (pos, &mi) in self.stage_msgs[stage].iter().enumerate() {
                        let msg = &ctx.instance.messages[mi];
                        for &x in &msg.targets {
                            if x == msg.src || x == w {
                                continue; // local delivery / own-relay read
                            }
                            out.push((x as u32, lane as u32, relay.get(w, lane, pos)));
                        }
                    }
                }
                out.sort_unstable();
                out.dedup(); // duplicate targets inside one message
                out
            })
            .collect();

        let mut traffic = net.traffic();
        for (w, plan) in plans.iter().enumerate() {
            for group in plan.chunk_by(|a, b| a.0 == b.0) {
                let x = group[0].0 as usize;
                let mut frame = BitVec::zeros(shape.lanes * shape.slot);
                for &(_, lane, val) in group {
                    if let Some(sym) = val {
                        frame.set(lane as usize * shape.slot, true);
                        frame.write_uint(lane as usize * shape.slot + 1, SYMBOL_BITS, sym as u64);
                    }
                }
                traffic.send(w, x, frame);
            }
        }
        traffic
    }

    /// One unit per `(lane, message, target)`.
    fn decode_pack(
        &self,
        ctx: &PackCtx<'_>,
        relay: &RelayGrid,
        delivery: &Delivery,
    ) -> Vec<DecodedUnit> {
        let shape = &self.shape;
        let pack = &self.work[ctx.pack.clone()];
        let mut units: Vec<(usize, usize, usize, usize)> = Vec::new(); // (lane, chunk, pos, x)
        for (lane, &(stage, chunk)) in pack.iter().enumerate() {
            for (pos, &mi) in self.stage_msgs[stage].iter().enumerate() {
                let msg = &ctx.instance.messages[mi];
                for &x in &msg.targets {
                    if x != msg.src {
                        units.push((lane, chunk, pos, x));
                    }
                }
            }
        }
        units
            .into_par_iter()
            .map(|(lane, chunk, pos, x)| {
                let mut received = vec![0u16; shape.l];
                let mut erasures = vec![false; shape.l];
                for w in 0..shape.l {
                    let val = if w == x {
                        relay.get(w, lane, pos)
                    } else {
                        delivery
                            .received(x, w)
                            .and_then(|f| lane_symbol(&f, lane, shape.slot))
                    };
                    match val {
                        Some(sym) => received[w] = sym,
                        None => erasures[w] = true,
                    }
                }
                let (stage, _) = pack[lane];
                let mi = self.stage_msgs[stage][pos];
                let bits = shape.code.decode_bits(&received, &erasures, shape.cap_bits);
                ((x, mi, chunk), bits.ok())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route, RouterConfig, RoutingMode, SuperMessage};
    use bdclique_netsim::Adversary;

    /// [`route`] pinned to this engine.
    fn unit_route(
        net: &mut Network,
        inst: &RoutingInstance,
    ) -> Result<crate::routing::RoutingOutput, CoreError> {
        let cfg = RouterConfig {
            mode: RoutingMode::Unit,
        };
        route(net, inst, &cfg)
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
                payload: BitVec::from_fn(payload_bits, |i| (i + src + slot) % 3 == 0),
                targets,
            })
            .collect();
        RoutingInstance {
            n,
            payload_bits,
            messages,
        }
    }

    /// The original occupancy-matrix first-fit coloring, kept as the oracle
    /// for the counter-based scheduler.
    fn schedule_stages_dense_oracle(instance: &RoutingInstance) -> Vec<usize> {
        let mut stage_of = vec![usize::MAX; instance.messages.len()];
        let mut stage_sources: Vec<Vec<bool>> = Vec::new();
        let mut stage_targets: Vec<Vec<bool>> = Vec::new();
        for (idx, m) in instance.messages.iter().enumerate() {
            let mut stage = 0usize;
            loop {
                if stage == stage_sources.len() {
                    stage_sources.push(vec![false; instance.n]);
                    stage_targets.push(vec![false; instance.n]);
                }
                let src_free = !stage_sources[stage][m.src];
                let tgts_free = m.targets.iter().all(|&t| !stage_targets[stage][t]);
                if src_free && tgts_free {
                    stage_sources[stage][m.src] = true;
                    for &t in &m.targets {
                        stage_targets[stage][t] = true;
                    }
                    stage_of[idx] = stage;
                    break;
                }
                stage += 1;
            }
        }
        stage_of
    }

    #[test]
    fn stage_coloring_respects_conflicts() {
        let inst = instance(
            8,
            4,
            vec![
                (0, 0, vec![1]),
                (0, 1, vec![2]), // same src as first => different stage
                (3, 0, vec![1]), // shares target 1 with first => different stage
                (4, 0, vec![5]), // independent => can share stage 0
            ],
        );
        let stages = schedule_stages(&inst);
        assert_ne!(stages[0], stages[1]);
        assert_ne!(stages[0], stages[2]);
        assert_eq!(stages[0], stages[3]);
    }

    /// The counter-based scheduler is the first-fit coloring, stage for
    /// stage — round counts and every golden depending on them are
    /// unchanged.
    #[test]
    fn counter_scheduler_matches_first_fit_oracle() {
        let mut cases: Vec<RoutingInstance> = Vec::new();
        // A √n-wave shape (every node sends s messages, segment-local
        // targets), the workload the scheduler exists for.
        let (n, s) = (16usize, 4usize);
        cases.push(instance(
            n,
            4,
            (0..n)
                .flat_map(|v| (0..s).map(move |j| (v, j, vec![(v / s) * s + j])))
                .collect(),
        ));
        // A conflict chain (a,b),(b,c),(c,d),… that pushes naive counters
        // past the greedy bound.
        cases.push(instance(
            8,
            4,
            (0..7).map(|i| (i, 0, vec![i + 1])).collect(),
        ));
        // Multi-target messages and self-targets.
        cases.push(instance(
            8,
            4,
            vec![
                (0, 0, vec![1, 2, 3]),
                (1, 0, vec![2, 0]),
                (0, 1, vec![0, 4]),
                (5, 0, vec![1]),
                (2, 0, vec![3, 4, 5, 6]),
            ],
        ));
        // Pseudo-random dense instance.
        cases.push(instance(
            12,
            4,
            (0..60)
                .map(|i| (i * 7 % 12, i / 12, vec![(i * 5 + 3) % 12]))
                .collect(),
        ));
        for (case, inst) in cases.iter().enumerate() {
            assert_eq!(
                schedule_stages(inst),
                schedule_stages_dense_oracle(inst),
                "case {case} diverged from the first-fit oracle"
            );
        }
    }

    /// First-fit never exceeds the greedy coloring bound `2·Δ − 1` on
    /// single-target instances.
    #[test]
    fn stage_count_within_greedy_bound() {
        for seed in 0..20usize {
            let n = 8 + seed % 9;
            let msgs: Vec<(usize, usize, Vec<usize>)> = (0..(3 * n))
                .map(|i| {
                    let src = (i * 7 + seed) % n;
                    (src, i / n, vec![(i * 11 + seed * 3 + 1) % n])
                })
                .collect();
            let inst = instance(n, 4, msgs);
            let stages = schedule_stages(&inst);
            let num_stages = stages.iter().map(|&s| s + 1).max().unwrap();
            let delta = inst
                .max_source_multiplicity()
                .max(inst.max_target_multiplicity());
            assert!(
                num_stages < 2 * delta,
                "seed {seed}: {num_stages} stages > 2·{delta} − 1"
            );
        }
    }

    #[test]
    fn fault_free_roundtrip_single_message() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let inst = instance(8, 12, vec![(2, 0, vec![5, 6])]);
        let out = unit_route(&mut net, &inst).unwrap();
        assert_eq!(
            out.delivered[5].get(&(2, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(
            out.delivered[6].get(&(2, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(out.report.decode_failures, 0);
        assert_eq!(out.report.rounds, 2); // one stage, one chunk
    }

    #[test]
    fn multi_chunk_payload() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        // capacity per chunk: (7 - 2) symbols * 8 bits = 40 bits (slack 1).
        let inst = instance(8, 100, vec![(0, 0, vec![7])]);
        let out = unit_route(&mut net, &inst).unwrap();
        assert_eq!(
            out.delivered[7].get(&(0, 0)),
            Some(&inst.messages[0].payload)
        );
        assert!(out.report.chunks >= 2);
    }

    #[test]
    fn self_target_is_local_and_free() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let inst = instance(8, 8, vec![(3, 0, vec![3])]);
        let out = unit_route(&mut net, &inst).unwrap();
        assert_eq!(
            out.delivered[3].get(&(3, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(out.report.rounds, 2); // stage still runs (no other msgs needed it, but schedule exists)
    }

    #[test]
    fn bandwidth_lanes_reduce_rounds() {
        // Two independent messages, bandwidth for 2 lanes: 1 round pair.
        let mut wide = Network::new(8, 18, 0.0, Adversary::none());
        let inst = instance(
            8,
            8,
            vec![(0, 0, vec![1]), (0, 1, vec![2])], // same src: 2 stages
        );
        let out = unit_route(&mut wide, &inst).unwrap();
        assert_eq!(out.report.rounds, 2, "two stages share one round pair");
        assert_eq!(
            out.delivered[1].get(&(0, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(
            out.delivered[2].get(&(0, 1)),
            Some(&inst.messages[1].payload)
        );
    }

    #[test]
    fn infeasible_alpha_is_reported() {
        // n = 8, alpha = 0.45: budget 3, e_allow = 7, needs L > 14 > 8.
        let mut net = Network::new(8, 9, 0.45, Adversary::none());
        let inst = instance(8, 8, vec![(0, 0, vec![1])]);
        assert!(matches!(
            unit_route(&mut net, &inst),
            Err(CoreError::Infeasible { .. })
        ));
    }
}

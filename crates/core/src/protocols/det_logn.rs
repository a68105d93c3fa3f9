//! Theorem 1.4 / 6.1: deterministic `O(log n)`-round `AllToAllComm` for
//! constant α, via the hypercube exchange pattern.

use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::routing::{
    RouteSession, RouterConfig, RoutingInstance, RoutingOutput, SharedCodewordCache, SuperMessage,
};
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;

/// The hypercube protocol (Figure 2 of the paper).
///
/// With `n = 2^ℓ` and ids read MSB-first, iteration `i ∈ 1..=ℓ` matches
/// every node `u` with `u' = Flip(u, i)` (ids equal except bit `i`). Each
/// node splits its current message set `M_i(u)` — sorted by target, then
/// source — into halves `M⁻ / M⁺` and routes them so that the partner with
/// bit `i = 0` collects both `M⁻` sets and the partner with bit `i = 1` both
/// `M⁺` sets. Lemma 6.2's invariant `M_i(u) = M(S(u,i), P(u,i))` lets every
/// receiver reconstruct all message identities *implicitly* (no id bits on
/// the wire); each iteration is one `k = 2` super-message routing instance
/// of `n·B/2`-bit messages (Lemma 6.3).
#[derive(Debug, Clone, Default)]
pub struct DetHypercube {
    /// Router configuration for every iteration.
    pub router: RouterConfig,
    /// Encode counter from [`AllToAllProtocol::attach_codeword_cache`],
    /// handed to every iteration's routing session; nothing is counted
    /// without one.
    encode_counter: Option<SharedCodewordCache>,
}

impl DetHypercube {
    /// Creates the protocol with a router configuration.
    pub fn new(router: RouterConfig) -> Self {
        Self {
            router,
            encode_counter: None,
        }
    }
}

/// `S(u, i)`: ids agreeing with `u` on bit positions `i..=ℓ` (MSB-first),
/// i.e. on the low `ℓ - i + 1` bits. Ascending. With [`p_set`] and
/// [`message_ids`], the explicit form of Lemma 6.2's invariant — kept as the
/// test oracle for the session's index arithmetic.
#[cfg(test)]
fn s_set(u: usize, i: usize, ell: usize) -> Vec<usize> {
    let low_bits = (ell + 1) - i;
    let mask = (1usize << low_bits) - 1;
    let fixed = u & mask;
    (0..1usize << (ell - low_bits))
        .map(|hi| (hi << low_bits) | fixed)
        .collect()
}

/// `P(u, i)`: ids agreeing with `u` on bit positions `1..i` (MSB-first),
/// i.e. on the high `i - 1` bits. Ascending.
#[cfg(test)]
fn p_set(u: usize, i: usize, ell: usize) -> Vec<usize> {
    let low_bits = ell - (i - 1);
    let hi = u >> low_bits;
    (0..1usize << low_bits)
        .map(|lo| (hi << low_bits) | lo)
        .collect()
}

/// The (target, source) id list of `M_i(u)` in ascending (target, source)
/// order — the implicit wire format of an iteration-`i` message set.
#[cfg(test)]
fn message_ids(u: usize, i: usize, ell: usize) -> Vec<(usize, usize)> {
    let sources = s_set(u, i, ell);
    let targets = p_set(u, i, ell);
    let mut ids = Vec::with_capacity(sources.len() * targets.len());
    for &t in &targets {
        for &s in &sources {
            ids.push((t, s));
        }
    }
    ids
}

/// The half of `M_i(u)` collected by the partner whose iteration bit is
/// `bit`: fields ascend by target first, and bit `i` is the top free target
/// bit, so bit 0 takes the lower `n/2` fields and bit 1 the upper.
fn half_of(state: &BitVec, bit: usize) -> BitVec {
    let mid = state.len() / 2;
    if bit == 0 {
        state.slice(0, mid)
    } else {
        state.slice(mid, state.len())
    }
}

/// `M_{i+1}(v)` from the two halves `v` collected in iteration `i`, indexed
/// by the *sender's* iteration bit `c`. Both halves list the targets
/// `P(v, i+1)` ascending, each with the sender's `srcs = 2^(i-1)` sources
/// `S(sender, i)`; the source with index `h` there has index `2h + c` in
/// `S(v, i+1)`, so field `t·srcs + h` of half `c` lands at field
/// `t·2·srcs + 2h + c` — a field-wise interleave, the same for every `i`.
/// A missing or wrong-length half reads as zeros. One-bit fields — the
/// `B = 1` of the paper's statement — move a word at a time: 32 fields of
/// each half spread to the even bits of a 64-bit word and meet there.
fn interleave_halves(halves: [Option<&BitVec>; 2], half_fields: usize, b: usize) -> BitVec {
    let mut next = BitVec::zeros(2 * half_fields * b);
    let halves = halves.map(|half| half.filter(|h| h.len() == half_fields * b));
    if b == 1 {
        for at in (0..half_fields).step_by(32) {
            let w = (half_fields - at).min(32) as u32;
            let [lo, hi] = halves.map(|half| half.map_or(0, |h| spread_bits(h.read_uint(at, w))));
            next.write_uint(2 * at, 2 * w, lo | hi << 1);
        }
        return next;
    }
    for (c, half) in halves.into_iter().enumerate() {
        let Some(half) = half else {
            continue;
        };
        for f in 0..half_fields {
            let (src, dst) = (f * b, (2 * f + c) * b);
            let mut off = 0;
            while off < b {
                let w = (b - off).min(64) as u32;
                next.write_uint(dst + off, w, half.read_uint(src + off, w));
                off += 64;
            }
        }
    }
    next
}

/// Bit `i` of the low 32 bits of `x` moved to bit `2i`, the odd bits zero.
fn spread_bits(x: u64) -> u64 {
    let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    let x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// The hypercube protocol as a state machine: `ℓ` iterations, one step per
/// network round.
struct HypercubeSession<'a> {
    /// Router configuration and encode counter of every iteration.
    proto: &'a DetHypercube,
    n: usize,
    ell: usize,
    b: usize,
    /// Current iteration `i ∈ 1..=ℓ`.
    i: usize,
    /// state[u]: `M_i(u)` as one string of `n` fields of `B` bits, in
    /// ascending (target, source) order of `M(S(u,i), P(u,i))` — identities
    /// are implicit in the field index (Lemma 6.2).
    state: Vec<BitVec>,
    engine: HcEngine,
}

/// How one iteration's half exchange executes.
enum HcEngine {
    /// Complete topology: each iteration is a `k = 2` routed super-message
    /// instance (the paper's construction, resilient to the α-BD adversary).
    Routed(RouteSession<'static>),
    /// Sparse topology containing every hypercube dimension edge: each
    /// iteration sends the partner's half *directly* over the matching edge
    /// `(u, Flip(u, i))`, sliced to the bandwidth — the classical (fault-
    /// sensitive) hypercube exchange, since the routed compiler needs K_n.
    Direct {
        /// Network rounds this iteration needs.
        rounds: usize,
        /// Rounds already exchanged this iteration.
        done: usize,
        /// outbox[u]: the half payload `u` sends to its partner.
        outbox: Vec<BitVec>,
        /// received[v]: the partner's half, assembled slice by slice
        /// (pre-zeroed; missing frames leave zeros).
        received: Vec<BitVec>,
    },
}

/// What an iteration's exchange produced, consumed by the shared rebuild.
enum HcDone {
    Routed(RoutingOutput),
    Direct(Vec<BitVec>),
}

/// Validates the instance shape shared by `new` and `restore`; returns `ℓ`.
fn dimension(net: &Network, inst: &AllToAllInstance) -> Result<usize, CoreError> {
    let n = inst.n();
    if n != net.n() {
        return Err(CoreError::invalid("instance size != network size"));
    }
    if !n.is_power_of_two() || n < 2 {
        return Err(CoreError::invalid(format!(
            "DetHypercube requires n to be a power of two, got {n}"
        )));
    }
    Ok(n.trailing_zeros() as usize)
}

impl<'a> HypercubeSession<'a> {
    fn new(
        proto: &'a DetHypercube,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let ell = dimension(net, inst)?;
        let n = inst.n();
        let b = inst.b();
        // M_1(u) = M({u}, V): u's outgoing messages in target order.
        let state: Vec<BitVec> = (0..n).map(|u| inst.outgoing_concat(u)).collect();
        let engine = if net.topology().is_complete() {
            HcEngine::Routed(Self::iteration_route(net, proto, &state, ell, 1)?)
        } else {
            let topo = net.topology();
            let has_dims = (0..n).all(|u| (0..ell).all(|j| topo.contains(u, u ^ (1 << j))));
            if !has_dims {
                return Err(CoreError::infeasible(
                    "det-hypercube on a sparse topology needs every dimension edge \
                     (u, u XOR 2^j); the given graph is missing some"
                        .to_string(),
                ));
            }
            Self::direct_engine(&state, net.bandwidth(), ell, 1)
        };
        Ok(Self {
            proto,
            n,
            ell,
            b,
            i: 1,
            state,
            engine,
        })
    }

    /// Opens iteration `i`'s direct partner exchange: precomputes each
    /// node's outgoing half (the half its partner collects) and sizes the
    /// round count to the bandwidth.
    fn direct_engine(state: &[BitVec], bandwidth: usize, ell: usize, i: usize) -> HcEngine {
        let bit_shift = ell - i;
        // The partner's bit is the complement of u's.
        let outbox: Vec<BitVec> = state
            .iter()
            .enumerate()
            .map(|(u, m)| half_of(m, 1 - ((u >> bit_shift) & 1)))
            .collect();
        let total = outbox[0].len();
        HcEngine::Direct {
            rounds: total.div_ceil(bandwidth).max(1),
            done: 0,
            received: vec![BitVec::zeros(total); state.len()],
            outbox,
        }
    }

    /// Builds iteration `i`'s `k = 2` routing instance and opens its
    /// session.
    fn iteration_route(
        net: &Network,
        proto: &DetHypercube,
        state: &[BitVec],
        ell: usize,
        i: usize,
    ) -> Result<RouteSession<'static>, CoreError> {
        let bit_shift = ell - i; // MSB-first bit i == LSB bit ell - i
        let instance = RoutingInstance {
            n: state.len(),
            payload_bits: state[0].len() / 2, // |M_i(u)| = n, halves of n/2 messages
            messages: state
                .iter()
                .enumerate()
                .flat_map(|(u, m)| {
                    // Slot c = the half going to the partner with bit i = c.
                    [0, 1].map(|c| SuperMessage {
                        src: u,
                        slot: c,
                        payload: half_of(m, c),
                        targets: vec![(u & !(1 << bit_shift)) | (c << bit_shift)],
                    })
                })
                .collect(),
        };
        RouteSession::new(net, instance, &proto.router, proto.encode_counter.clone())
    }

    /// Rebuilds a session from a snapshot. The routed engine carries its
    /// iteration instance in the serialized [`RouteSession`]; the direct
    /// engine re-derives its outbox and round count from the restored
    /// `state` and only overlays the exchange cursor and assembly buffers.
    fn restore(
        proto: &'a DetHypercube,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let ell = dimension(net, inst)?;
        let n = inst.n();
        let b = inst.b();
        let i = dec.get_usize().map_err(CoreError::from)?;
        if i < 1 || i > ell {
            return Err(CoreError::invalid(
                "hypercube snapshot iteration out of range",
            ));
        }
        let mut state: Vec<BitVec> = Vec::with_capacity(n);
        for _ in 0..n {
            let row = dec.get_bits().map_err(CoreError::from)?;
            if row.len() != n * b {
                return Err(CoreError::invalid(
                    "hypercube snapshot state row length mismatch",
                ));
            }
            state.push(row);
        }
        let engine = match dec.get_u8().map_err(CoreError::from)? {
            0 => HcEngine::Routed(RouteSession::restore(
                net,
                proto.encode_counter.clone(),
                dec,
            )?),
            1 => {
                let mut engine = Self::direct_engine(&state, net.bandwidth(), ell, i);
                let HcEngine::Direct {
                    rounds,
                    done,
                    received,
                    ..
                } = &mut engine
                else {
                    unreachable!("direct_engine builds a Direct engine");
                };
                *done = dec.get_usize().map_err(CoreError::from)?;
                if *done >= *rounds {
                    return Err(CoreError::invalid(
                        "hypercube snapshot round cursor out of range",
                    ));
                }
                for dst in received.iter_mut() {
                    let bits = dec.get_bits().map_err(CoreError::from)?;
                    if bits.len() != dst.len() {
                        return Err(CoreError::invalid(
                            "hypercube snapshot received half length mismatch",
                        ));
                    }
                    *dst = bits;
                }
                engine
            }
            _ => return Err(CoreError::invalid("unknown hypercube engine tag")),
        };
        Ok(Self {
            proto,
            n,
            ell,
            b,
            i,
            state,
            engine,
        })
    }
}

impl ProtocolSession for HypercubeSession<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        let (n, ell, b) = (self.n, self.ell, self.b);
        let i = self.i;
        if i > ell {
            return Err(CoreError::invalid("stepping a completed session"));
        }
        let bit_shift = ell - i;
        let half = n / 2;
        let outcome = match &mut self.engine {
            HcEngine::Routed(route) => match route.step(net)? {
                None => return Ok(Step::Running),
                Some(routed) => HcDone::Routed(routed),
            },
            HcEngine::Direct {
                rounds,
                done,
                outbox,
                received,
            } => {
                let bw = net.bandwidth();
                let total = half * b;
                let lo = *done * bw;
                let hi = ((*done + 1) * bw).min(total);
                let mut traffic = net.traffic();
                for (u, out) in outbox.iter().enumerate() {
                    if hi > lo {
                        traffic.send(u, u ^ (1 << bit_shift), out.slice(lo, hi));
                    }
                }
                let delivery = net.exchange(traffic);
                for (v, dst) in received.iter_mut().enumerate() {
                    let partner = v ^ (1 << bit_shift);
                    for (u, mut piece) in delivery.inbox_of(v) {
                        if u != partner {
                            continue;
                        }
                        // Overlong (adversarial) frame: clamp.
                        piece.truncate(hi - lo);
                        dst.write_bits(lo, &piece);
                    }
                }
                net.reclaim(delivery);
                *done += 1;
                if *done < *rounds {
                    return Ok(Step::Running);
                }
                HcDone::Direct(std::mem::take(received))
            }
        };
        // Iteration i's exchange finished: rebuild M_{i+1}(v) from the two
        // collected halves — v's own and its partner's, both the half of
        // v's iteration bit.
        let next: Vec<BitVec> = (0..n)
            .map(|v| {
                let my_bit = (v >> bit_shift) & 1;
                let partner = v ^ (1 << bit_shift);
                let own_half;
                let (own, theirs) = match &outcome {
                    HcDone::Routed(routed) => (
                        routed.delivered[v].get(&(v, my_bit)),
                        routed.delivered[v].get(&(partner, my_bit)),
                    ),
                    HcDone::Direct(received) => {
                        // The own half never leaves the node.
                        own_half = half_of(&self.state[v], my_bit);
                        (Some(&own_half), Some(&received[v]))
                    }
                };
                let halves = if my_bit == 0 {
                    [own, theirs]
                } else {
                    [theirs, own]
                };
                interleave_halves(halves, half, b)
            })
            .collect();
        self.state = next;
        self.i += 1;
        if self.i <= ell {
            self.engine = match &self.engine {
                HcEngine::Routed(_) => HcEngine::Routed(Self::iteration_route(
                    net,
                    self.proto,
                    &self.state,
                    ell,
                    self.i,
                )?),
                HcEngine::Direct { .. } => {
                    Self::direct_engine(&self.state, net.bandwidth(), ell, self.i)
                }
            };
            return Ok(Step::Running);
        }
        // M_{ℓ+1}(v) = M(V, {v}): field s is the message from source s.
        let mut output = AllToAllOutput::empty(n, b);
        for (v, m) in self.state.iter().enumerate() {
            for s in 0..n {
                output.set(v, s, m.slice(s * b, (s + 1) * b));
            }
        }
        Ok(Step::Done(output))
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        enc.put_usize(self.i);
        for row in &self.state {
            enc.put_bits(row);
        }
        match &self.engine {
            HcEngine::Routed(route) => {
                enc.put_u8(0);
                route.snapshot(enc);
            }
            HcEngine::Direct { done, received, .. } => {
                enc.put_u8(1);
                enc.put_usize(*done);
                for dst in received.iter() {
                    enc.put_bits(dst);
                }
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for DetHypercube {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("det-hypercube")
    }

    fn attach_codeword_cache(&mut self, counter: SharedCodewordCache) {
        self.encode_counter = Some(counter);
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(HypercubeSession::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(HypercubeSession::restore(self, net, inst, dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn set_algebra_matches_lemma() {
        // n = 8, ell = 3.
        assert_eq!(s_set(0b101, 1, 3), vec![0b101]); // S(u,1) = {u}
        assert_eq!(p_set(0b101, 1, 3).len(), 8); // P(u,1) = V
        assert_eq!(s_set(0b101, 4, 3).len(), 8); // S(u, ell+1) = V
        assert_eq!(p_set(0b101, 4, 3), vec![0b101]); // P(u, ell+1) = {u}
                                                     // Sizes: |S| = 2^{i-1}, |P| = 2^{ell-i+1}.
        for i in 1..=4usize {
            assert_eq!(s_set(5, i, 3).len(), 1 << (i - 1));
            assert_eq!(p_set(5, i, 3).len(), 1 << (4 - i));
        }
    }

    #[test]
    fn message_ids_are_sorted_by_target_then_source() {
        let ids = message_ids(3, 2, 3);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 8);
    }

    /// The pre-flat rebuild of `M_{i+1}(v)`, kept as the oracle for
    /// [`interleave_halves`]: key every field of the two collected halves by
    /// its explicit `(target, source)` id, then read the ids of
    /// `M_{i+1}(v)` out in order. `own`/`theirs` are the halves from `v`
    /// and from its partner; a missing half contributes zeros.
    fn reference_next(
        v: usize,
        i: usize,
        ell: usize,
        b: usize,
        own: Option<&BitVec>,
        theirs: Option<&BitVec>,
    ) -> BitVec {
        let half = (1usize << ell) / 2;
        let bit_shift = ell - i;
        let my_bit = (v >> bit_shift) & 1;
        let partner = v ^ (1 << bit_shift);
        let mut collected = std::collections::BTreeMap::new();
        for (sender, payload) in [(v, own), (partner, theirs)] {
            let Some(payload) = payload else { continue };
            let sender_ids = message_ids(sender, i, ell);
            let half_ids = if my_bit == 0 {
                &sender_ids[..half]
            } else {
                &sender_ids[half..]
            };
            for (idx, &id) in half_ids.iter().enumerate() {
                collected.insert(id, payload.slice(idx * b, (idx + 1) * b));
            }
        }
        let fields: Vec<BitVec> = message_ids(v, i + 1, ell)
            .iter()
            .map(|id| collected.remove(id).unwrap_or_else(|| BitVec::zeros(b)))
            .collect();
        BitVec::concat(fields.iter())
    }

    #[test]
    fn interleave_matches_the_message_id_merge() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let widths = [1usize, 2, 3, 64, 65];
        for n in [8usize, 16, 32, 128] {
            let ell = n.trailing_zeros() as usize;
            for b in widths {
                for i in 1..=ell {
                    for v in 0..n {
                        let own = BitVec::from_fn(n / 2 * b, |_| rng.gen());
                        let theirs = BitVec::from_fn(n / 2 * b, |_| rng.gen());
                        let my_bit = (v >> (ell - i)) & 1;
                        for theirs in [Some(&theirs), None] {
                            let halves = if my_bit == 0 {
                                [Some(&own), theirs]
                            } else {
                                [theirs, Some(&own)]
                            };
                            assert_eq!(
                                interleave_halves(halves, n / 2, b),
                                reference_next(v, i, ell, b, Some(&own), theirs),
                                "n = {n}, B = {b}, i = {i}, v = {v}"
                            );
                        }
                    }
                }
            }
        }
        // The id merge only knows powers of two. Field counts that end a
        // word early, against the definition: field f of half c is field
        // 2f + c of the result.
        for half_fields in [5usize, 33, 77, 100] {
            for b in widths {
                let halves = [0, 1].map(|_| BitVec::from_fn(half_fields * b, |_| rng.gen()));
                for present in [[true, true], [true, false], [false, true]] {
                    let given = [0, 1].map(|c| present[c].then_some(&halves[c]));
                    let next = interleave_halves(given, half_fields, b);
                    assert_eq!(next.len(), 2 * half_fields * b);
                    for f in 0..2 * half_fields {
                        let want = match given[f % 2] {
                            Some(half) => half.slice(f / 2 * b, (f / 2 + 1) * b),
                            None => BitVec::zeros(b),
                        };
                        assert_eq!(
                            next.slice(f * b, (f + 1) * b),
                            want,
                            "{half_fields} fields, B = {b}, field {f}"
                        );
                    }
                }
            }
        }
        // A wrong-length half reads as zeros, like a missing one.
        let own = BitVec::from_fn(4, |j| j % 2 == 0);
        let short = BitVec::zeros(3);
        assert_eq!(
            interleave_halves([Some(&own), Some(&short)], 4, 1),
            interleave_halves([Some(&own), None], 4, 1)
        );
    }

    /// `half_of` splits at the iteration bit: the lower half holds exactly
    /// the targets of `P(u, i)` whose bit `i` is 0.
    #[test]
    fn halves_split_targets_by_the_iteration_bit() {
        let (n, ell) = (16usize, 4usize);
        for i in 1..=ell {
            for u in 0..n {
                let ids = message_ids(u, i, ell);
                for (idx, &(t, _)) in ids.iter().enumerate() {
                    assert_eq!((t >> (ell - i)) & 1, usize::from(idx >= n / 2));
                }
            }
        }
    }

    #[test]
    fn perfect_without_faults_n8() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(8, 2, &mut rng);
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let out = DetHypercube::default().run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn perfect_without_faults_n32() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(32, 1, &mut rng);
        let mut net = Network::new(32, 9, 0.0, Adversary::none());
        let out = DetHypercube::default().run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn direct_mode_on_hypercube_topology() {
        use bdclique_netsim::Topology;
        for (n, b, bw) in [(8usize, 2usize, 9usize), (16, 3, 5)] {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let topo = Topology::hypercube(n);
            let inst = AllToAllInstance::random_on(&topo, b, &mut rng);
            let mut net = Network::on_topology(topo, bw, 0.0, Adversary::none());
            let out = DetHypercube::default().run(&mut net, &inst).unwrap();
            assert_eq!(inst.count_errors(&out), 0, "n = {n}");
            // ℓ iterations of ⌈(n/2)·b / B⌉ direct rounds each.
            let ell = n.trailing_zeros() as u64;
            let per = ((n / 2 * b).div_ceil(bw)) as u64;
            assert_eq!(net.rounds(), ell * per, "n = {n}");
        }
    }

    #[test]
    fn direct_mode_refuses_restepping_a_completed_session() {
        use bdclique_netsim::Topology;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let topo = Topology::hypercube(8);
        let inst = AllToAllInstance::random_on(&topo, 2, &mut rng);
        let mut net = Network::on_topology(topo, 9, 0.0, Adversary::none());
        let proto = DetHypercube::default();
        let mut session = proto.session(&net, &inst).unwrap();
        loop {
            if let Step::Done(_) = session.step(&mut net).unwrap() {
                break;
            }
        }
        assert!(session.step(&mut net).is_err());
    }

    #[test]
    fn sparse_graph_without_dimension_edges_is_infeasible() {
        use bdclique_netsim::Topology;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let topo = Topology::ring(8); // misses the higher-dimension edges
        let inst = AllToAllInstance::random_on(&topo, 2, &mut rng);
        let mut net = Network::on_topology(topo, 9, 0.0, Adversary::none());
        assert!(matches!(
            DetHypercube::default().run(&mut net, &inst),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let inst = AllToAllInstance::random(6, 1, &mut rng);
        let mut net = Network::new(6, 9, 0.0, Adversary::none());
        assert!(DetHypercube::default().run(&mut net, &inst).is_err());
    }
}

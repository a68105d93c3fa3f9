//! Theorem 1.2 / 5.1: randomized `O(1)`-round `AllToAllComm` against a
//! **non-adaptive** α-BD adversary with constant α, bandwidth `B = Θ(log n)`.
//!
//! The paper's construction, at symbol granularity: node `v1` samples `R`
//! secret shifts and broadcasts them resiliently; copy `i` of `m_{u,v}`
//! travels to the random relay `p_i(v) = v + h_i` (one round — for fixed
//! `i`, `p_i` is a permutation, so each edge carries exactly one copy);
//! relays then forward their `n`-message bundles to the true targets through
//! the resilient super-message router; receivers take a per-message majority
//! over the `R` copies.
//!
//! Because the adversary committed its edge sets before the shifts existed,
//! each copy is corrupted with probability ≤ α, independently across `i` —
//! the paper's Lemma 5.4 — and a Chernoff bound drives the per-message
//! failure below any polynomial. Publishing the shifts to an *adaptive*
//! adversary (which this protocol is *not* designed for) lets experiments
//! demonstrate the separation the paper draws between the two settings.

use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::broadcast::BroadcastSession;
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::routing::{RouteSession, RouterConfig, RoutingInstance, SuperMessage};
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// The non-adaptive compiler (Theorem 1.2).
#[derive(Debug, Clone)]
pub struct NonAdaptiveAllToAll {
    /// Number of independent random copies `R` (odd; `Θ(log n)` for the
    /// w.h.p. guarantee).
    pub copies: usize,
    /// Router configuration for the relay-to-target wave.
    pub router: RouterConfig,
    /// Seed for node `v1`'s local randomness (injectable for
    /// reproducibility; *not* visible to non-adaptive adversaries).
    pub seed: u64,
}

impl Default for NonAdaptiveAllToAll {
    fn default() -> Self {
        Self {
            copies: 5,
            router: RouterConfig::default(),
            seed: 0x5eed1,
        }
    }
}

/// Every node decodes its own copy of the broadcast shifts (16-bit fields);
/// within the validated margin they all equal the sampled shifts. Honest
/// nodes use their local decoding. Free-standing so session phases can call
/// it while `self.phase` is mutably borrowed.
fn decode_shifts(bits: &BitVec, r: usize, n: usize) -> Vec<usize> {
    (0..r)
        .map(|i| bits.read_uint(i * 16, 16) as usize % n)
        .collect()
}

/// Execution phases of the non-adaptive compiler.
enum NaPhase {
    /// Publish the shifts and open the broadcast (first step).
    Publish,
    /// Broadcasting the shifts (Cor. 4.8).
    Broadcast(BroadcastSession),
    /// Copy waves: one step per copy group.
    CopyWave {
        received_shifts: Vec<BitVec>,
        /// `[relay][copy][src]`.
        copy_store: Vec<Vec<Vec<Option<BitVec>>>>,
        copy_group_start: usize,
    },
    /// Relay wave: resilient super-message routing.
    Route {
        received_shifts: Vec<BitVec>,
        route: RouteSession<'static>,
    },
}

/// The non-adaptive compiler as a state machine.
struct NaSession<'a> {
    proto: &'a NonAdaptiveAllToAll,
    inst: &'a AllToAllInstance,
    n: usize,
    b: usize,
    r: usize,
    shift_bits: BitVec,
    phase: NaPhase,
}

impl<'a> NaSession<'a> {
    fn new(
        proto: &'a NonAdaptiveAllToAll,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let r = proto.copies;
        if r == 0 || r.is_multiple_of(2) {
            return Err(CoreError::invalid("copies must be odd and positive"));
        }
        // ---- Node v1 samples shifts (broadcast them in the first step). ----
        let mut v1_rng = ChaCha8Rng::seed_from_u64(proto.seed);
        let shifts: Vec<usize> = (0..r).map(|_| v1_rng.gen_range(1..n)).collect();
        let mut shift_bits = BitVec::new();
        for &h in &shifts {
            shift_bits.push_uint(16, h as u64);
        }
        Ok(Self {
            proto,
            inst,
            n,
            b: inst.b(),
            r,
            shift_bits,
            phase: NaPhase::Publish,
        })
    }

    /// Rebuilds a session from a snapshot. The shifts are re-derived from
    /// `proto.seed` by `new` (node `v1`'s sampling is deterministic); only
    /// the phase and its buffers are overlaid.
    fn restore(
        proto: &'a NonAdaptiveAllToAll,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let mut s = Self::new(proto, net, inst)?;
        let (n, r) = (s.n, s.r);
        let get_shifts = |dec: &mut Dec<'_>| -> Result<Vec<BitVec>, CoreError> {
            let shifts = dec.get_seq(1, Dec::get_bits).map_err(CoreError::from)?;
            if shifts.len() != n {
                return Err(CoreError::invalid(
                    "nonadaptive snapshot shift table size mismatch",
                ));
            }
            Ok(shifts)
        };
        s.phase = match dec.get_u8().map_err(CoreError::from)? {
            0 => NaPhase::Publish,
            1 => NaPhase::Broadcast(BroadcastSession::restore(net, dec)?),
            2 => {
                let received_shifts = get_shifts(dec)?;
                let copy_group_start = dec.get_usize().map_err(CoreError::from)?;
                if copy_group_start >= r {
                    return Err(CoreError::invalid(
                        "nonadaptive snapshot copy cursor out of range",
                    ));
                }
                let mut copy_store = vec![vec![vec![None; n]; r]; n];
                for relay in copy_store.iter_mut() {
                    for copy in relay.iter_mut() {
                        for slot in copy.iter_mut() {
                            *slot = dec.get_opt(Dec::get_bits).map_err(CoreError::from)?;
                        }
                    }
                }
                NaPhase::CopyWave {
                    received_shifts,
                    copy_store,
                    copy_group_start,
                }
            }
            3 => NaPhase::Route {
                received_shifts: get_shifts(dec)?,
                route: RouteSession::restore(net, None, dec)?,
            },
            _ => return Err(CoreError::invalid("unknown nonadaptive phase tag")),
        };
        Ok(s)
    }

    /// ---- Majority vote per message. ----
    fn finish(
        &self,
        received_shifts: &[BitVec],
        routed: &crate::routing::RoutingOutput,
    ) -> AllToAllOutput {
        let (n, b) = (self.n, self.b);
        let mut out = AllToAllOutput::empty(n, b);
        for v in 0..n {
            let my_shifts = decode_shifts(&received_shifts[v], self.r, n);
            for u in 0..n {
                if u == v {
                    out.set(v, u, self.inst.message(u, u));
                    continue;
                }
                let mut tally: Vec<(BitVec, usize)> = Vec::new();
                for (i, &h) in my_shifts.iter().enumerate() {
                    let w = (v + h) % n;
                    let Some(bundle) = routed.delivered[v].get(&(w, i)) else {
                        continue;
                    };
                    if bundle.len() < (u + 1) * b {
                        continue;
                    }
                    let copy = bundle.slice(u * b, (u + 1) * b);
                    match tally.iter_mut().find(|(x, _)| *x == copy) {
                        Some((_, c)) => *c += 1,
                        None => tally.push((copy, 1)),
                    }
                }
                tally.sort_by_key(|t| std::cmp::Reverse(t.1));
                if let Some((winner, _)) = tally.first() {
                    out.set(v, u, winner.clone());
                }
            }
        }
        out
    }
}

impl ProtocolSession for NaSession<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        let (n, b, r) = (self.n, self.b, self.r);
        loop {
            match &mut self.phase {
                NaPhase::Publish => {
                    // Model the rushing adaptive adversary's knowledge: a
                    // *non-adaptive* adversary never sees this (the
                    // simulator hides `publish` from it).
                    net.publish("nonadaptive/shifts", self.shift_bits.clone());
                    self.phase = NaPhase::Broadcast(BroadcastSession::new(
                        net,
                        0,
                        &self.shift_bits,
                        &self.proto.router,
                    )?);
                    // Fall through: the publish itself costs no round.
                }
                NaPhase::Broadcast(bcast) => {
                    let Some(received_shifts) = bcast.step(net)? else {
                        return Ok(Step::Running);
                    };
                    self.phase = NaPhase::CopyWave {
                        received_shifts,
                        copy_store: vec![vec![vec![None; n]; r]; n],
                        copy_group_start: 0,
                    };
                    return Ok(Step::Running);
                }
                NaPhase::CopyWave {
                    received_shifts,
                    copy_store,
                    copy_group_start,
                } => {
                    // ---- Copy waves: copy i of m_{u,v} goes to relay
                    // (v + h_i) % n, `per_round` copies per exchange. ----
                    let per_round = (net.bandwidth() / b).max(1).min(r);
                    let group: Vec<usize> =
                        (*copy_group_start..r.min(*copy_group_start + per_round)).collect();
                    let mut traffic = net.traffic();
                    for u in 0..n {
                        let my_shifts = decode_shifts(&received_shifts[u], r, n);
                        for w in 0..n {
                            if w == u {
                                // Relay is the sender itself: store locally.
                                for &i in &group {
                                    let v = (u + n - my_shifts[i]) % n;
                                    if v != u {
                                        copy_store[u][i][u] = Some(self.inst.message(u, v));
                                    }
                                }
                                continue;
                            }
                            let mut frame = BitVec::zeros(group.len() * b);
                            let mut any = false;
                            for (pos, &i) in group.iter().enumerate() {
                                let v = (w + n - my_shifts[i]) % n;
                                if v == u {
                                    continue; // own message, kept locally
                                }
                                let msg = self.inst.message(u, v);
                                for t in 0..b {
                                    if msg.get(t) {
                                        frame.set(pos * b + t, true);
                                    }
                                }
                                any = true;
                            }
                            if any {
                                traffic.send(u, w, frame);
                            }
                        }
                    }
                    let delivery = net.exchange(traffic);
                    for w in 0..n {
                        for (u, frame) in delivery.inbox_of(w) {
                            for (pos, &i) in group.iter().enumerate() {
                                if frame.len() >= (pos + 1) * b {
                                    copy_store[w][i][u] = Some(frame.slice(pos * b, (pos + 1) * b));
                                }
                            }
                        }
                    }
                    net.reclaim(delivery);
                    *copy_group_start += group.len();
                    if *copy_group_start < r {
                        return Ok(Step::Running);
                    }
                    // ---- Relay wave: relay w routes bundle i to
                    // v = (w - h_i) % n. ----
                    let bundle_bits = n * b;
                    let instance = RoutingInstance {
                        n,
                        payload_bits: bundle_bits,
                        messages: (0..n)
                            .flat_map(|w| {
                                let my_shifts = decode_shifts(&received_shifts[w], r, n);
                                (0..r)
                                    .map(|i| {
                                        let v = (w + n - my_shifts[i]) % n;
                                        let mut payload = BitVec::zeros(bundle_bits);
                                        for u in 0..n {
                                            if let Some(m) = &copy_store[w][i][u] {
                                                for t in 0..b.min(m.len()) {
                                                    payload.set(u * b + t, m.get(t));
                                                }
                                            }
                                        }
                                        SuperMessage {
                                            src: w,
                                            slot: i,
                                            payload,
                                            targets: vec![v],
                                        }
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect(),
                    };
                    let route = RouteSession::new(net, instance, &self.proto.router, None)?;
                    self.phase = NaPhase::Route {
                        received_shifts: std::mem::take(received_shifts),
                        route,
                    };
                    return Ok(Step::Running);
                }
                NaPhase::Route {
                    received_shifts,
                    route,
                } => {
                    let Some(routed) = route.step(net)? else {
                        return Ok(Step::Running);
                    };
                    let received_shifts = std::mem::take(received_shifts);
                    return Ok(Step::Done(self.finish(&received_shifts, &routed)));
                }
            }
        }
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        match &self.phase {
            NaPhase::Publish => enc.put_u8(0),
            NaPhase::Broadcast(bcast) => {
                enc.put_u8(1);
                bcast.snapshot(enc);
            }
            NaPhase::CopyWave {
                received_shifts,
                copy_store,
                copy_group_start,
            } => {
                enc.put_u8(2);
                enc.put_seq(received_shifts, Enc::put_bits);
                enc.put_usize(*copy_group_start);
                for relay in copy_store.iter() {
                    for copy in relay.iter() {
                        for slot in copy.iter() {
                            enc.put_opt(slot.as_ref(), Enc::put_bits);
                        }
                    }
                }
            }
            NaPhase::Route {
                received_shifts,
                route,
            } => {
                enc.put_u8(3);
                enc.put_seq(received_shifts, Enc::put_bits);
                route.snapshot(enc);
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for NonAdaptiveAllToAll {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("nonadaptive-r(R={})", self.copies))
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(NaSession::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(NaSession::restore(self, net, inst, dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;

    #[test]
    fn perfect_without_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(16, 2, &mut rng);
        let mut net = Network::new(16, 10, 0.0, Adversary::none());
        let out = NonAdaptiveAllToAll::default().run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn rejects_even_copy_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(8, 1, &mut rng);
        let mut net = Network::new(8, 10, 0.0, Adversary::none());
        let proto = NonAdaptiveAllToAll {
            copies: 4,
            ..Default::default()
        };
        assert!(proto.run(&mut net, &inst).is_err());
    }
}

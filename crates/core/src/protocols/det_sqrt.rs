//! Theorem 1.5 / 6.4: deterministic `O(1)`-round `AllToAllComm` for
//! α = Θ(1/√n), via two waves of resilient super-message routing over √n
//! node segments.

use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::routing::{
    RouteSession, RouterConfig, RoutingInstance, SharedCodewordCache, SuperMessage,
};
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;

/// The √n-segment protocol (Figure 3 of the paper).
///
/// With `n = s²` and segments `S_1, …, S_s` of `s` consecutive nodes:
///
/// 1. node `v` sends `M°({v}, S_j)` to `S_{i(v)}[j]` for every `j` — after
///    which segment `S_i` collectively holds `M(S_i, V)`;
/// 2. node `S_i[j]` sends `M°(S_i, {S_j[ℓ]})` to `S_j[ℓ]` for every `ℓ` —
///    after which every `v` holds `M(V, {v})`.
///
/// Each wave is a super-message routing instance with `k = √n` messages of
/// `√n·B` bits per node (Lemmas 6.5, 6.6).
///
/// At large `n` the cover-free margin for `k = √n` is infeasible, so the
/// waves run on the *stage-parallel unit engine* (`O(√n)` stages whose
/// per-pack encode/decode fan out across threads — see
/// [`crate::routing::unit`]); that is what carries this protocol to
/// `n = 4096` in the `alpha-largen` scenario. Pass a
/// [`RouterConfig`] with [`crate::routing::RoutingMode::Unit`] there to
/// skip the (provably failing, and at `k = 64` expensive) cover-free
/// feasibility probe per wave.
#[derive(Debug, Clone, Default)]
pub struct DetSqrt {
    /// Router configuration for both waves.
    pub router: RouterConfig,
    /// Encode counter from [`AllToAllProtocol::attach_codeword_cache`],
    /// handed to both waves' routing sessions; nothing is counted without
    /// one.
    encode_counter: Option<SharedCodewordCache>,
}

impl DetSqrt {
    /// Creates the protocol with a router configuration.
    pub fn new(router: RouterConfig) -> Self {
        Self {
            router,
            encode_counter: None,
        }
    }
}

/// The two routed waves of Figure 3, as session phases.
enum SqrtPhase {
    Wave1(RouteSession<'static>),
    Wave2(RouteSession<'static>),
}

/// The √n-segment protocol as a state machine: one step per routing round.
struct SqrtSession<'a> {
    proto: &'a DetSqrt,
    n: usize,
    s: usize,
    b: usize,
    phase: SqrtPhase,
}

impl<'a> SqrtSession<'a> {
    fn new(
        proto: &'a DetSqrt,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let s = (n as f64).sqrt().round() as usize;
        if s * s != n {
            return Err(CoreError::invalid(format!(
                "DetSqrt requires n to be a perfect square, got {n} \
                 (the paper's Lemma 2.8 reduction is replaced by parameter choice)"
            )));
        }
        let b = inst.b();
        let seg = |i: usize| (i * s)..((i + 1) * s); // S_i
        let group_of = |v: usize| v / s;
        let member = |i: usize, j: usize| i * s + j; // S_i[j]

        // ---- Wave 1: v sends M°({v}, S_j) to S_{i(v)}[j]. ----
        let wave1 = RoutingInstance {
            n,
            payload_bits: s * b,
            messages: (0..n)
                .flat_map(|v| (0..s).map(move |j| (v, j)))
                .map(|(v, j)| SuperMessage {
                    src: v,
                    slot: j,
                    payload: inst.outgoing_segment(v, seg(j)),
                    targets: vec![member(group_of(v), j)],
                })
                .collect(),
        };
        Ok(Self {
            proto,
            n,
            s,
            b,
            phase: SqrtPhase::Wave1(RouteSession::new(
                net,
                wave1,
                &proto.router,
                proto.encode_counter.clone(),
            )?),
        })
    }

    /// Rebuilds a session from a snapshot. Both waves embed their routing
    /// instance in the serialized [`RouteSession`] (wave 2's instance is
    /// built from wave 1's deliveries and cannot be re-derived), so no
    /// instance reconstruction happens here.
    fn restore(
        proto: &'a DetSqrt,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let s = (n as f64).sqrt().round() as usize;
        if s * s != n {
            return Err(CoreError::invalid(
                "DetSqrt requires n to be a perfect square",
            ));
        }
        let tag = dec.get_u8().map_err(CoreError::from)?;
        let route = RouteSession::restore(net, proto.encode_counter.clone(), dec)?;
        let phase = match tag {
            0 => SqrtPhase::Wave1(route),
            1 => SqrtPhase::Wave2(route),
            _ => return Err(CoreError::invalid("unknown det-sqrt wave tag")),
        };
        Ok(Self {
            proto,
            n,
            s,
            b: inst.b(),
            phase,
        })
    }
}

impl ProtocolSession for SqrtSession<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        let (n, s, b) = (self.n, self.s, self.b);
        let seg = |i: usize| (i * s)..((i + 1) * s);
        let member = |i: usize, j: usize| i * s + j;
        match &mut self.phase {
            SqrtPhase::Wave1(route) => {
                let Some(out1) = route.step(net)? else {
                    return Ok(Step::Running);
                };
                // Node S_i[j] now holds M(S_i, S_j): rows indexed by
                // u ∈ S_i. holdings[w] = map u -> M°({u}, S_j) for
                // w = S_i[j].
                let mut holdings: Vec<Vec<BitVec>> = vec![Vec::new(); n];
                for i in 0..s {
                    for j in 0..s {
                        let w = member(i, j);
                        let mut rows = Vec::with_capacity(s);
                        for u in seg(i) {
                            let row = out1.delivered[w]
                                .get(&(u, j))
                                .cloned()
                                .unwrap_or_else(|| BitVec::zeros(s * b));
                            rows.push(row);
                        }
                        holdings[w] = rows;
                    }
                }

                // ---- Wave 2: S_i[j] sends M°(S_i, {S_j[ℓ]}) to S_j[ℓ]. ----
                let wave2 = RoutingInstance {
                    n,
                    payload_bits: s * b,
                    messages: (0..s)
                        .flat_map(|i| (0..s).map(move |j| (i, j)))
                        .flat_map(|(i, j)| {
                            let w = member(i, j);
                            (0..s)
                                .map(|ell| {
                                    // Column ℓ of M(S_i, S_j): bits
                                    // [ℓ·b, (ℓ+1)·b) of each row.
                                    let payload = BitVec::concat(
                                        holdings[w]
                                            .iter()
                                            .map(|row| row.slice(ell * b, (ell + 1) * b))
                                            .collect::<Vec<_>>()
                                            .iter(),
                                    );
                                    SuperMessage {
                                        src: w,
                                        slot: ell,
                                        payload,
                                        targets: vec![member(j, ell)],
                                    }
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect(),
                };
                self.phase = SqrtPhase::Wave2(RouteSession::new(
                    net,
                    wave2,
                    &self.proto.router,
                    self.proto.encode_counter.clone(),
                )?);
                Ok(Step::Running)
            }
            SqrtPhase::Wave2(route) => {
                let Some(out2) = route.step(net)? else {
                    return Ok(Step::Running);
                };
                // ---- Output: v = S_j[ℓ] assembles M(V, {v}). ----
                let mut output = AllToAllOutput::empty(n, b);
                for j in 0..s {
                    for ell in 0..s {
                        let v = member(j, ell);
                        for i in 0..s {
                            let w = member(i, j);
                            let col = out2.delivered[v]
                                .get(&(w, ell))
                                .cloned()
                                .unwrap_or_else(|| BitVec::zeros(s * b));
                            for (offset, u) in seg(i).enumerate() {
                                output.set(v, u, col.slice(offset * b, (offset + 1) * b));
                            }
                        }
                    }
                }
                Ok(Step::Done(output))
            }
        }
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        let (tag, route) = match &self.phase {
            SqrtPhase::Wave1(route) => (0, route),
            SqrtPhase::Wave2(route) => (1, route),
        };
        enc.put_u8(tag);
        route.snapshot(enc);
        Ok(())
    }
}

impl AllToAllProtocol for DetSqrt {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("det-sqrt")
    }

    fn attach_codeword_cache(&mut self, counter: SharedCodewordCache) {
        self.encode_counter = Some(counter);
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(SqrtSession::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(SqrtSession::restore(self, net, inst, dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn perfect_without_faults_n16() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(16, 2, &mut rng);
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let out = DetSqrt::default().run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn perfect_without_faults_n64() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(64, 1, &mut rng);
        let mut net = Network::new(64, 18, 0.0, Adversary::none());
        let out = DetSqrt::default().run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
    }

    #[test]
    fn rejects_non_square_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let inst = AllToAllInstance::random(12, 1, &mut rng);
        let mut net = Network::new(12, 9, 0.0, Adversary::none());
        assert!(DetSqrt::default().run(&mut net, &inst).is_err());
    }
}

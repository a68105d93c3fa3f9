//! The unprotected direct exchange: one round, zero resilience.

use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;

/// Direct exchange: `u` sends `m_{u,v}` straight to `v`. The fault-free
/// optimum (and the first step of the adaptive compilers); every corrupted
/// edge is a corrupted message.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveExchange;

/// The direct exchange as a state machine: one step per bandwidth slice.
/// Also embedded by `AdaptiveAllToAll` as its Step I.
pub(crate) struct NaiveSession<'a> {
    inst: &'a AllToAllInstance,
    n: usize,
    b: usize,
    slices: usize,
    per: usize,
    /// Next slice to exchange.
    s: usize,
    /// Pre-zeroed assembly buffer, `n²` messages of `b` bits packed
    /// receiver-major: `v`'s copy of `m_{u,v}` is bits `[(v·n + u)·b, +b)`.
    /// Delivered slices are written in place; missing or short frames
    /// simply leave zeros behind.
    partial: BitVec,
}

impl<'a> NaiveSession<'a> {
    pub(crate) fn new(net: &Network, inst: &'a AllToAllInstance) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        let b = inst.b();
        let slices = b.div_ceil(net.bandwidth()).max(1);
        let per = b.div_ceil(slices);
        Ok(Self {
            inst,
            n,
            b,
            slices,
            per,
            s: 0,
            partial: BitVec::zeros(n * n * b),
        })
    }

    /// Rebuilds a session serialized by its `ProtocolSession::snapshot`.
    /// Derived geometry (`slices`, `per`) comes back from `new`; only the
    /// cursor and the assembly buffer are overlaid.
    pub(crate) fn restore(
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let mut s = Self::new(net, inst)?;
        s.s = dec.get_usize().map_err(CoreError::from)?;
        if s.s >= s.slices {
            return Err(CoreError::invalid("naive snapshot cursor out of range"));
        }
        for cell in 0..s.n * s.n {
            let bits = dec.get_bits().map_err(CoreError::from)?;
            if bits.len() != s.b {
                return Err(CoreError::invalid("naive snapshot message width mismatch"));
            }
            s.partial.write_bits(cell * s.b, &bits);
        }
        Ok(s)
    }

    /// `v`'s assembled copy of `m_{u,v}`.
    fn assembled(&self, v: usize, u: usize) -> BitVec {
        let start = (v * self.n + u) * self.b;
        self.partial.slice(start, start + self.b)
    }

    fn finish(&self) -> AllToAllOutput {
        let mut out = AllToAllOutput::empty(self.n, self.b);
        for v in 0..self.n {
            for u in 0..self.n {
                let m = if u == v {
                    self.inst.message(u, u)
                } else {
                    self.assembled(v, u)
                };
                out.set(v, u, m);
            }
        }
        out
    }
}

impl ProtocolSession for NaiveSession<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        if self.s >= self.slices {
            return Err(CoreError::invalid("session stepped after completion"));
        }
        let (n, b) = (self.n, self.b);
        let lo = self.s * self.per;
        let hi = ((self.s + 1) * self.per).min(b);
        // Walk the topology's neighborhoods (ascending) — on the clique this
        // is exactly the historical `0..n` minus `u` sweep; on a sparse graph
        // only real edges carry frames, and non-adjacent pairs keep their
        // pre-zeroed assembly buffers (the zero message of masked instances).
        let topo = net.topology_handle();
        let mut traffic = net.traffic();
        for u in 0..n {
            for v in topo.neighbors(u) {
                if hi > lo {
                    traffic.send(u, v, self.inst.message(u, v).slice(lo, hi));
                }
            }
        }
        let delivery = net.exchange(traffic);
        for v in 0..n {
            for (u, mut piece) in delivery.inbox_of(v) {
                // An overlong (adversarial) frame is clamped to the window.
                piece.truncate(hi - lo);
                self.partial.write_bits((v * n + u) * b + lo, &piece);
            }
        }
        net.reclaim(delivery);
        self.s += 1;
        if self.s == self.slices {
            return Ok(Step::Done(self.finish()));
        }
        Ok(Step::Running)
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        enc.put_usize(self.s);
        for v in 0..self.n {
            for u in 0..self.n {
                enc.put_bits(&self.assembled(v, u));
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for NaiveExchange {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("naive")
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(NaiveSession::new(net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(NaiveSession::restore(net, inst, dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn perfect_without_faults() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let inst = AllToAllInstance::random(8, 4, &mut rng);
        let mut net = Network::new(8, 8, 0.0, Adversary::none());
        let out = NaiveExchange.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
        assert_eq!(net.rounds(), 1);
    }

    #[test]
    fn sparse_topology_delivers_neighbor_messages() {
        use bdclique_netsim::Topology;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let topo = Topology::ring(8);
        let inst = AllToAllInstance::random_on(&topo, 4, &mut rng);
        let mut net = Network::on_topology(topo, 8, 0.0, Adversary::none());
        let out = NaiveExchange.run(&mut net, &inst).unwrap();
        // Neighbor messages arrive on the wire; non-adjacent pairs keep the
        // zero message the masked instance holds for them.
        assert_eq!(inst.count_errors(&out), 0);
        assert_eq!(net.rounds(), 1);
    }

    #[test]
    fn wide_messages_use_multiple_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(4, 10, &mut rng);
        let mut net = Network::new(4, 4, 0.0, Adversary::none());
        let out = NaiveExchange.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
        assert_eq!(net.rounds(), 3);
    }
}

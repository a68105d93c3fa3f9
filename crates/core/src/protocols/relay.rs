//! The static-fault-tolerance baseline: replication over relay paths with
//! majority voting.
//!
//! This embodies the classical approach the paper's introduction contrasts
//! with: route each message over `R` disjoint two-hop relay paths and take a
//! majority. Against a *static* adversary controlling fewer than `⌈R/2⌉`
//! well-placed edges per pair this is perfect — but a *mobile* adversary of
//! faulty degree **one** (the rotating matching, α = 1/n) can poison a
//! different relay hop every round and defeat any replication factor on
//! targeted pairs. Experiment `F.MATCH` measures exactly this.

use super::{AllToAllProtocol, ProtocolSession, Step};
use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use bdclique_bits::BitVec;
use bdclique_netsim::{Delivery, Network, Topology};
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;
use std::sync::Arc;

/// Replication over `R` two-hop relay paths, with per-message majority.
///
/// Copy `i` of `m_{u,v}` travels `u → c_i(u,v) → v` with
/// `c_i(u,v) = (u + v + h_i) mod n` for distinct shifts `h_i`; for fixed `i`
/// the relay map is a bijection in each coordinate, so every copy wave costs
/// exactly two rounds of full-mesh traffic.
#[derive(Debug, Clone, Copy)]
pub struct RelayReplication {
    /// Number of relay copies (odd; majority threshold `⌈R/2⌉`).
    pub copies: usize,
}

impl Default for RelayReplication {
    fn default() -> Self {
        Self { copies: 3 }
    }
}

/// Within one copy wave, which hop runs next.
enum RelayPhase {
    /// Hop 1: `u → c_i(u, v)`.
    Hop1,
    /// Hop 2: `c → v`, forwarding what hop 1 delivered (`d1`) plus the
    /// relay-was-sender copies kept locally.
    Hop2 {
        d1: Delivery,
        local: Vec<Option<(usize, BitVec)>>,
    },
}

/// The replication baseline as a state machine: two steps (hops) per copy.
struct RelaySession<'a> {
    inst: &'a AllToAllInstance,
    copies: usize,
    n: usize,
    b: usize,
    /// Current copy index `i`.
    i: usize,
    phase: RelayPhase,
    votes: Vec<Vec<Vec<BitVec>>>,
    /// `Some` on a sparse topology: the arithmetic relay bijection needs the
    /// clique, so replication degrades to *time* replication — each copy is
    /// one direct round over the graph's edges, and the majority is taken
    /// over rounds instead of relay paths.
    topo: Option<Arc<Topology>>,
}

impl<'a> RelaySession<'a> {
    fn new(
        proto: &RelayReplication,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Self, CoreError> {
        let n = inst.n();
        if n != net.n() {
            return Err(CoreError::invalid("instance size != network size"));
        }
        if proto.copies == 0 || proto.copies >= n {
            return Err(CoreError::invalid("copies must be in 1..n"));
        }
        let b = inst.b();
        if b > net.bandwidth() {
            return Err(CoreError::invalid("message wider than bandwidth"));
        }
        Ok(Self {
            inst,
            copies: proto.copies,
            n,
            b,
            i: 0,
            phase: RelayPhase::Hop1,
            votes: vec![vec![Vec::new(); n]; n],
            topo: (!net.topology().is_complete()).then(|| net.topology_handle()),
        })
    }

    /// Rebuilds a session serialized by its `ProtocolSession::snapshot`:
    /// the structural fields come back from `new`, then the copy cursor,
    /// mid-copy phase, and vote tallies are overlaid.
    fn restore(
        proto: &RelayReplication,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Self, CoreError> {
        let mut s = Self::new(proto, net, inst)?;
        s.i = dec.get_usize().map_err(CoreError::from)?;
        if s.i >= s.copies {
            return Err(CoreError::invalid("relay snapshot cursor out of range"));
        }
        s.phase = match dec.get_u8().map_err(CoreError::from)? {
            0 => RelayPhase::Hop1,
            1 => {
                let d1 = Delivery::restore(dec).map_err(CoreError::from)?;
                if d1.n() != s.n {
                    return Err(CoreError::invalid("relay snapshot delivery size mismatch"));
                }
                let local = dec
                    .get_seq(1, |d| d.get_opt(|d| Ok((d.get_usize()?, d.get_bits()?))))
                    .map_err(CoreError::from)?;
                if local.len() != s.n {
                    return Err(CoreError::invalid(
                        "relay snapshot local table size mismatch",
                    ));
                }
                RelayPhase::Hop2 { d1, local }
            }
            _ => return Err(CoreError::invalid("unknown relay phase tag")),
        };
        for row in &mut s.votes {
            for cell in row.iter_mut() {
                *cell = dec.get_seq(1, Dec::get_bits).map_err(CoreError::from)?;
            }
        }
        Ok(s)
    }

    /// Majority per message.
    fn finish(&mut self) -> AllToAllOutput {
        let (n, b) = (self.n, self.b);
        let mut out = AllToAllOutput::empty(n, b);
        for v in 0..n {
            for u in 0..n {
                if u == v {
                    out.set(v, u, self.inst.message(u, u));
                    continue;
                }
                if let Some(topo) = &self.topo {
                    if !topo.contains(u, v) {
                        // Non-adjacent pair: the zero message by convention
                        // (masked instances hold zeros off the edge set).
                        out.set(v, u, BitVec::zeros(b));
                        continue;
                    }
                }
                let mut tally: Vec<(BitVec, usize)> = Vec::new();
                for m in &self.votes[v][u] {
                    let mut normalized = m.clone();
                    normalized.pad_to(b);
                    normalized.truncate(b);
                    match tally.iter_mut().find(|(x, _)| *x == normalized) {
                        Some((_, c)) => *c += 1,
                        None => tally.push((normalized, 1)),
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

impl ProtocolSession for RelaySession<'_> {
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError> {
        if self.i >= self.copies {
            return Err(CoreError::invalid("session stepped after completion"));
        }
        let n = self.n;
        if let Some(topo) = self.topo.clone() {
            // Sparse mode: one direct round per copy over the real edges.
            let mut traffic = net.traffic();
            for u in 0..n {
                for v in topo.neighbors(u) {
                    traffic.send(u, v, self.inst.message(u, v));
                }
            }
            let d = net.exchange(traffic);
            for (v, inbox) in d.into_inboxes().into_iter().enumerate() {
                for (u, m) in inbox {
                    self.votes[v][u as usize].push(m);
                }
            }
            self.i += 1;
            if self.i == self.copies {
                return Ok(Step::Done(self.finish()));
            }
            return Ok(Step::Running);
        }
        let h = 1 + self.i; // distinct deterministic shifts
        match std::mem::replace(&mut self.phase, RelayPhase::Hop1) {
            RelayPhase::Hop1 => {
                let relay = |u: usize, v: usize| (u + v + h) % n;
                // Hop 1: u -> c_i(u, v).
                let mut traffic = net.traffic();
                let mut local: Vec<Option<(usize, BitVec)>> = vec![None; n]; // relay == u
                for u in 0..n {
                    for v in 0..n {
                        if u == v {
                            continue;
                        }
                        let c = relay(u, v);
                        if c == u {
                            local[u] = Some((v, self.inst.message(u, v)));
                        } else {
                            traffic.send(u, c, self.inst.message(u, v));
                        }
                    }
                }
                let d1 = net.exchange(traffic);
                self.phase = RelayPhase::Hop2 { d1, local };
                Ok(Step::Running)
            }
            RelayPhase::Hop2 { d1, mut local } => {
                // Hop 2: c -> v. Relay w received the copy from u destined
                // to v where w = (u + v + h) mod n; for each sender u the
                // target is v = (w - u - h) mod n. Forwarding walks each
                // relay's inbox and moves the frames on — O(received
                // frames), no clones, no n² probe sweep.
                let mut traffic = net.traffic();
                for (w, inbox) in d1.into_inboxes().into_iter().enumerate() {
                    if let Some((v, m)) = local[w].take() {
                        // The relay was the sender itself (u == w).
                        if v != w {
                            traffic.send(w, v, m);
                        }
                    }
                    for (u, m) in inbox {
                        let u = u as usize;
                        let v = (w + 2 * n - u - h) % n;
                        if v == u {
                            continue;
                        }
                        if v == w {
                            self.votes[v][u].push(m);
                        } else {
                            traffic.send(w, v, m);
                        }
                    }
                }
                let d2 = net.exchange(traffic);
                // Receiver side of hop 2: invert the relay map per sender.
                for (v, inbox) in d2.into_inboxes().into_iter().enumerate() {
                    for (w, m) in inbox {
                        let u = (w as usize + 2 * n - v - h) % n;
                        if u == v {
                            continue;
                        }
                        self.votes[v][u].push(m);
                    }
                }
                self.i += 1;
                if self.i == self.copies {
                    return Ok(Step::Done(self.finish()));
                }
                Ok(Step::Running)
            }
        }
    }

    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        enc.put_usize(self.i);
        match &self.phase {
            RelayPhase::Hop1 => enc.put_u8(0),
            RelayPhase::Hop2 { d1, local } => {
                enc.put_u8(1);
                d1.snapshot(enc);
                enc.put_seq(local, |e, slot| {
                    e.put_opt(slot.as_ref(), |e, (v, m)| {
                        e.put_usize(*v);
                        e.put_bits(m);
                    });
                });
            }
        }
        for row in &self.votes {
            for cell in row {
                enc.put_seq(cell, Enc::put_bits);
            }
        }
        Ok(())
    }
}

impl AllToAllProtocol for RelayReplication {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("relay-replication(x{})", self.copies))
    }

    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(RelaySession::new(self, net, inst)?))
    }

    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        Ok(Box::new(RelaySession::restore(self, net, inst, dec)?))
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
        let inst = AllToAllInstance::random(10, 3, &mut rng);
        let mut net = Network::new(10, 8, 0.0, Adversary::none());
        let out = RelayReplication { copies: 3 }.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
        assert_eq!(net.rounds(), 6);
    }

    #[test]
    fn sparse_topology_uses_time_replication() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let topo = Topology::random_regular(16, 4, 3);
        let inst = AllToAllInstance::random_on(&topo, 3, &mut rng);
        let mut net = Network::on_topology(topo, 8, 0.0, Adversary::none());
        let out = RelayReplication { copies: 3 }.run(&mut net, &inst).unwrap();
        assert_eq!(inst.count_errors(&out), 0);
        // One direct round per copy (no relay hops on a sparse graph).
        assert_eq!(net.rounds(), 3);
    }

    #[test]
    fn rejects_bad_copies() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let inst = AllToAllInstance::random(4, 2, &mut rng);
        let mut net = Network::new(4, 8, 0.0, Adversary::none());
        assert!(RelayReplication { copies: 0 }.run(&mut net, &inst).is_err());
        assert!(RelayReplication { copies: 4 }.run(&mut net, &inst).is_err());
    }
}

//! Resilient broadcast (Corollary 4.8): one node delivers an `O(n)`-bit
//! string to everyone in `O(1)` rounds despite the α-BD adversary.

use crate::error::CoreError;
use crate::routing::{RouteSession, RouterConfig, RoutingInstance, SuperMessage};
use bdclique_bits::BitVec;
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc};

/// A broadcast in flight: a [`RouteSession`] over the single multi-target
/// super-message of Corollary 4.8, steppable one `exchange` at a time.
pub struct BroadcastSession {
    src: usize,
    payload_len: usize,
    n: usize,
    route: RouteSession<'static>,
}

impl BroadcastSession {
    /// Builds the broadcast routing instance and its engine session. No
    /// rounds run until the first [`BroadcastSession::step`].
    ///
    /// # Errors
    ///
    /// Routing feasibility/validation errors ([`CoreError`]).
    pub fn new(
        net: &Network,
        src: usize,
        payload: &BitVec,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        let n = net.n();
        if src >= n {
            return Err(CoreError::invalid(format!("src {src} out of range")));
        }
        let instance = RoutingInstance {
            n,
            payload_bits: payload.len().max(1),
            messages: vec![SuperMessage {
                src,
                slot: 0,
                payload: payload.clone(),
                targets: (0..n).collect(),
            }],
        };
        Ok(Self {
            src,
            payload_len: payload.len(),
            n,
            route: RouteSession::new(net, instance, cfg, None)?,
        })
    }

    /// Advances at most one `exchange`; returns what each node decoded
    /// (`out[src]` is the original) once the broadcast completes.
    ///
    /// # Errors
    ///
    /// Propagates routing errors ([`CoreError`]).
    pub fn step(&mut self, net: &mut Network) -> Result<Option<Vec<BitVec>>, CoreError> {
        let Some(out) = self.route.step(net)? else {
            return Ok(None);
        };
        let mut result = Vec::with_capacity(self.n);
        for v in 0..self.n {
            let got = out.delivered[v]
                .get(&(self.src, 0))
                .cloned()
                .unwrap_or_else(|| BitVec::zeros(self.payload_len));
            result.push(got);
        }
        Ok(Some(result))
    }

    /// Serializes the broadcast state.
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.src);
        enc.put_usize(self.payload_len);
        enc.put_usize(self.n);
        self.route.snapshot(enc);
    }

    /// Rebuilds a broadcast session from a snapshot. Bypasses
    /// [`BroadcastSession::new`]: the payload lives inside the serialized
    /// routing instance, so the struct is assembled directly.
    pub(crate) fn restore(net: &Network, dec: &mut Dec<'_>) -> Result<Self, CoreError> {
        let src = dec.get_usize().map_err(CoreError::from)?;
        let payload_len = dec.get_usize().map_err(CoreError::from)?;
        let n = dec.get_usize().map_err(CoreError::from)?;
        if src >= n || n != net.n() {
            return Err(CoreError::invalid("broadcast snapshot shape mismatch"));
        }
        let route = RouteSession::restore(net, None, dec)?;
        Ok(Self {
            src,
            payload_len,
            n,
            route,
        })
    }
}

/// Broadcasts `payload` from `src` to every node.
///
/// Implemented exactly as the paper's Corollary 4.8: a single
/// super-message routing instance whose target list is `V`.
/// Returns what each node decoded (`out[src]` is the original).
///
/// # Errors
///
/// Routing feasibility/validation errors ([`CoreError`]).
pub fn broadcast(
    net: &mut Network,
    src: usize,
    payload: &BitVec,
    cfg: &RouterConfig,
) -> Result<Vec<BitVec>, CoreError> {
    let mut session = BroadcastSession::new(net, src, payload, cfg)?;
    loop {
        if let Some(out) = session.step(net)? {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::Adversary;

    #[test]
    fn fault_free_broadcast_reaches_everyone() {
        let mut net = Network::new(16, 9, 0.0, Adversary::none());
        let payload = BitVec::from_fn(40, |i| i % 3 == 1);
        let out = broadcast(&mut net, 0, &payload, &RouterConfig::default()).unwrap();
        for v in 0..16 {
            assert_eq!(out[v], payload, "node {v}");
        }
    }

    #[test]
    fn broadcast_from_last_node() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let payload = BitVec::from_bools(&[true, false, true, true]);
        let out = broadcast(&mut net, 7, &payload, &RouterConfig::default()).unwrap();
        assert!(out.iter().all(|p| *p == payload));
    }

    #[test]
    fn rejects_bad_source() {
        let mut net = Network::new(4, 9, 0.0, Adversary::none());
        assert!(broadcast(&mut net, 9, &BitVec::zeros(4), &RouterConfig::default()).is_err());
    }
}

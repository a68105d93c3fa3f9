//! Synchronous B-Congested-Clique simulator with mobile bounded-degree
//! Byzantine edge adversaries (the model of Section 2 of the paper).
//!
//! # Model
//!
//! * `n` nodes with ids `0..n` (KT1: everyone knows all ids), connected by
//!   a [`Topology`] — the paper's complete graph `K_n` by default
//!   ([`Network::new`]), or any generated graph via
//!   [`Network::on_topology`].
//! * Communication proceeds in synchronous rounds; in each round every
//!   ordered pair `(u, v)` **that shares a topology edge** may carry up to
//!   `B` bits ([`Traffic`]); frames queued on non-edges are rejected.
//! * A mobile **α-BD adversary** controls a per-round edge set `F_i` whose
//!   faulty degree at every node `v` is at most `⌊α·(deg(v)+1)⌋` — on the
//!   clique this is exactly the paper's `⌊αn⌋` — and may replace the
//!   messages crossing controlled edges (both directions) arbitrarily. The
//!   simulator *enforces* the degree constraint (and topology membership):
//!   a strategy that oversteps its budget is rejected.
//! * **Non-adaptive** ([`Adversary::non_adaptive`]): the edge sets are a
//!   function of the round index only — chosen before any traffic flows —
//!   while corrupted *contents* may depend on the current intended traffic
//!   (the "rushing" refinement of the paper's footnote 3).
//! * **Adaptive** ([`Adversary::adaptive`]): both the edge set and the
//!   contents may depend on everything — the current round's intended
//!   messages, any randomness the protocol has published, and whatever the
//!   strategy remembers of earlier rounds (footnote 4's rushing adaptive
//!   adversary). The strategy sees every round as it happens and may keep
//!   any memory of it; that memory is its own checkpointed state
//!   ([`AdaptiveStrategy::save_state`]), not a transcript the network keeps.
//!
//! # Storage layer
//!
//! A round's frame matrix lives in one of two stores, selected by load
//! factor and by nothing else: sparse per-sender adjacency rows until the
//! round holds `n²/16` frames, from then on one
//! [`bdclique_bits::BitGrid`]: a presence bitset plus a length-prefixed,
//! bandwidth-wide slot of bits per pair (≈ 3.4 MB at `n = 1024` and
//! bandwidth 20). Deliveries expose per-receiver iteration
//! ([`Delivery::inbox_of`]) so receiving costs `O(frames)` rather than
//! `O(n)` probes per node, and the [`Network`] recycles tables and the grid
//! across rounds ([`Network::reclaim`]); emptying a grid zeroes its `n²`
//! presence bits and nothing else. Reads hand frames out by value, inline
//! up to 64 bits. This is what scales experiments from `n = 64` to
//! `n ≥ 4096`.
//!
//! # Examples
//!
//! ```
//! use bdclique_netsim::{Adversary, Network, Traffic};
//! use bdclique_bits::BitVec;
//!
//! let mut net = Network::new(4, 8, 0.0, Adversary::none());
//! let mut traffic = net.traffic();
//! traffic.send(0, 1, BitVec::from_bools(&[true, false, true]));
//! let delivery = net.exchange(traffic);
//! assert_eq!(delivery.received(1, 0), Some(BitVec::from_bools(&[true, false, true])));
//! assert_eq!(net.rounds(), 1);
//! ```

mod adversary;
mod network;
pub mod seed;
mod stats;
mod store;
mod topology;
mod traffic;

pub use adversary::{
    AdaptiveScope, AdaptiveStrategy, Adversary, AdversaryView, BusyPair, CorruptionScope,
    Corruptor, EdgePlan, EdgeSet,
};
pub use network::{Network, NetworkError, PublishedLog};
pub use seed::SeedStream;
pub use stats::NetStats;
pub use topology::Topology;
pub use traffic::{Delivery, Inbox, Traffic};

//! # bdclique — All-to-All Communication with a Mobile Edge Adversary
//!
//! A full implementation of Fischer–Parter, *All-to-All Communication with
//! Mobile Edge Adversary: Almost Linearly More Faults, For Free* (PODC
//! 2025): general compilers that simulate any Congested Clique algorithm
//! round by round while a mobile Byzantine adversary controls an α-fraction
//! of the edges **incident to every node** in every round.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`bits`] — the bit-vector wire format,
//! * [`hash`] — k-wise independent hashing and shared randomness,
//! * [`codes`] — Reed–Solomon codes and a Reed–Muller locally decodable
//!   code,
//! * [`sketch`] — k-sparse recovery sketches,
//! * [`coverfree`] — (r, δ)-cover-free receiver-set families,
//! * [`netsim`] — the B-Congested-Clique simulator with the α-BD adversary
//!   model,
//! * [`adversary`] — concrete attack strategies,
//! * [`core`] — the routing scheme, the four `AllToAllComm` protocols of
//!   the paper's Table 1, the baselines, and the round-by-round compiler.
//!
//! # Quickstart
//!
//! Run the deterministic √n-segment protocol against an adaptive adversary
//! and verify that every message arrives:
//!
//! ```
//! use bdclique::adversary::adaptive::GreedyLoad;
//! use bdclique::adversary::Payload;
//! use bdclique::core::protocols::{AllToAllProtocol, DetSqrt};
//! use bdclique::core::AllToAllInstance;
//! use bdclique::netsim::{Adversary, Network};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let inst = AllToAllInstance::random(16, 2, &mut rng);
//! let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 1));
//! let mut net = Network::new(16, 9, 0.07, adversary);
//! let out = DetSqrt::default().run(&mut net, &inst).unwrap();
//! assert_eq!(inst.count_errors(&out), 0);
//! ```

pub use bdclique_adversary as adversary;
pub use bdclique_bits as bits;
pub use bdclique_codes as codes;
pub use bdclique_core as core;
pub use bdclique_coverfree as coverfree;
pub use bdclique_hash as hash;
pub use bdclique_netsim as netsim;
pub use bdclique_sketch as sketch;

//! Payload rewriting policies shared by all strategies.

use crate::rng_state;
use bdclique_bits::BitVec;
use bdclique_netsim::{AdversaryView, CorruptionScope, Corruptor, EdgeSet};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How a controlled frame is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Flip every bit (the hardest deterministic corruption for linear
    /// codes with majority-style decoding).
    Flip,
    /// Replace with all-zero bits of the same length.
    Zero,
    /// Replace with uniformly random bits of the same length.
    Random,
    /// Remove the frame entirely (erasure-style jamming).
    Suppress,
}

impl Payload {
    /// Applies the policy to a frame.
    pub fn apply(self, frame: Option<&BitVec>, rng: &mut impl Rng) -> Option<BitVec> {
        let frame = frame?;
        match self {
            Payload::Flip => {
                let mut f = frame.clone();
                for i in 0..f.len() {
                    f.flip(i);
                }
                Some(f)
            }
            Payload::Zero => Some(BitVec::zeros(frame.len())),
            Payload::Random => Some(BitVec::from_fn(frame.len(), |_| rng.gen())),
            Payload::Suppress => None,
        }
    }
}

/// A [`Corruptor`] that applies a fixed [`Payload`] policy to every frame
/// crossing the controlled edges (both directions — the adversary owns the
/// edge).
#[derive(Debug)]
pub struct PayloadCorruptor {
    payload: Payload,
    rng: ChaCha8Rng,
}

impl PayloadCorruptor {
    /// Creates the corruptor; `seed` matters only for [`Payload::Random`].
    pub fn new(payload: Payload, seed: u64) -> Self {
        Self {
            payload,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Corruptor for PayloadCorruptor {
    fn corrupt(
        &mut self,
        _view: &AdversaryView<'_>,
        edges: &EdgeSet,
        scope: &mut CorruptionScope<'_>,
    ) {
        let mut edge_list: Vec<(usize, usize)> = edges.iter().collect();
        edge_list.sort_unstable(); // determinism independent of hash order
        for (u, v) in edge_list {
            for (a, b) in [(u, v), (v, u)] {
                if let Some(frame) = scope.intended(a, b) {
                    let new = self.payload.apply(Some(&frame), &mut self.rng);
                    scope.set(a, b, new);
                }
            }
        }
    }

    fn save_state(&self, enc: &mut Enc) {
        rng_state::save(enc, &self.rng);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.rng = rng_state::load(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_inverts_every_bit() {
        let f = BitVec::from_bools(&[true, false, true]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let out = Payload::Flip.apply(Some(&f), &mut rng).unwrap();
        assert_eq!(out, BitVec::from_bools(&[false, true, false]));
    }

    #[test]
    fn zero_and_suppress() {
        let f = BitVec::from_bools(&[true, true]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            Payload::Zero.apply(Some(&f), &mut rng).unwrap(),
            BitVec::zeros(2)
        );
        assert_eq!(Payload::Suppress.apply(Some(&f), &mut rng), None);
        assert_eq!(Payload::Flip.apply(None, &mut rng), None);
    }

    #[test]
    fn random_preserves_length() {
        let f = BitVec::from_bools(&[true; 9]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = Payload::Random.apply(Some(&f), &mut rng).unwrap();
        assert_eq!(out.len(), 9);
    }
}

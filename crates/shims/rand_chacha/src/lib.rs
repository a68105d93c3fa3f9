//! Offline shim of the [`rand_chacha`](https://crates.io/crates/rand_chacha)
//! crate providing [`ChaCha8Rng`].
//!
//! This is a genuine ChaCha stream cipher keyed by a 32-byte seed (RFC 8439
//! layout, 8 rounds, 64-bit block counter), not a toy LCG — the workspace's
//! protocol experiments rely on the statistical quality of the stream. The
//! word stream is **not** guaranteed byte-identical to upstream
//! `rand_chacha` (no golden-value test in this workspace depends on that);
//! it is fully deterministic in the seed, which is what every caller needs.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

/// A deterministic ChaCha-8 random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    /// 8 key words from the seed.
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the state).
    counter: u64,
    /// Buffered keystream block.
    buf: [u32; BLOCK_WORDS],
    /// Next unread word index in `buf` (`BLOCK_WORDS` = exhausted).
    idx: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    const ROUNDS: usize = 8;

    fn refill(&mut self) {
        let mut state: [u32; BLOCK_WORDS] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        for _ in 0..(Self::ROUNDS / 2) {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.buf = state;
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The generator's resumable position: `(key, counter, idx)`, where
    /// `counter` is the *next* block to generate and `idx` the next unread
    /// word of the current block (`16` = block exhausted). Together with
    /// [`ChaCha8Rng::from_position`] this round-trips the exact stream
    /// position for checkpoint/resume — the buffered block itself is
    /// regenerated at restore, never stored.
    #[must_use]
    pub fn position(&self) -> ([u32; 8], u64, usize) {
        (self.key, self.counter, self.idx)
    }

    /// Rebuilds a generator at the position captured by
    /// [`ChaCha8Rng::position`]. The next word drawn is bit-identical to
    /// what the captured generator would have drawn next.
    #[must_use]
    pub fn from_position(key: [u32; 8], counter: u64, idx: usize) -> Self {
        assert!(idx <= BLOCK_WORDS, "idx out of range");
        let mut rng = Self {
            key,
            counter,
            buf: [0; BLOCK_WORDS],
            idx: BLOCK_WORDS,
        };
        if idx < BLOCK_WORDS {
            // Mid-block: regenerate the buffered block (refill consumes
            // `counter` and re-increments it back to the saved value),
            // then seek to the saved word.
            rng.counter = counter.wrapping_sub(1);
            rng.refill();
            rng.idx = idx;
            debug_assert_eq!(rng.counter, counter);
        }
        rng
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            *word = u32::from_le_bytes(seed[i * 4..i * 4 + 4].try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buf: [0; BLOCK_WORDS],
            idx: BLOCK_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_rfc8439_chacha_core_structure() {
        // The ChaCha20 quarter-round test vector from RFC 8439 §2.1.1.
        let mut state = [0u32; BLOCK_WORDS];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be unrelated");
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn position_round_trips_mid_block_and_at_boundaries() {
        // Fresh (never pumped), mid-block, and exactly-exhausted positions.
        for draws in [0usize, 1, 5, 15, 16, 17, 40] {
            let mut a = ChaCha8Rng::seed_from_u64(1234);
            for _ in 0..draws {
                a.next_u32();
            }
            let (key, counter, idx) = a.position();
            let mut b = ChaCha8Rng::from_position(key, counter, idx);
            for i in 0..64 {
                assert_eq!(a.next_u64(), b.next_u64(), "draws {draws}, word {i}");
            }
        }
    }

    #[test]
    fn stream_looks_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ones: u32 = (0..1024).map(|_| rng.next_u64().count_ones()).sum();
        let total = 1024 * 64;
        // A fair stream has ~50% ones; allow a generous 2% band.
        assert!((ones as f64 / total as f64 - 0.5).abs() < 0.02);
    }
}

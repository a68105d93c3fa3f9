//! Offline API-subset shim of the [`rand`](https://crates.io/crates/rand)
//! crate (0.8 API surface).
//!
//! This build environment has no registry access, so the workspace vendors
//! the small slice of `rand` it actually uses: [`RngCore`], [`SeedableRng`]
//! (with a SplitMix64-based `seed_from_u64` seed expansion), and the [`Rng`]
//! extension trait with `gen`, `gen_range`, and `gen_bool`. Swapping back to
//! the real crate is a one-line change in the workspace manifest — but note
//! the streams are **not** value-compatible with upstream (`rand_core`
//! expands `seed_from_u64` with PCG32, not SplitMix64), so seeded
//! experiment outputs will change; nothing here is part of the public
//! bdclique API.

/// The core of a random number generator: a source of random words.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;

    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates the generator from a `u64`, expanding it with SplitMix64.
    ///
    /// Deterministic and stable within this workspace, but **not** the same
    /// expansion as upstream `rand_core` (which uses PCG32): swapping in the
    /// real crate changes every seeded stream.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            // SplitMix64 (Vigna), as used by rand::SeedableRng.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z = z ^ (z >> 31);
            let bytes = (z as u32).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types that [`Rng::gen`] can produce uniformly.
pub trait Standard: Sized {
    /// Samples one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u8
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u16
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform sample from the half-open range `[low, high)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;

    /// Uniform sample from the closed range `[low, high]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Unbiased uniform draw from `[0, span)` by rejection (widening to u128
/// keeps the multiply-shift trick exact for 64-bit spans).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Lemire's multiply-shift rejection method.
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: low must be < high");
                let span = (high as u64) - (low as u64);
                low + uniform_below(rng, span) as $t
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
            ) -> Self {
                assert!(low <= high, "gen_range: low must be <= high");
                let span = (high as u64).wrapping_sub(low as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                low + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: low must be < high");
                let span = (high as $u).wrapping_sub(low as $u) as u64;
                low.wrapping_add(uniform_below(rng, span) as $t)
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
            ) -> Self {
                assert!(low <= high, "gen_range: low must be <= high");
                let span = ((high as $u).wrapping_sub(low as $u) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: low must be < high");
                let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                low + (high - low) * unit
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
            ) -> Self {
                Self::sample_range(rng, low, high)
            }
        }
    )*};
}

impl_uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from the type's natural domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fills `dest` with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&y));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Counter(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}

//! Offline API-subset shim of the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! Supports the surface this workspace uses: the [`proptest!`] macro with an
//! optional `#![proptest_config(..)]` header, range / tuple / collection /
//! `any::<T>()` strategies, `prop_map`, and the `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` macros. Cases are generated from a
//! ChaCha8 stream seeded per test name (override with `PROPTEST_SEED`), so
//! failures are reproducible. **No shrinking**: a failing case reports its
//! seed and case index instead of a minimized input.

pub mod strategy {
    //! Value-generation strategies.

    use rand::Rng;
    pub use rand_chacha::ChaCha8Rng as TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
    }
}

pub mod arbitrary {
    //! The [`any`] entry point for type-default strategies.

    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one value covering the type's natural domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Size specifications: an exact `usize`, `a..b`, or `a..=b`.
    pub trait IntoSizeRange {
        /// Draws a concrete size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A vector of values from `element` with length drawn from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let want = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // Duplicates collapse; bound the retries so tiny element domains
            // still terminate (the set is then smaller than requested, which
            // real proptest also permits for saturated domains).
            let mut attempts = 0usize;
            while out.len() < want && attempts < want * 20 + 64 {
                out.insert(self.element.new_value(rng));
                attempts += 1;
            }
            out
        }
    }

    /// A set of values from `element` with target size drawn from `size`.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        BTreeSetStrategy { element, size }
    }
}

pub mod sample {
    //! Index sampling helpers.

    use crate::arbitrary::Arbitrary;
    use crate::strategy::TestRng;
    use rand::Rng;

    /// A position in a collection of as-yet-unknown size: scale with
    /// [`Index::index`] once the length is known.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Maps this abstract index onto `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.gen())
        }
    }
}

pub mod test_runner {
    //! Case execution: seeding, rejection bookkeeping, and failure reports.

    use crate::strategy::TestRng;
    use rand::SeedableRng;

    /// Runner configuration (`cases` is the only knob this shim honors).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
        /// Maximum rejected (`prop_assume!`) cases before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                max_global_rejects: 65536,
            }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the inputs; try another case.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// An assertion failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A filtered (assumed-away) case.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Derives the base seed for a named test, honoring `PROPTEST_SEED`.
    fn base_seed(name: &str) -> u64 {
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(v) = s.parse::<u64>() {
                return v;
            }
        }
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Runs `config.cases` cases of `body`, panicking on the first failure
    /// with enough context to reproduce it.
    pub fn run_cases<F>(config: ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let seed = base_seed(name);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let mut case = 0u64;
        while passed < config.cases {
            let mut rng = TestRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            match body(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > config.max_global_rejects {
                        panic!(
                            "proptest '{name}': too many prop_assume! rejections \
                             ({rejected}) before reaching {} cases",
                            config.cases
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{name}' failed at case {case} (base seed {seed}): {msg}\n\
                         reproduce with PROPTEST_SEED={seed}"
                    );
                }
            }
            case += 1;
        }
    }
}

/// The `prop::` namespace mirrored from upstream's prelude.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    //! Glob-import surface matching upstream `proptest::prelude::*`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares seeded property tests. Mirrors upstream's macro shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u64..100, v in prop::collection::vec(any::<bool>(), 0..32)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { @cfg($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (@cfg($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                $crate::test_runner::run_cases(config, stringify!($name), |__pt_rng| {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), __pt_rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not the process)
/// so the runner can report the seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Filters the current case: rejected cases don't count toward the target.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -2i32..=2) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2..=2).contains(&y));
        }

        #[test]
        fn vec_sizes_respect_spec(v in prop::collection::vec(any::<bool>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn assume_filters(x in 0u64..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn tuples_and_map(pair in (0usize..4, 0usize..4).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair <= 6);
        }

        #[test]
        fn index_scales(ix in any::<prop::sample::Index>()) {
            let i = ix.index(7);
            prop_assert!(i < 7);
        }
    }

    #[test]
    fn btree_set_reaches_target_size() {
        let strat = prop::collection::btree_set(0u32..1000, 5..=5);
        let mut rng = crate::strategy::TestRng::seed_from_u64(1);
        let s = strat.new_value(&mut rng);
        assert_eq!(s.len(), 5);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_seed() {
        crate::test_runner::run_cases(ProptestConfig::with_cases(4), "always_fails", |_rng| {
            Err(TestCaseError::fail("boom"))
        });
    }
}

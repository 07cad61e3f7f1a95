//! Offline shim for `proptest`.
//!
//! Implements the subset of proptest's API that the `wnoc` property suites
//! use: the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_filter`, integer-range
//! and tuple strategies, `Just`, `any::<T>()`, `prop_oneof!`,
//! `prop::collection::vec`, `ProptestConfig::with_cases`, and the
//! `proptest!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate, by design:
//!
//! * no shrinking — a failing case panics with the sampled inputs unshrunk;
//! * sampling is driven by a fixed-seed deterministic RNG, so a failure
//!   reproduces on every run;
//! * `prop_assert*` panics immediately instead of returning `Err`.
//!
//! See `shims/README.md` for how to swap the crates.io release back in.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::Range;

    /// Strategy producing `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generate vectors whose elements come from `element` and whose length
    /// lies in `size` (half-open, like `1..25`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude::*`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, Rejected, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    pub mod prop {
        //! Mirrors the `proptest::prelude::prop` module path.
        pub use crate::collection;
    }
}

/// Run one property: sample inputs, call `case`, retry on `prop_assume!`
/// rejections.  Called by the expansion of [`proptest!`].
pub fn run_property<F>(config: &test_runner::ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut test_runner::TestRng) -> Result<(), test_runner::Rejected>,
{
    // Derive the stream from the property name so every property explores a
    // different portion of the input space but reruns identically.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        seed ^= u64::from(byte);
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = test_runner::TestRng::new(seed);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(16).max(256);
    while accepted < config.cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(test_runner::Rejected) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "property `{name}`: too many prop_assume! rejections \
                     ({rejected} rejects for {accepted} accepted cases)"
                );
            }
        }
    }
}

/// Defines property tests over sampled inputs, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal recursion for [`proptest!`] — one generated test fn per property.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($config:expr)) => {};
    (@cfg($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            $crate::run_property(&config, stringify!($name), |__wnoc_rng| {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), __wnoc_rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_impl!(@cfg($config) $($rest)*);
    };
}

/// Choose uniformly between several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assert within a property; panics with the formatted message on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*);
    };
}

/// Discard the current case (does not count towards the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

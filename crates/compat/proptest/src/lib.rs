//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace's property tests
//! use: the [`proptest!`] macro, `prop_assert*` assertions, the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`, range /
//! tuple / [`any`] / [`collection::vec`] / [`option::of`] / string-pattern
//! strategies, and [`test_runner::ProptestConfig`].
//!
//! Differences from upstream, by design: cases are generated from a fixed
//! per-case seed (fully deterministic runs), there is no shrinking and no
//! failure-persistence file, and string "regex" strategies only support the
//! `.{a,b}` shape used in-tree (anything else falls back to short
//! printable-ASCII strings).

pub mod test_runner {
    /// Per-test configuration (only `cases` is honored).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic case generator (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The generator for the `case`-th case of a property.
        pub fn for_case(case: u64) -> Self {
            Self { state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5115_2A11_D00D_FEED }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `usize` in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Held across one case by `proptest!`: if the case panics, names the
    /// property and the case on the way out. Cases are seeded by their index
    /// ([`TestRng::for_case`]), so that line is all a replay needs.
    #[doc(hidden)]
    pub struct CaseGuard(pub &'static str, pub u32);

    impl Drop for CaseGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property {} failed at case {}", self.0, self.1);
            }
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Generate an intermediate value, then generate from the strategy
        /// `f` builds out of it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($ty:ty),+ $(,)?) => {
            $(
                impl Strategy for std::ops::Range<$ty> {
                    type Value = $ty;
                    fn generate(&self, rng: &mut TestRng) -> $ty {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as i128 - self.start as i128) as u128;
                        let off = (rng.next_u64() as u128) % span;
                        (self.start as i128 + off as i128) as $ty
                    }
                }
                impl Strategy for std::ops::RangeInclusive<$ty> {
                    type Value = $ty;
                    fn generate(&self, rng: &mut TestRng) -> $ty {
                        let (lo, hi) = (*self.start(), *self.end());
                        assert!(lo <= hi, "empty range strategy");
                        let span = (hi as i128 - lo as i128 + 1) as u128;
                        let off = (rng.next_u64() as u128) % span;
                        (lo as i128 + off as i128) as $ty
                    }
                }
            )+
        };
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($ty:ty),+ $(,)?) => {
            $(
                impl Strategy for std::ops::Range<$ty> {
                    type Value = $ty;
                    fn generate(&self, rng: &mut TestRng) -> $ty {
                        assert!(self.start < self.end, "empty range strategy");
                        self.start + rng.unit_f64() as $ty * (self.end - self.start)
                    }
                }
            )+
        };
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);

    /// String-pattern strategy: supports the `.{a,b}` regex shape (a string
    /// of `a..=b` arbitrary non-newline chars); any other pattern yields
    /// printable-ASCII strings of length 0..=32.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = parse_dot_repeat(self).unwrap_or((0, 32));
            let len = lo + rng.below(hi - lo + 1);
            // Mostly printable ASCII with occasional multi-byte chars so
            // UTF-8 handling gets exercised.
            (0..len)
                .map(|_| {
                    if rng.below(8) == 0 {
                        char::from_u32(0xA1 + rng.next_u64() as u32 % 0x500).unwrap_or('ø')
                    } else {
                        (0x20 + rng.below(0x5F) as u8) as char
                    }
                })
                .collect()
        }
    }

    /// Parse `.{a,b}` into `(a, b)`.
    fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
        let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
        let (a, b) = body.split_once(',')?;
        Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
    }
}

pub mod arbitrary {
    use super::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generate an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),+ $(,)?) => {
            $(
                impl Arbitrary for $ty {
                    fn arbitrary(rng: &mut TestRng) -> $ty {
                        // Bias toward boundary values now and then: they are
                        // where codecs and arithmetic actually break.
                        match rng.below(16) {
                            0 => <$ty>::MIN,
                            1 => <$ty>::MAX,
                            2 => 0 as $ty,
                            _ => rng.next_u64() as $ty,
                        }
                    }
                }
            )+
        };
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            // Arbitrary bit patterns: includes infinities, NaNs, subnormals.
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from_u32(rng.next_u64() as u32 % 0xD800).unwrap_or('a')
        }
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: arbitrary::Arbitrary> strategy::Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for "any value of `T`".
pub fn any<T: arbitrary::Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Inclusive length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below(self.size.hi - self.size.lo + 1);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` (about 1 in 4 `None`).
    pub struct OptionStrategy<S>(S);

    /// `Some` of the inner strategy, or `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        cfg = ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(u64::from(__case));
                    let __guard = $crate::test_runner::CaseGuard(stringify!($name), __case);
                    // The case body runs in a closure so prop_assume! can
                    // abandon the *case* (via `return`) even from inside a
                    // loop in the test body.
                    #[allow(clippy::redundant_closure_call)]
                    let __case_held: bool = (|| {
                        $(
                            let $pat =
                                $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                        )+
                        $body
                        true
                    })();
                    let _ = __case_held;
                }
            }
        )*
    };
}

/// Assert a condition inside a property (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skip the current case when an assumption does not hold.
///
/// The shim has no case-rejection bookkeeping: an assumption failure simply
/// returns out of the per-case closure `proptest!` wraps the body in, so it
/// works at any nesting depth inside a property body (and only there).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return false;
        }
    };
}

pub mod prelude {
    //! The imports property tests conventionally glob in.
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..10, b in -2.0f32..2.0, c in 1u64..=5) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
            prop_assert!((1..=5).contains(&c));
        }

        #[test]
        fn flat_map_chains(v in (1usize..4).prop_flat_map(|n| crate::collection::vec(0u8..10, n))) {
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn string_pattern_respects_len(s in ".{0,16}") {
            prop_assert!(s.chars().count() <= 16);
        }

        #[test]
        fn assume_skips_case_even_inside_a_loop(n in 0usize..10) {
            for step in 0..3 {
                // Abandons the whole case (not just this loop iteration)
                // whenever the assumption first fails.
                prop_assume!(n + step < 11);
                prop_assert!(n + step < 11);
            }
        }

        #[test]
        fn tuples_and_options(
            (x, y) in (0u32..7, 0u32..7),
            o in crate::option::of(0i32..3)
        ) {
            prop_assert!(x < 7 && y < 7);
            if let Some(v) = o {
                prop_assert!((0..3).contains(&v));
            }
        }
    }

    proptest! {
        // Fails first at case 1 (the draws are fixed per case); the guard
        // names it on stderr — "property a_failing_case_is_named failed at
        // case 1" — and the original assertion still propagates.
        #[test]
        #[should_panic(expected = "draw was")]
        fn a_failing_case_is_named(n in 0u64..1000) {
            prop_assert!(n % 4 != 0 || n == 0, "draw was {n}");
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_case(5);
        let mut b = crate::test_runner::TestRng::for_case(5);
        let s = crate::collection::vec(0u64..1000, 0..20);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}

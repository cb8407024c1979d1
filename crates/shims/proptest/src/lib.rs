//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use — `proptest!`, `prop_assert!`/`prop_assert_eq!`,
//! `prop_oneof!`, `Just`, `any`, ranges-as-strategies,
//! `prop::collection::vec`, `prop::sample::select`, `prop_map`,
//! `prop_recursive` — on top of a deterministic SplitMix64 generator.
//!
//! Differences from real proptest: no shrinking (a failing case reports
//! its case index and seed instead), and case generation is seeded from
//! the test name so runs are reproducible without a persistence file.

use std::fmt;
use std::rc::Rc;

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, and plenty random for test-case generation.
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A generator of random values (proptest's `Strategy`, minus shrinking).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }

    /// Recursive strategies, built eagerly to `depth` levels; at each level
    /// the generator picks the branch case or a leaf with equal odds, so
    /// expansion always terminates. `_desired_size`/`_expected_branch` are
    /// accepted for signature compatibility and ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let branch = f(current).boxed();
            let fallback = leaf.clone();
            current = BoxedStrategy(Rc::new(move |rng| {
                if rng.next_u64() % 2 == 0 {
                    branch.generate(rng)
                } else {
                    fallback.generate(rng)
                }
            }));
        }
        current
    }
}

/// Type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always yields a clone of the wrapped value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
    )+};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, usize);

macro_rules! float_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )+};
}

float_range_strategy!(f32, f64);

/// Full-domain strategies for primitives (proptest's `any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the full domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(
            !self.options.is_empty(),
            "prop_oneof! needs at least one option"
        );
        let i = rng.next_below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Constructor used by the `prop_oneof!` macro expansion.
pub fn one_of<T>(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    OneOf { options }
}

// ---------------------------------------------------------------------------
// prop:: namespace
// ---------------------------------------------------------------------------

pub mod prop {
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Length bounds for [`vec`](fn@vec); built from `a..b` or `a..=b`.
        pub struct SizeRange {
            min: usize,
            /// Inclusive upper bound.
            max: usize,
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    min: r.start,
                    max: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    min: *r.start(),
                    max: *r.end(),
                }
            }
        }

        /// Output of [`vec`](fn@vec).
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.max - self.size.min + 1) as u64;
                let len = self.size.min + rng.next_below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, len_range)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    pub mod sample {
        use crate::{Strategy, TestRng};

        /// Output of [`select`].
        pub struct Select<T: Clone> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                assert!(!self.options.is_empty(), "select from empty list");
                self.options[rng.next_below(self.options.len() as u64) as usize].clone()
            }
        }

        /// Uniformly selects one of `options`.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            Select { options }
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-test configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A failed property assertion (from `prop_assert!` or an explicit `Err`).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }

    /// Alias real proptest provides; same as [`TestCaseError::fail`] here.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn seed_for(name: &str, case: u32) -> u64 {
    // FNV-1a over the test name, mixed with the case index.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ ((case as u64) << 32 | case as u64)
}

/// Drives one `proptest!`-declared test: `cases` deterministic cases, each
/// with a fresh seeded RNG; the first failure panics with its seed.
pub fn run_cases(
    cfg: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    for i in 0..cfg.cases {
        let seed = seed_for(name, i);
        let mut rng = TestRng::new(seed);
        if let Err(e) = case(&mut rng) {
            panic!("property '{name}' failed at case {i} (seed {seed:#x}): {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(&($cfg), stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                let case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                };
                case()
            });
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right` (left: `{:?}`, right: `{:?}`)",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let x = Strategy::generate(&(-5i64..7), &mut rng);
            assert!((-5..7).contains(&x));
            let f = Strategy::generate(&(-1.5f32..2.5), &mut rng);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_respects_size() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..200 {
            let v = Strategy::generate(&prop::collection::vec(any::<bool>(), 3..6), &mut rng);
            assert!((3..6).contains(&v.len()));
            let fixed = Strategy::generate(&prop::collection::vec(0i64..5, 4..=4), &mut rng);
            assert_eq!(fixed.len(), 4);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::new(crate::seed_for("t", 0));
        let mut b = crate::TestRng::new(crate::seed_for("t", 0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #[test]
        fn macro_smoke(x in 0i64..100, flips in prop::collection::vec(any::<bool>(), 0..10)) {
            prop_assert!((0..100).contains(&x));
            prop_assert_eq!(flips.len(), flips.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn config_respected(pair in (0i64..5, Just("tag"))) {
            prop_assert!(pair.0 < 5 && pair.1 == "tag");
        }
    }

    #[test]
    fn oneof_and_recursive() {
        #[derive(Clone, Debug)]
        enum E {
            Leaf(i64),
            Node(Box<E>, Box<E>),
        }
        fn depth(e: &E) -> usize {
            match e {
                E::Leaf(v) => {
                    assert!((-1..10).contains(v), "leaf value out of strategy domain");
                    1
                }
                E::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = prop_oneof![(0i64..10).prop_map(E::Leaf), Just(E::Leaf(-1))].prop_recursive(
            3,
            8,
            2,
            |inner| (inner.clone(), inner).prop_map(|(l, r)| E::Node(Box::new(l), Box::new(r))),
        );
        let mut rng = crate::TestRng::new(3);
        for _ in 0..100 {
            let e = Strategy::generate(&strat, &mut rng);
            assert!(depth(&e) <= 4);
        }
    }
}

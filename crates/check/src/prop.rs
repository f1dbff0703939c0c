//! A minimal property-testing harness (the workspace's `proptest`
//! replacement).
//!
//! A property is an ordinary function body run against many generated
//! inputs. The [`prop_check!`](crate::prop_check!) macro expands each
//! property into a `#[test]`:
//!
//! ```
//! use tfsim_check::prop::{any_u64, ints};
//! use tfsim_check::{prop_check, prop_assert, prop_assert_eq};
//!
//! prop_check! {
//!     fn addition_commutes(a in any_u64(), b in any_u64()) {
//!         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     }
//!
//!     fn small_values_stay_small(v in ints(0u32..10)) {
//!         prop_assert!(v < 10, "generator out of range: {}", v);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Every case `i` draws its input from the deterministic substream
//! `(seed, i)` of [`crate::Rng`], so a failure report names the exact
//! `(seed, case)` pair that produced the counterexample; rerunning with
//! `TFSIM_PROP_SEED=<seed>` reproduces it bit-for-bit, independent of how
//! many cases pass first. On failure the harness greedily shrinks the
//! input (integers toward the range origin, vectors by removing and
//! shrinking elements, tuples coordinate-wise) before panicking with the
//! minimal counterexample.

use std::fmt::Debug;
use std::ops::Range;

use crate::rng::Rng;

/// Harness configuration. [`Config::from_env`] honors `TFSIM_PROP_SEED`
/// and `TFSIM_PROP_CASES` so any reported failure can be replayed.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` uses substream `(seed, i)`.
    pub seed: u64,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 256, seed: 0x7f4a_7c15, max_shrink_steps: 4_096 }
    }
}

impl Config {
    /// The default configuration with environment overrides applied.
    pub fn from_env() -> Config {
        let mut cfg = Config::default();
        if let Ok(s) = std::env::var("TFSIM_PROP_SEED") {
            cfg.seed = parse_u64(&s).unwrap_or_else(|| panic!("bad TFSIM_PROP_SEED: {s:?}"));
        }
        if let Ok(s) = std::env::var("TFSIM_PROP_CASES") {
            cfg.cases =
                s.parse().unwrap_or_else(|_| panic!("bad TFSIM_PROP_CASES: {s:?}"));
        }
        cfg
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A value generator with attached shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly "smaller" candidates for a failing value. The
    /// runner keeps a candidate only if the property still fails on it.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Runs `prop` against `cfg.cases` generated inputs, shrinking and
/// panicking on the first failure. `Err(msg)` and panics inside the
/// property both count as failures (the `prop_assert*` macros return
/// `Err`; panics — a plain `assert!` deep in library code, an
/// out-of-bounds index — are contained and reported the same way, so the
/// `TFSIM_PROP_SEED` replay line is printed no matter how the property
/// fails).
pub fn run<G, F>(cfg: &Config, name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let mut rng = Rng::from_seed_stream(cfg.seed, case as u64);
        let value = gen.generate(&mut rng);
        if let Err(msg) = guarded(&prop, &value) {
            let (value, msg, steps) = shrink_loop(cfg, gen, value, msg, &prop);
            panic!(
                "property `{name}` failed: seed={seed:#x} case={case}\n  \
                 reproduce with: TFSIM_PROP_SEED={seed:#x} cargo test {name}\n  \
                 minimal counterexample ({steps} shrink steps): {value:?}\n  {msg}",
                seed = cfg.seed,
            );
        }
    }
}

thread_local! {
    /// True while a property body runs under [`guarded`]; the panic hook
    /// stays silent for contained panics so a shrink search does not spray
    /// hundreds of backtraces before the real report.
    static GUARDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_guard_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs the property on one value with panics converted to `Err`, so both
/// the first-failure path and every shrink candidate keep the harness in
/// control of the final report. Without this, a panicking shrink candidate
/// would unwind straight through [`shrink_loop`] and the replay line would
/// be lost.
fn guarded<V, F>(prop: &F, value: &V) -> Result<(), String>
where
    F: Fn(&V) -> Result<(), String>,
{
    install_guard_hook();
    GUARDED.with(|g| g.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(value)));
    GUARDED.with(|g| g.set(false));
    match result {
        Ok(r) => r,
        Err(payload) => Err(if let Some(s) = payload.downcast_ref::<&str>() {
            format!("property panicked: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("property panicked: {s}")
        } else {
            "property panicked (non-string payload)".to_string()
        }),
    }
}

fn shrink_loop<G, F>(
    cfg: &Config,
    gen: &G,
    mut value: G::Value,
    mut msg: String,
    prop: &F,
) -> (G::Value, String, u32)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrink(&value) {
            if let Err(m) = guarded(prop, &cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

// ---------------------------------------------------------------------------
// Integer generators.

/// Uniform integers in a half-open range (or the type's full range for the
/// `any_*` constructors). Shrinks toward the range origin.
#[derive(Debug, Clone, Copy)]
pub struct IntRange<T> {
    start: T,
    end: T,
    full: bool,
}

/// Uniform integers in `range` (half-open).
pub fn ints<T>(range: Range<T>) -> IntRange<T> {
    IntRange { start: range.start, end: range.end, full: false }
}

macro_rules! int_gen {
    ($t:ty, $anyfn:ident) => {
        /// Uniform integers over the type's full range.
        pub fn $anyfn() -> IntRange<$t> {
            IntRange { start: 0 as $t, end: 0 as $t, full: true }
        }

        impl Gen for IntRange<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                if self.full {
                    rng.next_u64() as $t
                } else {
                    rng.gen_range(self.start..self.end)
                }
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                // Bisecting candidate ladder (the QuickCheck scheme): the
                // origin first, then values ever closer to `v`. The runner
                // takes the first still-failing candidate, so accepted
                // steps converge to the minimal counterexample in
                // O(log range) rather than one decrement at a time.
                let origin: i128 = if self.full { 0 } else { self.start as i128 };
                let x = *v as i128;
                if x == origin {
                    return Vec::new();
                }
                let mut out: Vec<$t> = vec![origin as $t];
                let mut d = (x - origin) / 2;
                while d != 0 {
                    let cand = x - d;
                    if cand != origin {
                        out.push(cand as $t);
                    }
                    d /= 2;
                }
                out
            }
        }
    };
}

int_gen!(u8, any_u8);
int_gen!(u16, any_u16);
int_gen!(u32, any_u32);
int_gen!(u64, any_u64);
int_gen!(usize, any_usize);
int_gen!(i8, any_i8);
int_gen!(i16, any_i16);
int_gen!(i32, any_i32);
int_gen!(i64, any_i64);

/// Booleans (shrink `true` → `false`).
#[derive(Debug, Clone, Copy)]
pub struct BoolGen;

/// Uniform booleans.
pub fn bools() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 != 0
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Collection generators.

/// Vectors of generated elements with length drawn from a half-open
/// range. Shrinks by halving, dropping endpoints, and shrinking elements.
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// Vectors of `elem` values with `len` in the given half-open range.
pub fn vecs<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "vecs: empty length range");
    VecGen { elem, min: len.start, max: len.end }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let len = rng.gen_range(self.min..self.max);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        if v.len() > self.min {
            let half = v.len() / 2;
            if half >= self.min && half < v.len() {
                out.push(v[..half].to_vec());
            }
            out.push(v[..v.len() - 1].to_vec());
            out.push(v[1..].to_vec());
        }
        for i in 0..v.len() {
            for s in self.elem.shrink(&v[i]) {
                let mut c = v.clone();
                c[i] = s;
                out.push(c);
            }
        }
        out
    }
}

/// Uniform choice from a fixed option list. Shrinks toward earlier
/// options.
#[derive(Debug, Clone)]
pub struct Select<T> {
    options: Vec<T>,
}

/// Uniform choice among `options` (must be non-empty).
pub fn select<T: Clone + Debug + PartialEq>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select: no options");
    Select { options }
}

impl<T: Clone + Debug + PartialEq> Gen for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        self.options[rng.gen_below(self.options.len() as u64) as usize].clone()
    }

    fn shrink(&self, v: &T) -> Vec<T> {
        match self.options.iter().position(|o| o == v) {
            Some(idx) => self.options[..idx].to_vec(),
            None => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Tuple generators (shrink one coordinate at a time).

impl<A: Gen> Gen for (A,) {
    type Value = (A::Value,);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng),)
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        self.0.shrink(&v.0).into_iter().map(|a| (a,)).collect()
    }
}

impl<A: Gen, B: Gen> Gen for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        out.extend(self.0.shrink(&v.0).into_iter().map(|a| (a, v.1.clone())));
        out.extend(self.1.shrink(&v.1).into_iter().map(|b| (v.0.clone(), b)));
        out
    }
}

impl<A: Gen, B: Gen, C: Gen> Gen for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        out.extend(self.0.shrink(&v.0).into_iter().map(|a| (a, v.1.clone(), v.2.clone())));
        out.extend(self.1.shrink(&v.1).into_iter().map(|b| (v.0.clone(), b, v.2.clone())));
        out.extend(self.2.shrink(&v.2).into_iter().map(|c| (v.0.clone(), v.1.clone(), c)));
        out
    }
}

impl<A: Gen, B: Gen, C: Gen, D: Gen> Gen for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        out.extend(
            self.0.shrink(&v.0).into_iter().map(|a| (a, v.1.clone(), v.2.clone(), v.3.clone())),
        );
        out.extend(
            self.1.shrink(&v.1).into_iter().map(|b| (v.0.clone(), b, v.2.clone(), v.3.clone())),
        );
        out.extend(
            self.2.shrink(&v.2).into_iter().map(|c| (v.0.clone(), v.1.clone(), c, v.3.clone())),
        );
        out.extend(
            self.3.shrink(&v.3).into_iter().map(|d| (v.0.clone(), v.1.clone(), v.2.clone(), d)),
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Macros.

/// Declares property tests. Each `fn name(arg in generator, ...) { body }`
/// item expands to a `#[test]` that runs the body against
/// [`Config::from_env`]-many generated inputs, shrinking failures. The
/// body uses [`prop_assert!`](crate::prop_assert),
/// [`prop_assert_eq!`](crate::prop_assert_eq),
/// [`prop_assert_ne!`](crate::prop_assert_ne), and
/// [`prop_assume!`](crate::prop_assume).
#[macro_export]
macro_rules! prop_check {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg = $crate::prop::Config::from_env();
            let __gen = ( $($gen,)+ );
            $crate::prop::run(&__cfg, stringify!($name), &__gen, |__val| {
                #[allow(unused_parens)]
                let ( $($arg,)+ ) = ::std::clone::Clone::clone(__val);
                $body
                #[allow(unreachable_code)]
                ::std::result::Result::Ok(())
            });
        }
        $crate::prop_check! { $($rest)* }
    };
}

/// Asserts a condition inside a [`prop_check!`](crate::prop_check!) body;
/// on failure the case is reported (and shrunk) instead of aborting the
/// process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert!({}) failed at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert failed at {}:{}: {}",
                file!(),
                line!(),
                ::std::format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion for [`prop_check!`](crate::prop_check!) bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq! failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq! failed at {}:{}: {:?} != {:?}: {}",
                file!(),
                line!(),
                __l,
                __r,
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Inequality assertion for [`prop_check!`](crate::prop_check!) bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_ne! failed at {}:{}: both sides are {:?}",
                file!(),
                line!(),
                __l
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_ne! failed at {}:{}: both sides are {:?}: {}",
                file!(),
                line!(),
                __l,
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Discards cases that do not satisfy a precondition (the case counts as
/// passed; generators should make discards rare).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        Config { cases: 64, seed: 1, max_shrink_steps: 1_000 }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        run(&small_cfg(), "always_true", &(any_u64(),), |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        assert_eq!(counter.get(), 64);
    }

    #[test]
    fn cases_are_reproducible_across_runs() {
        let collect = |cfg: &Config| {
            let vals = std::cell::RefCell::new(Vec::new());
            run(cfg, "collect", &(any_u64(),), |&(v,)| {
                vals.borrow_mut().push(v);
                Ok(())
            });
            vals.into_inner()
        };
        let a = collect(&small_cfg());
        let b = collect(&small_cfg());
        assert_eq!(a, b);
        assert_ne!(a, collect(&Config { seed: 2, ..small_cfg() }));
    }

    #[test]
    fn failure_reports_seed_and_shrinks_to_minimum() {
        let err = std::panic::catch_unwind(|| {
            run(&small_cfg(), "ge_1000", &(any_u64(),), |&(v,)| {
                if v >= 1_000 {
                    Err(format!("{v} too big"))
                } else {
                    Ok(())
                }
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("seed=0x1"), "missing seed: {msg}");
        assert!(msg.contains("TFSIM_PROP_SEED"), "missing repro hint: {msg}");
        // Integer shrinking must reach the smallest failing value.
        assert!(msg.contains("(1000,)"), "not fully shrunk: {msg}");
    }

    #[test]
    fn panicking_property_still_reports_seed_and_shrinks() {
        // A property that panics outright (a plain `assert!`, not a
        // `prop_assert!`) must produce the same seeded report as an `Err`
        // return — including through panicking shrink candidates.
        let err = std::panic::catch_unwind(|| {
            run(&small_cfg(), "panics_ge_1000", &(any_u64(),), |&(v,)| {
                assert!(v < 1_000, "{v} too big");
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("TFSIM_PROP_SEED"), "missing repro hint: {msg}");
        assert!(msg.contains("(1000,)"), "not fully shrunk: {msg}");
        assert!(msg.contains("property panicked"), "panic not attributed: {msg}");
        assert!(msg.contains("1000 too big"), "original message lost: {msg}");
    }

    #[test]
    fn int_shrink_moves_toward_origin() {
        let g = ints(10u32..100);
        let cands = g.shrink(&50);
        assert!(cands.contains(&10));
        assert!(cands.iter().all(|&c| (10..50).contains(&c)));
        assert!(g.shrink(&10).is_empty());
    }

    #[test]
    fn signed_shrink_moves_toward_zero() {
        let g = any_i64();
        assert!(g.shrink(&-40).contains(&0));
        assert!(g.shrink(&-40).contains(&-20));
        assert!(g.shrink(&0).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len_and_shrinks_elems() {
        let g = vecs(ints(0u32..10), 2..6);
        let v = vec![3u32, 5, 7];
        let cands = g.shrink(&v);
        assert!(cands.iter().all(|c| c.len() >= 2));
        assert!(cands.contains(&vec![3, 5]), "drops the tail");
        assert!(cands.contains(&vec![5, 7]), "drops the head");
        assert!(cands.contains(&vec![0, 5, 7]), "shrinks an element");
    }

    #[test]
    fn vec_failure_shrinks_to_minimal_witness() {
        // Property: no vector contains a value >= 500. Minimal failing
        // input under shrinking is the single-element vector [500].
        let err = std::panic::catch_unwind(|| {
            run(
                &Config { cases: 200, ..small_cfg() },
                "no_big_elem",
                &(vecs(any_u64(), 1..20),),
                |(v,)| {
                    if v.iter().any(|&x| x >= 500) {
                        Err("big".into())
                    } else {
                        Ok(())
                    }
                },
            );
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("([500],)"), "not minimal: {msg}");
    }

    #[test]
    fn select_generates_only_options_and_shrinks_left() {
        let g = select(vec![1u64, 2, 4, 8]);
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            assert!([1, 2, 4, 8].contains(&g.generate(&mut rng)));
        }
        assert_eq!(g.shrink(&4), vec![1, 2]);
        assert!(g.shrink(&1).is_empty());
    }

    #[test]
    fn bool_gen_shrinks_true_to_false() {
        assert_eq!(bools().shrink(&true), vec![false]);
        assert!(bools().shrink(&false).is_empty());
    }

    #[test]
    fn tuple_shrink_is_coordinate_wise() {
        let g = (ints(0u32..10), ints(0u32..10));
        let cands = g.shrink(&(4, 6));
        assert!(cands.contains(&(0, 6)));
        assert!(cands.contains(&(4, 0)));
        assert!(!cands.contains(&(0, 0)), "one coordinate at a time");
    }

    // The macro surface itself, used exactly as call sites do.
    crate::prop_check! {
        /// Doc comments and extra attributes pass through.
        fn macro_smoke(a in any_u32(), b in ints(1u64..100)) {
            crate::prop_assert!(b >= 1);
            crate::prop_assert!(b < 100, "b out of range: {}", b);
            crate::prop_assert_eq!(a as u64 + b, b + a as u64);
            crate::prop_assert_ne!(b, 0, "b is never zero");
            crate::prop_assume!(a % 2 == 0);
            crate::prop_assert_eq!(a % 2, 0);
        }

        fn macro_single_arg(v in vecs(any_u8(), 0..8)) {
            crate::prop_assert!(v.len() < 8);
        }
    }
}

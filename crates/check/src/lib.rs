#![warn(missing_docs)]

//! # tfsim-check — the hermetic verification substrate
//!
//! Everything the workspace needs to randomize, property-test, and
//! benchmark itself without a single external crate:
//!
//! * [`rng`] — a deterministic, splittable PRNG (SplitMix64 seeding,
//!   xoshiro256\*\* core). Campaign results are bit-reproducible from one
//!   `u64` seed; per-trial substreams make them independent of thread
//!   count and scheduling.
//! * [`prop`] — a minimal property-testing harness: the [`prop_check!`]
//!   macro runs a property over generated inputs, reports the failing
//!   `(seed, case)` pair on failure, and shrinks integers, tuples, and
//!   vectors to a minimal counterexample.
//! * [`bench`](mod@bench) — a wall-clock micro-bench runner (warm-up,
//!   calibrated batches, median-of-N, JSON output) replacing `criterion`.
//! * [`chaos`] — deterministic fault-point schedules (worker kills,
//!   stalled heartbeats, torn shards, dropped/duplicated frames) for the
//!   distributed-campaign robustness suite; a schedule is a pure function
//!   of its `(seed, spec)` pair.
//!
//! The repo's hermetic policy (no crates.io dependencies anywhere in the
//! workspace) exists because the DSN 2004 reproduction's claims rest on
//! reproducible injection campaigns: owning the randomness and the
//! verification layer keeps every reported number derivable from a seed,
//! offline, forever.

pub mod bench;
pub mod chaos;
pub mod prop;
pub mod rng;

pub use bench::{Bench, BenchResult};
pub use chaos::{Chaos, ChaosMode, FaultKind};
pub use prop::{Config, Gen};
pub use rng::{Rng, SplitMix64};

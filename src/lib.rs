//! # tfsim — transient-fault characterization of a processor pipeline
//!
//! Umbrella crate re-exporting the workspace: a from-scratch Rust
//! reproduction of *Characterizing the Effects of Transient Faults on a
//! High-Performance Processor Pipeline* (DSN 2004).
//!
//! See the individual crates for details:
//!
//! * [`check`] — hermetic verification substrate (PRNG, property tests,
//!   micro-benchmarks).
//! * [`isa`] — the Alpha AXP integer subset and assembler.
//! * [`mem`] — sparse memory and the preloaded-TLB model.
//! * [`arch`] — the functional simulator (golden reference + Section 5).
//! * [`bitstate`] — the bit-level state registry and visitors.
//! * [`uarch`] — the bit-accurate out-of-order pipeline model.
//! * [`protect`] — ECC/parity codecs and the timeout watchdog.
//! * [`inject`] — the fault-injection campaign framework.
//! * [`workloads`] — ten SPECint-2000-like synthetic kernels.
//! * [`stats`] — confidence intervals, regression, and tables.
//! * [`obs`] — campaign telemetry: event sinks, JSONL traces, span profiles.

pub use tfsim_arch as arch;
pub use tfsim_bitstate as bitstate;
pub use tfsim_check as check;
pub use tfsim_inject as inject;
pub use tfsim_isa as isa;
pub use tfsim_mem as mem;
pub use tfsim_obs as obs;
pub use tfsim_protect as protect;
pub use tfsim_stats as stats;
pub use tfsim_uarch as uarch;
pub use tfsim_workloads as workloads;

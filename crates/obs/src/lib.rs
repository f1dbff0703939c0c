//! Campaign telemetry for the transient-fault pipeline simulator.
//!
//! Hermetic (zero external dependencies) observability primitives, in the
//! spirit of `tfsim-check`:
//!
//! - [`event`] — the versioned per-trial event schema and its JSONL
//!   encoding ([`Event`], [`parse_trace`], [`SCHEMA_VERSION`]).
//! - [`sink`] — where events go: [`NoopSink`] (disabled — instrumented code
//!   must add no measurable overhead), [`RingSink`] (in-memory, for tests),
//!   [`JsonlSink`] (line-buffered trace files).
//! - [`metrics`] — log2-bucketed latency histograms, which reports rebuild
//!   from the trial events.
//! - [`span`] — hierarchical wall-time spans that workers record into
//!   local scratchpads and merge once per task, so the hot path takes no
//!   locks: the one record of where a campaign's time goes (footer +
//!   collapsed stacks for flamegraph tooling).
//! - [`trace`] — change-only per-trial divergence timelines ([`DeepTrace`])
//!   backing the opt-in deep-trace mode.
//! - [`progress`] — a lock-free done/total gauge for live one-line meters.
//!
//! The crate knows nothing about pipelines or faults: producers (the
//! `tfsim-inject` campaign engine) fill in the event fields, consumers
//! (`tfsim-stats` reports, the `tfsim-run report` subcommand) interpret
//! them. That keeps the dependency arrow pointing one way and the schema in
//! a single place.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{
    parse_trace, strip_wall_clock, Event, PruneDispositions, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use metrics::Histogram;
pub use progress::Progress;
pub use sink::{EventSink, JsonlSink, NoopSink, RingSink};
pub use span::{LocalSpans, SpanProfiler, SpanTree};
pub use trace::DeepTrace;

#![warn(missing_docs)]

//! # tfsim-inject — the fault-injection framework
//!
//! Implements the paper's experimental methodology (Section 2):
//!
//! 1. **Warm-up and checkpoints.** A workload runs on the pipeline model;
//!    checkpoints (clones of the warmed machine) become *start points*.
//! 2. **Golden precomputation.** One fault-free pass per start point (one
//!    per benchmark in a campaign) runs the machine for the monitoring
//!    horizon, recording a 128-bit fingerprint of *every* state bit on
//!    every eighth cycle and on every cycle just after the start point's
//!    planned injections, the retirement trace, and the per-cycle count of
//!    in-flight instructions that eventually commit (for the Figure 6
//!    utilization analysis).
//! 3. **Trials.** Each trial clones the checkpoint, flips one uniformly
//!    chosen eligible state bit at a uniformly chosen cycle, and monitors
//!    up to 10,000 cycles, classifying the outcome as:
//!    * [`Outcome::MicroArchMatch`] — entire machine state re-converged
//!      with the golden run (fault conclusively masked);
//!    * [`Outcome::Failure`] — architectural state diverged, subdivided
//!      into the paper's seven failure modes ([`FailureMode`]);
//!    * [`Outcome::GrayArea`] — neither, within the monitoring window.
//!
//! Architectural checking happens at *retirement granularity*: the
//! injected machine's k-th retired instruction must match the golden k-th
//! record (PC, next PC, instruction word, destination value, store).
//! This makes the check timing-tolerant, so protection-induced pipeline
//! flushes land in the Gray Area rather than being counted as failures —
//! matching the paper's semantics.
//!
//! Trials of one start point run as one batch through one engine
//! ([`StartPoint::run_trials`] for records, [`StartPoint::run_batch`] at a
//! [`Trace`] level, and every campaign): the analytic masking pruner gives
//! the sites whose faulted word the golden run never reads before the
//! trial is decided their records without building a machine, and the rest
//! are stepped on the snapshot ladder, one fault-free walker advanced
//! through the injection window and one clone per trial.
//! [`StartPoint::run_trial`] is the per-trial oracle the engine is tested
//! against, record for record: it steps each faulted machine in lockstep
//! with a fault-free clone and reads no golden fingerprint, so the tests
//! also check every fingerprint the engine reads.
//!
//! Campaigns are observable via [`run_campaign_journaled`]: per-trial
//! events into a `tfsim_obs::EventSink` (JSONL traces for the `tfsim-run
//! report` subcommand), the exact [`WorkCounters`] into
//! [`CampaignMetrics`], wall time into a span profiler, and a live
//! progress gauge. Telemetry is strictly pay-for-what-you-use:
//! [`run_campaign`] uses [`CampaignObs::disabled`] and runs the engine at
//! [`Trace::Off`]: no trace slots, no timing calls.
//!
//! ```no_run
//! use tfsim_inject::{run_campaign, run_campaign_journaled, CampaignConfig, CampaignObs};
//! use tfsim_bitstate::InjectionMask;
//! use tfsim_obs::RingSink;
//!
//! let mut config = CampaignConfig::quick(7);
//! config.mask = InjectionMask::LatchesOnly;
//! let result = run_campaign(&config);
//! println!("masked: {:.1}%", 100.0 * result.totals().masked_fraction());
//!
//! // The same campaign with the trial-event stream kept in memory:
//! let sink = RingSink::new(4096);
//! let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
//! let traced = run_campaign_journaled(&config, &tfsim_workloads::all(), &obs, None);
//! assert_eq!(traced.totals(), result.totals());
//! println!("{} events captured", sink.events().len());
//! ```

mod campaign;
mod footprint;
mod journal;
mod lease;
mod pruner;
mod shard;
mod trial;

pub use campaign::{
    run_campaign, run_campaign_journaled, run_campaign_on, run_campaign_with_tasks,
    BenchmarkResult, CampaignConfig, CampaignMetrics, CampaignObs,
    CampaignQuarantine, CampaignResult, OutcomeCounts, ScatterPoint,
};
pub use journal::{CampaignJournal, JournalMeta, JournaledTask};
pub use lease::{CompleteOutcome, LeaseStats, LeaseTable, RenewError, TaskId};
pub use shard::{
    merge_shards, run_worker, serve_campaign, MergeStats, ServeConfig, ServeReport, WorkerConfig,
    WorkerReport,
};
pub use tfsim_obs::PruneDispositions;
pub use trial::{
    FailureMode, Outcome, StartPoint, Trace, TracedBatch, TrialFault, TrialRecord, TrialSpec,
    TrialTrace, WorkCounters,
};

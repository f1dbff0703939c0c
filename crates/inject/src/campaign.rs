//! Campaign orchestration: many trials across benchmarks and start
//! points, executed on a thread pool, aggregated per benchmark and per
//! state category.
//!
//! A pool task is one benchmark's pending start points: it builds and
//! probes the program once, warms once, and serves every start point from
//! one golden walk ([`BenchSpine`]). Results stay per (benchmark, start
//! point): each start point keeps its own PRNG substream, journal line,
//! trial events and scatter point.
//!
//! # Telemetry
//!
//! [`run_campaign_journaled`] threads a [`CampaignObs`] through the run:
//! per-trial events into an [`EventSink`], the exact work counters into a
//! [`CampaignMetrics`], wall time into a [`SpanProfiler`], and task
//! completions into a [`tfsim_obs::Progress`] gauge. With
//! [`CampaignObs::disabled`] (what [`run_campaign`] / [`run_campaign_on`]
//! use) the workers run the engine at [`Trace::Off`] — no timing calls, no
//! trace slots.
//!
//! Event streams are deterministic: workers buffer per-task results, and
//! events are emitted *after* the thread pool drains, in canonical
//! (benchmark, start point) order. Two identical-seed campaigns produce
//! identical streams modulo the wall-clock fields, regardless of thread
//! count.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use tfsim_check::Rng;

use tfsim_bitstate::{Category, InjectionMask, StorageKind, UnitId};
use tfsim_isa::Program;
use tfsim_obs::{
    DeepTrace, Event, EventSink, LocalSpans, NoopSink, Progress, PruneDispositions, SpanProfiler,
    SCHEMA_VERSION,
};
use tfsim_uarch::PipelineConfig;
use tfsim_workloads::Workload;

use crate::footprint::Footprint;
use crate::journal::{CampaignJournal, JournaledTask};
use crate::pruner::{fault_sites, watch_list, Sites};
use crate::trial::{
    eligible_bits, walk, warm_pipeline, FailureMode, Outcome, StartPoint, Stops, Trace,
    TracedBatch, TrialRecord, TrialSpec, WorkCounters,
};

/// Locks a mutex, recovering from poisoning.
///
/// Campaign state behind these locks (the worklist, the output buffer) is
/// only ever mutated by short, panic-free push/pop sections, so a poisoned
/// lock means a *different* part of the worker unwound while holding the
/// guard-free data intact. Recovering the guard keeps the campaign alive
/// and lets the original panic surface instead of being masked by a
/// secondary `PoisonError` unwind in every other worker.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Campaign parameters. The defaults mirror the paper's methodology at a
/// reduced scale; [`CampaignConfig::paper_scale`] approaches the paper's
/// 25–30k trials per campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Which bits are eligible (latches+RAMs, or latches only).
    pub mask: InjectionMask,
    /// Pipeline configuration (baseline or protected).
    pub pipeline: PipelineConfig,
    /// Workload scale factor passed to the generators.
    pub scale: u32,
    /// Start points per benchmark.
    pub start_points: u32,
    /// Trials per start point.
    pub trials_per_start_point: u32,
    /// Cycles of warm-up before the first start point (cache/predictor
    /// warm-up, per the paper).
    pub warmup_cycles: u64,
    /// Cycles between consecutive start points of one benchmark.
    pub spacing_cycles: u64,
    /// Injection cycle is drawn uniformly from `[0, inject_window)`.
    pub inject_window: u64,
    /// Monitoring limit after injection (the paper uses 10,000).
    pub monitor_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Ignored. Every campaign runs the one trial engine (the analytic
    /// masking pruner with the snapshot ladder for what it cannot prove);
    /// the field remains only because the benchmark harness (`perfbench`)
    /// still assigns it, and goes when it stops.
    #[doc(hidden)]
    pub pruned: bool,
    /// Record each trial's full divergence timeline (which units held
    /// faulty state, per µArch check) and emit it as
    /// [`Event::Propagation`] after the trial's event. A trace *level*,
    /// not an experiment parameter: censuses, records, traces, and
    /// journals are byte-identical with or without it, so — like
    /// `threads` — it is deliberately not part of the journal identity.
    /// Timelines are not journaled either: tasks replayed from a journal
    /// contribute no `Propagation` events. Only effective when telemetry
    /// is on (an [`EventSink`] or metrics are attached).
    pub deep_trace: bool,
    /// Test hook: force the trial at `(benchmark, start_point, trial)` to
    /// panic mid-run, exercising the containment/quarantine machinery
    /// end-to-end. Never set by the presets; not part of the experiment
    /// configuration (and deliberately excluded from the journal header).
    #[doc(hidden)]
    pub panic_shim: Option<(usize, u32, u32)>,
}

impl CampaignConfig {
    /// A fast configuration for tests and smoke runs (~800 trials).
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig {
            mask: InjectionMask::LatchesAndRams,
            pipeline: PipelineConfig::baseline(),
            scale: 2,
            start_points: 2,
            trials_per_start_point: 40,
            warmup_cycles: 1_500,
            spacing_cycles: 600,
            inject_window: 200,
            monitor_cycles: 3_000,
            seed,
            threads: 0,
            pruned: false,
            deep_trace: false,
            panic_shim: None,
        }
    }

    /// The default experiment scale used by the figure harness
    /// (~6,000 trials per campaign; tighter than `quick`, far faster than
    /// the paper's full 25–30k).
    pub fn default_scale(seed: u64) -> CampaignConfig {
        CampaignConfig {
            start_points: 6,
            trials_per_start_point: 100,
            warmup_cycles: 2_000,
            spacing_cycles: 500,
            inject_window: 250,
            monitor_cycles: 10_000,
            ..CampaignConfig::quick(seed)
        }
    }

    /// The paper's scale: ~25,000–30,000 trials, 10,000-cycle monitoring.
    pub fn paper_scale(seed: u64) -> CampaignConfig {
        CampaignConfig {
            scale: 4,
            start_points: 27,
            spacing_cycles: 700,
            ..CampaignConfig::default_scale(seed)
        }
    }

    /// Monitoring horizon needed from the latest start point.
    fn horizon(&self) -> u64 {
        self.inject_window + self.monitor_cycles
    }

    /// Checks that the campaign can run: an injection window to draw from,
    /// programs that outlast their warm-up (every program halts within
    /// about 50 cycles at scale 0), a watchdog threshold in `100..1024`,
    /// and a last start point's horizon,
    /// `warmup + spacing × (start_points − 1) + inject_window + monitor`
    /// cycles from reset, that the golden walk can index: it keeps an
    /// 8-byte retirement count per cycle, and no table may exceed
    /// `isize::MAX` bytes.
    pub fn validate(&self) -> Result<(), String> {
        const MAX_CYCLES: u64 = isize::MAX as u64 / 8;
        if self.inject_window == 0 {
            return Err("inject_window must be at least 1".to_string());
        }
        if self.scale == 0 {
            return Err("scale must be at least 1".to_string());
        }
        // The watchdog's counter is 10 bits wide, and a threshold below
        // the classifier's lock rule (100 cycles without a retirement)
        // can flush the fault-free machine, whose longest gap between
        // retirements is 19 cycles on the standard workloads.
        if !(100..1024).contains(&self.pipeline.timeout_threshold) {
            return Err("timeout_threshold must be in 100..1024".to_string());
        }
        let last = u64::from(self.start_points.saturating_sub(1));
        self.spacing_cycles
            .checked_mul(last)
            .and_then(|c| c.checked_add(self.warmup_cycles))
            .and_then(|c| c.checked_add(self.inject_window))
            .and_then(|c| c.checked_add(self.monitor_cycles))
            .filter(|&c| c <= MAX_CYCLES)
            .map(drop)
            .ok_or_else(|| {
                format!(
                    "warmup + spacing × (start_points − 1) + inject_window + monitor exceeds \
                     the {MAX_CYCLES} cycles a golden walk can index"
                )
            })
    }
}

/// Outcome counters for a slice of trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// µArch Match trials.
    pub matched: u64,
    /// Gray Area trials.
    pub gray: u64,
    /// Failures indexed by [`FailureMode::ALL`] order.
    pub failures: [u64; 7],
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::MicroArchMatch => self.matched += 1,
            Outcome::GrayArea => self.gray += 1,
            Outcome::Failure(mode) => self.failures[mode.index()] += 1,
        }
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.matched += other.matched;
        self.gray += other.gray;
        for i in 0..7 {
            self.failures[i] += other.failures[i];
        }
    }

    /// Count for a specific failure mode.
    pub fn failure(&self, mode: FailureMode) -> u64 {
        self.failures[mode.index()]
    }

    /// All failures (SDC + Terminated).
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    /// Failures classified as SDC.
    pub fn sdc(&self) -> u64 {
        FailureMode::ALL
            .iter()
            .filter(|m| !m.is_termination())
            .map(|m| self.failure(*m))
            .sum()
    }

    /// Failures classified as Terminated.
    pub fn terminated(&self) -> u64 {
        FailureMode::ALL
            .iter()
            .filter(|m| m.is_termination())
            .map(|m| self.failure(*m))
            .sum()
    }

    /// All trials.
    pub fn total(&self) -> u64 {
        self.matched + self.gray + self.failed()
    }

    /// Fraction of trials conclusively masked (µArch Match).
    pub fn masked_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.matched as f64 / self.total() as f64
    }

    /// Fraction of trials that are not known failures (µArch Match + Gray).
    pub fn benign_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.matched + self.gray) as f64 / self.total() as f64
    }

    /// Fraction of known failures.
    pub fn failure_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.total() as f64
    }
}

/// One Figure 6 scatter point: trials of one start point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Benchmark index within the campaign.
    pub benchmark: usize,
    /// Mean golden valid-instruction count at the injection cycles.
    pub valid_instructions: f64,
    /// Fraction of trials that did not fail.
    pub benign_fraction: f64,
    /// Trials behind this point.
    pub trials: u64,
}

/// Aggregated results for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Workload name.
    pub name: String,
    /// Outcome totals.
    pub counts: OutcomeCounts,
}

/// One quarantined trial: a [`TrialFault`](crate::TrialFault) located within
/// the campaign.
///
/// Harness bookkeeping, not science: quarantined trials never enter the
/// outcome census (`CampaignResult::totals` and friends), they are
/// reported alongside it so an escaped panic is visible without
/// contaminating the paper's taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignQuarantine {
    /// Benchmark index within the campaign.
    pub benchmark: usize,
    /// Start point within the benchmark.
    pub start_point: u32,
    /// Trial index within the start point (position in the drawn plan).
    pub trial: usize,
    /// The spec whose run unwound.
    pub spec: TrialSpec,
    /// The panic payload, when it carried a message.
    pub panic_msg: String,
}

/// Full campaign results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-benchmark outcome totals (paper Figure 3).
    pub benchmarks: Vec<BenchmarkResult>,
    /// Outcomes grouped by the flipped bit's category (Figures 4/5/9).
    pub by_category: BTreeMap<Category, OutcomeCounts>,
    /// Outcomes grouped by (category, storage kind).
    pub by_category_kind: BTreeMap<(Category, StorageKind), OutcomeCounts>,
    /// Figure 6 scatter points (one per start point).
    pub scatter: Vec<ScatterPoint>,
    /// Eligible bits per model instance (constant across a campaign).
    pub eligible_bits: u64,
    /// Trials contained by the per-trial supervisor, in canonical
    /// (benchmark, start point, trial) order. Empty unless the hardened
    /// model has an escape (or the test shim forced one).
    pub quarantined: Vec<CampaignQuarantine>,
    /// Pruner disposition totals over the live-executed tasks of an
    /// observed run (a sink, metrics, spans, or a journal attached).
    /// `None` on an unobserved run, and when no task ran live:
    /// journal-replayed tasks contribute nothing, since their trials were
    /// not re-pruned.
    pub prune: Option<PruneDispositions>,
}

impl CampaignResult {
    /// Aggregate outcome counts over every benchmark.
    pub fn totals(&self) -> OutcomeCounts {
        let mut t = OutcomeCounts::default();
        for b in &self.benchmarks {
            t.merge(&b.counts);
        }
        t
    }

    /// Failure-mode breakdown by category: for each category, the count of
    /// trials ending in each of the seven modes (Figure 7).
    pub fn failure_modes_by_category(&self) -> BTreeMap<Category, [u64; 7]> {
        self.by_category.iter().map(|(c, o)| (*c, o.failures)).collect()
    }
}

/// A campaign's exact work counters, summed over its live tasks: the one
/// counter record of what the campaign did. Journal-replayed tasks add
/// nothing, since their work was not re-done. Workers add one
/// [`WorkCounters`] per benchmark, under one short lock.
#[derive(Debug, Default)]
pub struct CampaignMetrics(Mutex<WorkCounters>);

impl CampaignMetrics {
    /// Zeroed counters.
    pub fn new() -> CampaignMetrics {
        CampaignMetrics::default()
    }

    /// The counters so far.
    pub fn work(&self) -> WorkCounters {
        *lock_recover(&self.0)
    }

    /// Renders the counters as a name/value table, one line each.
    pub fn render(&self) -> String {
        let w = self.work();
        [
            ("golden/rows_hashed", w.rows_hashed),
            ("golden/words_hashed", w.words_hashed),
            ("footprint/events_kept", w.footprint_events),
            ("trials/cycles_stepped", w.trial_cycles),
            ("golden/cycles_stepped", w.golden_cycles),
        ]
        .iter()
        // Names padded to the longest one's 21 characters.
        .map(|(name, n)| format!("  {name:<21}  {n}\n"))
        .collect()
    }
}

/// Observability hooks for one campaign run.
///
/// All three channels are optional in effect: [`CampaignObs::disabled`]
/// yields a run whose workers run the engine at [`Trace::Off`] (no
/// per-trial trace collection, no timing syscalls) — the zero-overhead-
/// when-disabled contract, pinned by the `inject/trials-per-sec` bench.
pub struct CampaignObs<'a> {
    /// Destination for the per-trial event stream.
    pub sink: &'a dyn EventSink,
    /// The exact work counters, if wanted.
    pub metrics: Option<&'a CampaignMetrics>,
    /// Live task-completion gauge, if wanted.
    pub progress: Option<&'a Progress>,
    /// Hierarchical wall-time self-profile, if wanted: workers time each
    /// task's steps into thread-local [`LocalSpans`] scratchpads, merged
    /// here once per task. With a sink attached, the merged tree is also
    /// emitted as [`Event::Span`] events before the campaign footer.
    pub spans: Option<&'a SpanProfiler>,
}

impl CampaignObs<'static> {
    /// No sink, no metrics, no progress: campaigns run exactly as if the
    /// telemetry layer did not exist.
    pub fn disabled() -> CampaignObs<'static> {
        static NOOP: NoopSink = NoopSink;
        CampaignObs { sink: &NOOP, metrics: None, progress: None, spans: None }
    }
}

fn outcome_strings(outcome: Outcome) -> (&'static str, Option<&'static str>) {
    match outcome {
        Outcome::MicroArchMatch => ("match", None),
        Outcome::GrayArea => ("gray", None),
        Outcome::Failure(mode) => ("fail", Some(mode.label())),
    }
}

/// One task's buffered results, live-executed or replayed: the journal
/// form, plus what only a live run has.
struct TaskOutput {
    task: JournaledTask,
    /// Pruner disposition tally (`None` on an unobserved run and for
    /// journal-replayed tasks — no pruning was re-done).
    prune: Option<PruneDispositions>,
    /// Divergence timelines, aligned with `task.records` (empty unless the
    /// campaign ran deep-traced; replayed tasks have none — timelines are
    /// not journaled).
    deeps: Vec<DeepTrace>,
}

/// The Figure 6 scatter point of one task (classified records only; the
/// same arithmetic whether the task ran live or was replayed from a
/// journal).
fn scatter_of(bench: usize, records: &[TrialRecord]) -> ScatterPoint {
    let mut benign = 0u64;
    let mut valid_sum = 0u64;
    for rec in records {
        if !rec.outcome.is_failure() {
            benign += 1;
        }
        valid_sum += rec.valid_instructions as u64;
    }
    let n = records.len().max(1) as f64;
    ScatterPoint {
        benchmark: bench,
        valid_instructions: valid_sum as f64 / n,
        benign_fraction: benign as f64 / n,
        trials: records.len() as u64,
    }
}

/// One start point of a [`BenchSpine`]: its view of the golden walk, its
/// drawn trial plan, and that plan's fault sites.
struct SpinePoint {
    start_point: u32,
    sp: StartPoint,
    specs: Vec<TrialSpec>,
    sites: Sites,
    shim: Option<usize>,
}

/// One benchmark's start points, served by one golden walk: the program is
/// built and probed once, one warm-up from reset reaches the first start
/// point, and one walk from there reaches the last one's horizon, cloning
/// every checkpoint, hashing every golden row a start point's trials read
/// (its sparse grid and its plan's dense window), and resolving every start
/// point's footprint on the way. The trial plans are drawn before the walk,
/// which needs them: the eligible-bit count depends only on the pipeline
/// config and the mask.
pub(crate) struct BenchSpine {
    bench: usize,
    points: Vec<SpinePoint>,
    footprint: Footprint,
    /// Cycles the warm-up and the walk stepped, and the golden rows the
    /// walk hashed with the words mixed into them.
    work: WorkCounters,
}

impl BenchSpine {
    /// Walks benchmark `bench`'s spine over `start_points` (ascending, not
    /// empty), charging its time to `spans`' open span as `spine` →
    /// {`warmup`, `walk`}: the warm-up includes the program build and
    /// probe, the walk the plan draws.
    fn walk(
        config: &CampaignConfig,
        workload: &Workload,
        bench: usize,
        start_points: &[u32],
        mut spans: Option<&mut LocalSpans>,
    ) -> BenchSpine {
        let warm = |s: u32| config.warmup_cycles + config.spacing_cycles * s as u64;
        let first = warm(start_points[0]);
        if let Some(ls) = spans.as_deref_mut() {
            ls.enter("spine");
            ls.enter("warmup");
        }
        let program: Program = workload.build(config.scale);
        let mut warmed = warm_pipeline(&program, config.pipeline, first);
        let warmup_cycles = warmed.cycles();
        if let Some(ls) = spans.as_deref_mut() {
            ls.exit();
            ls.enter("walk");
        }

        let (horizon, mask) = (config.horizon(), config.mask);
        let bits = eligible_bits(config.pipeline, mask);
        let offsets: Vec<u64> = start_points.iter().map(|&s| warm(s) - first).collect();
        let mut watched = Vec::new();
        let plans: Vec<(u32, Vec<TrialSpec>, Sites, Option<usize>)> = start_points
            .iter()
            .zip(&offsets)
            .map(|(&s, &offset)| {
                // Every (benchmark, start point) owns PRNG substream
                // `bench << 32 | start_point` of the campaign seed, so the
                // trial sequence is a pure function of the config — not of
                // thread count, work-stealing order, or which start points
                // share a walk. The whole plan is drawn first (target then
                // cycle per trial — the exact draw order of the historical
                // per-trial loop, so seeds reproduce the same campaigns).
                let mut rng = Rng::from_seed_stream(config.seed, (bench as u64) << 32 | s as u64);
                let specs: Vec<TrialSpec> = (0..config.trials_per_start_point)
                    .map(|_| TrialSpec {
                        target: rng.gen_range(0..bits),
                        inject_cycle: rng.gen_range(0..config.inject_window),
                    })
                    .collect();
                let shim = config
                    .panic_shim
                    .and_then(|(b, p, t)| (b == bench && p == s).then_some(t as usize));
                let sites = fault_sites(&mut warmed, horizon, mask, &specs, shim);
                watched.extend(watch_list(&sites, &specs, offset, horizon, config.monitor_cycles));
                (s, specs, sites, shim)
            })
            .collect();
        let mut footprint = Footprint::new(&watched);
        let stops: Vec<(u64, &[TrialSpec])> =
            offsets.iter().zip(&plans).map(|(&o, plan)| (o, &plan.1[..])).collect();
        let mut walked = walk(warmed, Stops { points: &stops, horizon, mask }, &mut footprint);
        walked.work.golden_cycles += warmup_cycles;
        if let Some(ls) = spans {
            ls.exit(); // walk
            ls.exit(); // spine
        }
        let points = plans
            .into_iter()
            .zip(walked.points)
            .map(|((start_point, specs, sites, shim), sp)| SpinePoint {
                start_point,
                sp,
                specs,
                sites,
                shim,
            })
            .collect();
        BenchSpine { bench, points, footprint, work: walked.work }
    }

    /// Runs one start point's drawn trial plan through the engine on the
    /// walk's footprint at trace level `trace`, and returns it in journal
    /// form, with the rest of the batch (timings, work counters, timelines)
    /// and the disposition tally. The single definition keeps the in-process
    /// pool and the distributed worker on the same machine code, so a
    /// worker's results are byte-identical to the local run's by
    /// construction.
    fn run(
        &self,
        config: &CampaignConfig,
        point: &SpinePoint,
        trace: Trace,
    ) -> (JournaledTask, TracedBatch, PruneDispositions) {
        let walked = (&point.sites, &self.footprint);
        let (mut batch, dispo) = point.sp.batch(
            config.mask,
            &point.specs,
            config.monitor_cycles,
            trace,
            point.shim,
            walked,
        );
        let task = JournaledTask {
            bench: self.bench,
            start_point: point.start_point,
            eligible_bits: point.sp.bit_count(),
            specs: point.specs.clone(),
            records: std::mem::take(&mut batch.records),
            traces: std::mem::take(&mut batch.traces),
            faults: std::mem::take(&mut batch.faults),
        };
        (task, batch, dispo)
    }
}

/// Executes one (benchmark, start point) task and returns it in journal
/// form: the distributed worker's unit of work. The worker keeps the spine
/// of the benchmark it last worked on in `spine`; a task of another
/// benchmark walks that benchmark's spine over all of its start points
/// first (returned `true`). The plan draws are the in-process pool's and
/// the engine *is* the in-process pool's ([`BenchSpine::run`]), so the
/// returned task is byte-identical to what a local run would journal.
/// Always at [`Trace::On`] (the wire carries traces, like the journal
/// does).
pub(crate) fn execute_task(
    config: &CampaignConfig,
    workloads: &[Workload],
    bench: usize,
    start_point: u32,
    spine: &mut Option<BenchSpine>,
) -> (JournaledTask, bool) {
    let walked = spine.as_ref().is_none_or(|s| s.bench != bench);
    if walked {
        // Drop the old spine before walking the next: one at a time.
        *spine = None;
        let all: Vec<u32> = (0..config.start_points).collect();
        let w = &workloads[bench];
        *spine = Some(BenchSpine::walk(config, w, bench, &all, None));
    }
    let spine = spine.as_ref().expect("walked above");
    let point = spine
        .points
        .iter()
        .find(|p| p.start_point == start_point)
        .expect("the spine covers every start point");
    (spine.run(config, point, Trace::On).0, walked)
}

/// Runs a campaign over the ten standard workloads.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let workloads = tfsim_workloads::all();
    run_campaign_on(config, &workloads)
}

/// Runs a campaign over an explicit workload list.
pub fn run_campaign_on(config: &CampaignConfig, workloads: &[Workload]) -> CampaignResult {
    run_campaign_journaled(config, workloads, &CampaignObs::disabled(), None)
}

/// Runs a campaign over an explicit workload list with telemetry and an
/// optional durable [`CampaignJournal`].
///
/// With a journal, every completed (benchmark, start point) task is
/// appended (and fsync'd) as it finishes, and tasks the journal already
/// holds — from an interrupted earlier run resumed with
/// [`CampaignJournal::resume`] — are replayed from it instead of being
/// re-executed. Because each task's trial plan is a pure function of the
/// seed (per-task PRNG substreams) and aggregation happens in canonical
/// task order, a resumed campaign produces results byte-identical to an
/// uninterrupted run at any thread count.
pub fn run_campaign_journaled(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    journal: Option<&CampaignJournal>,
) -> CampaignResult {
    let replayed: Vec<JournaledTask> =
        journal.map(|j| j.completed().to_vec()).unwrap_or_default();
    run_campaign_core(config, workloads, obs, journal, replayed)
}

/// Runs a campaign seeded with already-completed tasks — the distributed
/// coordinator's merge path. `tasks` (e.g. the union of worker journal
/// shards) are replayed exactly like journal-recovered tasks: first
/// completion per (benchmark, start point) wins, later duplicates —
/// expired-lease re-executions — are dropped, and any task the set does
/// *not* cover is executed in-process. Aggregation happens in canonical
/// task order, so the census and the post-`strip_wall_clock` event stream
/// are byte-identical to a single-process run of the same config.
pub fn run_campaign_with_tasks(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    tasks: Vec<JournaledTask>,
) -> CampaignResult {
    let mut seen = std::collections::BTreeSet::new();
    let tasks: Vec<JournaledTask> =
        tasks.into_iter().filter(|t| seen.insert((t.bench, t.start_point))).collect();
    run_campaign_core(config, workloads, obs, None, tasks)
}

fn run_campaign_core(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    journal: Option<&CampaignJournal>,
    replayed: Vec<JournaledTask>,
) -> CampaignResult {
    let done: std::collections::BTreeSet<(usize, u32)> =
        replayed.iter().map(|t| (t.bench, t.start_point)).collect();
    // One task per benchmark: its pending start points, served by one
    // golden walk (journal-replayed start points are left out of it).
    // Workers take tasks with `pop()`, so the list is reversed to serve
    // benchmarks in campaign order, the order a campaign of one start point
    // per benchmark has always journaled in. Aggregation is
    // order-independent, so schedules cannot change results.
    let tasks: Vec<(usize, Vec<u32>)> = (0..workloads.len())
        .rev()
        .map(|b| (b, (0..config.start_points).filter(|&s| !done.contains(&(b, s))).collect()))
        .filter(|(_, pending): &(usize, Vec<u32>)| !pending.is_empty())
        .collect();
    let pending: usize = tasks.iter().map(|(_, p)| p.len()).sum();
    let task_count = (pending + replayed.len()) as u64;
    let work = Mutex::new(tasks);

    // Trace collection is active if anything downstream consumes it; an
    // unobserved run keeps no trace slots and takes no timings. A journal
    // is such a consumer: journaled runs always compute (and journal)
    // traces so the file's bytes are independent of trace level and a
    // resume replays full trial fidelity. Deep tracing is a refinement of
    // tracing: without a consumer the timelines would be dropped on the
    // floor, so the flag is inert.
    let observed =
        obs.sink.enabled() || obs.metrics.is_some() || obs.spans.is_some() || journal.is_some();
    let trace = match (observed, config.deep_trace) {
        (false, _) => Trace::Off,
        (true, false) => Trace::On,
        (true, true) => Trace::Deep,
    };
    let campaign_t0 = trace.clock();
    if let Some(p) = obs.progress {
        p.set_total(task_count);
    }
    if obs.sink.enabled() {
        obs.sink.emit(&Event::CampaignStart {
            schema: SCHEMA_VERSION,
            seed: config.seed,
            benchmarks: workloads.iter().map(|w| w.name.to_string()).collect(),
            start_points: config.start_points as u64,
            trials_per_start_point: config.trials_per_start_point as u64,
            inject_window: config.inject_window,
            monitor_cycles: config.monitor_cycles,
        });
    }

    // Tasks replayed from the journal become ordinary task outputs. The
    // work counters skip them (no work was re-done); progress counts them,
    // so a resumed run's meter covers the whole campaign.
    let mut restored: Vec<TaskOutput> = Vec::with_capacity(replayed.len());
    for t in replayed {
        if let Some(p) = obs.progress {
            p.add(1);
        }
        restored.push(TaskOutput { task: t, prune: None, deeps: Vec::new() });
    }
    let outputs: Mutex<Vec<TaskOutput>> = Mutex::new(restored);

    // At most one worker per pool task: the rest would find the list
    // empty, and a large `threads` must not ask the OS for idle threads.
    let threads = match config.threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        n => n,
    }
    .min(lock_recover(&work).len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let (bench, start_points) = {
                    let mut q = lock_recover(&work);
                    match q.pop() {
                        Some(t) => t,
                        None => return,
                    }
                };
                let w = &workloads[bench];
                // Per-task span scratchpad: campaign → benchmark → {spine →
                // {warmup, walk}, spN → {trials, journal}}, merged into the
                // shared profiler once, after the task.
                let mut spans = obs.spans.map(|_| {
                    let mut ls = LocalSpans::new();
                    ls.enter("campaign");
                    ls.enter(w.name);
                    ls
                });
                let spine = BenchSpine::walk(config, w, bench, &start_points, spans.as_mut());
                // The benchmark's work: its spine's, charged once, plus
                // every start point's batch.
                let mut work = spine.work;

                for point in &spine.points {
                    if let Some(ls) = spans.as_mut() {
                        ls.enter(&format!("sp{}", point.start_point));
                        ls.enter("trials");
                    }
                    let (task, batch, prune) = spine.run(config, point, trace);
                    if let Some(ls) = spans.as_mut() {
                        // Engine-internal attribution: counted by the batch
                        // itself (no extra clocks here), charged as children
                        // of the open `trials` span.
                        ls.record("advance", batch.advance_ns, task.records.len() as u64);
                        ls.record("ride", batch.ride_ns, 1);
                        ls.record("classify", batch.classify_ns, 1);
                        ls.record("prune", batch.prune_ns, 1);
                        ls.record("attribute", batch.attribute_ns, 1);
                        ls.exit();
                    }
                    work += batch.work;
                    if let Some(p) = obs.progress {
                        p.add(1);
                    }

                    if let Some(ls) = spans.as_mut() {
                        ls.enter("journal");
                    }
                    if let Some(j) = journal {
                        // Durability before visibility: the start point
                        // joins the in-memory aggregation only after its
                        // journal line is on disk (a crash between the two
                        // re-runs it, which is idempotent). Append failures
                        // must not kill a campaign that can still finish in
                        // memory.
                        if let Err(e) = j.append_task(&task) {
                            eprintln!(
                                "warning: journal append failed for task ({}, {}): {e}",
                                bench, point.start_point
                            );
                        }
                    }
                    if let Some(ls) = spans.as_mut() {
                        ls.exit(); // journal
                        ls.exit(); // spN
                    }
                    lock_recover(&outputs).push(TaskOutput {
                        task,
                        // The tally is telemetry: kept on observed runs only.
                        prune: trace.on().then_some(prune),
                        deeps: batch.deeps,
                    });
                }
                if let Some(metrics) = obs.metrics {
                    *lock_recover(&metrics.0) += work;
                }
                if let Some((ls, profiler)) = spans.as_mut().zip(obs.spans) {
                    ls.exit(); // benchmark
                    ls.exit(); // campaign
                    profiler.absorb(ls);
                }
            });
        }
    });

    // Canonical task order: events must not depend on worker scheduling.
    let mut outputs = outputs.into_inner().unwrap_or_else(|e| e.into_inner());
    outputs.sort_by_key(|o| (o.task.bench, o.task.start_point));

    // Aggregate.
    let mut benchmarks: Vec<BenchmarkResult> = workloads
        .iter()
        .map(|w| BenchmarkResult { name: w.name.to_string(), counts: OutcomeCounts::default() })
        .collect();
    let mut by_category: BTreeMap<Category, OutcomeCounts> = BTreeMap::new();
    let mut by_category_kind: BTreeMap<(Category, StorageKind), OutcomeCounts> = BTreeMap::new();
    let mut scatter = Vec::new();
    let mut eligible_bits = 0;
    let mut quarantined = Vec::new();
    let mut prune_totals: Option<PruneDispositions> = None;
    for TaskOutput { task: out, prune, .. } in &outputs {
        if let Some(p) = prune {
            prune_totals.get_or_insert_with(PruneDispositions::default).merge(p);
        }
        for rec in &out.records {
            benchmarks[out.bench].counts.add(rec.outcome);
            by_category.entry(rec.category).or_default().add(rec.outcome);
            by_category_kind.entry((rec.category, rec.kind)).or_default().add(rec.outcome);
        }
        for f in &out.faults {
            quarantined.push(CampaignQuarantine {
                benchmark: out.bench,
                start_point: out.start_point,
                trial: f.index,
                spec: f.spec,
                panic_msg: f.panic_msg.clone(),
            });
        }
        scatter.push(scatter_of(out.bench, &out.records));
        // Same mask + same machine model ⇒ every task must count the same
        // eligible-bit population. A mismatch means the model diverged
        // between tasks (e.g. configuration-dependent state walk) and the
        // per-bit rates would be wrong — fail loudly, never keep one
        // arbitrary winner.
        assert!(
            eligible_bits == 0 || eligible_bits == out.eligible_bits,
            "eligible-bit count disagrees across campaign tasks: {} vs {} (benchmark {})",
            eligible_bits,
            out.eligible_bits,
            out.bench,
        );
        eligible_bits = out.eligible_bits;
    }
    scatter.sort_by(|a, b| {
        a.benchmark
            .cmp(&b.benchmark)
            .then(a.valid_instructions.total_cmp(&b.valid_instructions))
    });

    let result = CampaignResult {
        benchmarks,
        by_category,
        by_category_kind,
        scatter,
        eligible_bits,
        quarantined,
        prune: prune_totals,
    };

    if obs.sink.enabled() {
        for out in &outputs {
            let task = &out.task;
            let (bench, sp) = (task.bench as u64, task.start_point as u64);
            // Trial numbers index the drawn plan (`specs`), so a
            // quarantined trial keeps its slot — it becomes a `Quarantine`
            // event — and every surviving trial's number is unchanged vs.
            // a run without the panic.
            let mut fault_iter = task.faults.iter().peekable();
            let mut classified = task.records.iter().zip(task.traces.iter());
            let mut deep_iter = out.deeps.iter();
            for (i, spec) in task.specs.iter().enumerate() {
                if fault_iter.peek().is_some_and(|f| f.index == i) {
                    let f = fault_iter.next().expect("peeked");
                    obs.sink.emit(&Event::Quarantine {
                        benchmark: bench,
                        start_point: sp,
                        trial: i as u64,
                        target: spec.target,
                        inject_cycle: spec.inject_cycle,
                        panic_msg: f.panic_msg.clone(),
                    });
                    continue;
                }
                let (rec, tr) = classified.next().expect("record per surviving spec");
                let (outcome, mode) = outcome_strings(rec.outcome);
                obs.sink.emit(&Event::Trial {
                    benchmark: bench,
                    start_point: sp,
                    trial: i as u64,
                    target: spec.target,
                    inject_cycle: rec.inject_cycle,
                    category: rec.category.label().to_string(),
                    kind: rec.kind.label().to_string(),
                    unit: rec.unit.map(|u| u.label().to_string()),
                    outcome: outcome.to_string(),
                    mode: mode.map(str::to_string),
                    detect_cycle: tr.detect_cycle,
                    divergence_cycle: tr.divergence_cycle,
                    diverged_unit: tr.diverged_unit.map(|u| u.label().to_string()),
                    valid_instructions: rec.valid_instructions as u64,
                });
                // Deep-traced campaigns follow each trial with its
                // divergence timeline (omitted when the trial never
                // diverged — an empty timeline carries no information).
                if let Some(d) = deep_iter.next() {
                    if !d.is_empty() {
                        obs.sink.emit(&Event::Propagation {
                            benchmark: bench,
                            start_point: sp,
                            trial: i as u64,
                            samples: d.to_labels(|b| UnitId::ALL[b].label().to_string()),
                        });
                    }
                }
            }
        }
        // The merged span tree rides in the event stream too (sorted by
        // path: deterministic at any thread count once wall clocks are
        // stripped).
        if let Some(profiler) = obs.spans {
            for ev in profiler.snapshot().events() {
                obs.sink.emit(&ev);
            }
        }
        let totals = result.totals();
        obs.sink.emit(&Event::CampaignEnd {
            trials: totals.total(),
            matched: totals.matched,
            gray: totals.gray,
            failed: totals.failed(),
            quarantined: result.quarantined.len() as u64,
            eligible_bits,
            wall_ns: campaign_t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            prune: result.prune,
        });
        obs.sink.flush();
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_bookkeeping() {
        let mut c = OutcomeCounts::default();
        c.add(Outcome::MicroArchMatch);
        c.add(Outcome::GrayArea);
        c.add(Outcome::Failure(FailureMode::Regfile));
        c.add(Outcome::Failure(FailureMode::Locked));
        assert_eq!(c.total(), 4);
        assert_eq!(c.failed(), 2);
        assert_eq!(c.sdc(), 1);
        assert_eq!(c.terminated(), 1);
        assert_eq!(c.failure(FailureMode::Regfile), 1);
        assert!((c.masked_fraction() - 0.25).abs() < 1e-12);
        assert!((c.benign_fraction() - 0.5).abs() < 1e-12);
        let mut d = OutcomeCounts::default();
        d.merge(&c);
        assert_eq!(d, c);
    }

    #[test]
    fn tiny_campaign_runs_end_to_end() {
        // One small benchmark, few trials: checks threading, aggregation,
        // and that masking dominates.
        let mut config = CampaignConfig::quick(3);
        config.start_points = 1;
        config.trials_per_start_point = 30;
        config.monitor_cycles = 1_500;
        config.scale = 1;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "gzip-like" || w.name == "twolf-like")
            .collect();
        let result = run_campaign_on(&config, &workloads);
        let totals = result.totals();
        assert_eq!(totals.total(), 60);
        assert_eq!(result.benchmarks.len(), 2);
        assert_eq!(result.scatter.len(), 2);
        assert!(result.eligible_bits > 40_000);
        assert!(
            totals.benign_fraction() > 0.5,
            "most faults must be benign: {totals:?}"
        );
        // Category attribution covered every trial.
        let cat_total: u64 = result.by_category.values().map(|c| c.total()).sum();
        assert_eq!(cat_total, 60);
    }

    #[test]
    fn observed_campaign_matches_unobserved_and_emits_events() {
        let mut config = CampaignConfig::quick(5);
        config.start_points = 1;
        config.trials_per_start_point = 12;
        config.monitor_cycles = 800;
        config.scale = 1;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "gzip-like")
            .collect();

        let plain = run_campaign_on(&config, &workloads);

        let sink = tfsim_obs::RingSink::new(10_000);
        let metrics = CampaignMetrics::new();
        let progress = Progress::new();
        let obs = CampaignObs {
            sink: &sink,
            metrics: Some(&metrics),
            progress: Some(&progress),
            spans: None,
        };
        let observed = run_campaign_journaled(&config, &workloads, &obs, None);

        // Observation must not change science.
        assert_eq!(observed.totals(), plain.totals());
        assert_eq!(observed.eligible_bits, plain.eligible_bits);

        // Event stream: header, 12 trials, footer.
        let events = sink.events();
        assert_eq!(events.len(), 1 + 12 + 1);
        assert!(matches!(events[0], Event::CampaignStart { seed: 5, .. }));
        let trials = events
            .iter()
            .filter(|e| matches!(e, Event::Trial { .. }))
            .count();
        assert_eq!(trials, 12);
        match events.last().unwrap() {
            Event::CampaignEnd { trials, matched, gray, failed, .. } => {
                let t = observed.totals();
                assert_eq!((*trials, *matched, *gray, *failed), (12, t.matched, t.gray, t.failed()));
            }
            other => panic!("expected campaign_end, got {other:?}"),
        }

        // The result counts every trial; the footer counts the work and
        // progress the tasks.
        assert_eq!(observed.totals().total(), 12);
        assert_eq!(observed.totals().failed(), plain.totals().failed());
        let work = metrics.work();
        assert!(work.golden_cycles > 0 && work.rows_hashed > 0, "{work:?}");
        assert_eq!(metrics.render().lines().count(), 5);
        assert_eq!(progress.snapshot(), (1, 1));
    }

    #[test]
    fn campaigns_are_reproducible() {
        let mut config = CampaignConfig::quick(11);
        config.start_points = 1;
        config.trials_per_start_point = 15;
        config.monitor_cycles = 800;
        config.scale = 1;
        config.threads = 2;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "vpr-like")
            .collect();
        let a = run_campaign_on(&config, &workloads);
        let b = run_campaign_on(&config, &workloads);
        assert_eq!(a.totals(), b.totals());
    }
}

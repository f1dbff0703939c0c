//! Start-point preparation and trial execution.
//!
//! Every trial is classified by one decision loop, [`StartPoint::decide`],
//! over one of three views of it ([`Run`]): a faulted machine the loop
//! steps and checks against the golden rows ([`Stepped`]), the same
//! machine stepped in lockstep with a fault-free clone ([`Lockstep`]), or a
//! site the pruner proved dead, read off the golden run's aggregates
//! (`crate::pruner::Golden`). Two equivalent execution paths drive it:
//!
//! * [`StartPoint::run_trial`] — the naive reference: replay fault-free
//!   from the checkpoint to the injection cycle, clone that machine, flip
//!   the clone, and step both, checking the trial's flat whole-machine
//!   fingerprint against the fault-free machine's. It reads no golden row,
//!   so the engine ≡ oracle tests check every row the engine reads against
//!   a real fault-free machine. Deliberately simple; the oracle every
//!   optimization is measured and verified against.
//! * The engine ([`StartPoint::run_trials`], [`StartPoint::run_batch`] and
//!   every campaign): one batch per start point. The analytic pruner
//!   (`crate::pruner`) proves most sites dead and the loop reads their
//!   golden views; the rest are stepped on the snapshot ladder, sorted by
//!   injection cycle and served from a single fault-free *walker*
//!   advanced monotonically through the injection window (one clone per
//!   trial instead of a replay per trial), with µArch-Match checks on a
//!   [`CachedFingerprint`] that hashes the latch units and reads the shadow
//!   units' maintained digests, probing the unit a latent fault keeps
//!   diverged first. Produces bit-identical [`TrialRecord`]s — pinned by
//!   property tests.
//!
//! # The golden walk
//!
//! Everything the classifier and the pruner read from the fault-free run
//! comes from one routine, [`walk`], the only fault-free pass a start point
//! gets. A campaign walks each benchmark's run once (its *spine*) from its
//! first pending start point's checkpoint to its last one's horizon, and
//! every start point is a [`StartPoint`] view of it, clipped to its own
//! window: its checkpoint, its part of the one copy of the retire records
//! and per-cycle retirement counts, its valid counts (folded from each
//! commit's fetch and commit cycles), and its golden rows.
//! [`StartPoint::prepare`] is the one-start-point case without a trial
//! plan; a standalone batch walks its start point's checkpoint once more,
//! with its plan.
//!
//! # Golden rows
//!
//! A µArch-Match check compares the trial machine against the golden
//! fingerprint *row* of the same cycle (root hash plus per-unit
//! subhashes). Checks run at every cycle of the dense window
//! `(inject, inject + 64]` and at every eighth cycle after it, so for each
//! start point walked with a plan the walk hashes its sparse grid (its
//! checkpoint and every eighth step after it) and the plan's dense window
//! `[min inject, max inject + 64]`, both to its horizon. The walk is the
//! only place rows are hashed: it keeps them in one table indexed by walk
//! step, a step on several grids or windows is hashed once, and after a
//! halt every later step points at the frozen row. A batch reads its check
//! rows there and replays no golden cycle. Traced batches' post-decision
//! attribution reads a row at the decision cycle, which the table may not
//! hold; those closings wait until the batch's trials are done
//! ([`StartPoint::close`]), and the ladder's walker steps forward to the
//! ones past the plan's dense window, so untraced batches never pay for
//! them.

use std::any::Any;
use std::cell::Cell;
use std::ops::{AddAssign, Range};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Instant;

use tfsim_arch::RetireRecord;
use tfsim_bitstate::{
    fingerprint_of, BitCount, CachedFingerprint, Category, FlipBit, InjectionMask, StorageKind,
    UnitId, VisitState,
};
use tfsim_isa::{decode, Asm, Program};
use tfsim_obs::{DeepTrace, PruneDispositions};
use tfsim_uarch::{ExcCode, FlowEvent, Pipeline, PipelineConfig, RetireEvent};

use crate::footprint::Footprint;
use crate::pruner::{fault_sites, watch_list, Golden, Sites};

/// The paper's seven failure modes (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// Control-flow violation: an incorrect (but valid) instruction was
    /// fetched, executed, and committed (SDC).
    Ctrl,
    /// Non-speculative access to an invalid virtual page (SDC).
    Dtlb,
    /// An exception was generated (Terminated).
    Except,
    /// Processor redirected to an invalid virtual page (SDC).
    Itlb,
    /// Deadlock or livelock: 100 cycles without retirement (Terminated).
    Locked,
    /// Memory image inconsistent (SDC).
    Mem,
    /// Register file inconsistent (SDC).
    Regfile,
}

impl FailureMode {
    /// All modes, in the paper's Table 2 order.
    pub const ALL: [FailureMode; 7] = [
        FailureMode::Ctrl,
        FailureMode::Dtlb,
        FailureMode::Except,
        FailureMode::Itlb,
        FailureMode::Locked,
        FailureMode::Mem,
        FailureMode::Regfile,
    ];

    /// Position of this mode in [`FailureMode::ALL`] (the declaration
    /// order matches, so this is a cast, not a scan).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this mode is a `Terminated` outcome (vs. SDC).
    pub fn is_termination(self) -> bool {
        matches!(self, FailureMode::Except | FailureMode::Locked)
    }

    /// The paper's lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FailureMode::Ctrl => "ctrl",
            FailureMode::Dtlb => "dtlb",
            FailureMode::Except => "except",
            FailureMode::Itlb => "itlb",
            FailureMode::Locked => "locked",
            FailureMode::Mem => "mem",
            FailureMode::Regfile => "regfile",
        }
    }
}

/// Trial outcome (Section 2.2's four categories, with failures subdivided
/// by mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Entire microarchitectural state matched the golden run.
    MicroArchMatch,
    /// Neither a state match nor a failure within the window.
    GrayArea,
    /// Architectural state diverged (SDC) or execution terminated.
    Failure(FailureMode),
}

impl Outcome {
    /// Whether the trial is a known failure (SDC or Terminated).
    pub fn is_failure(self) -> bool {
        matches!(self, Outcome::Failure(_))
    }
}

/// One planned trial for the batched [`StartPoint::run_trials`] path:
/// which eligible bit to flip and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Eligible-bit index under the campaign mask.
    pub target: u64,
    /// Injection cycle relative to the checkpoint.
    pub inject_cycle: u64,
}

/// One completed trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// The classification.
    pub outcome: Outcome,
    /// Category of the flipped bit.
    pub category: Category,
    /// Storage kind of the flipped bit.
    pub kind: StorageKind,
    /// Fingerprint unit the flipped bit landed in (the injection site),
    /// when the machine brackets that state into a unit.
    pub unit: Option<UnitId>,
    /// Cycle (relative to the checkpoint) at which the flip occurred.
    pub inject_cycle: u64,
    /// Number of in-flight instructions at injection time that eventually
    /// commit in the golden run (Figure 6's x-axis).
    pub valid_instructions: u32,
}

/// Telemetry gathered alongside a [`TrialRecord`] on the traced path.
///
/// Separate from the record so the untraced campaign path carries no extra
/// state: [`TrialRecord`] equality (pinned by the batched-vs-naive property
/// test) stays the scientific result, and this is pure observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialTrace {
    /// Cycle (relative to the checkpoint) at which the outcome was decided:
    /// the failure-detection cycle, the re-convergence cycle for a µArch
    /// Match, or the end of the monitoring window for the Gray Area.
    pub detect_cycle: u64,
    /// First cycle at which a µArch-Match check observed the machine
    /// diverged from golden (sampled at the classifier's check cadence),
    /// if any check ran before the outcome was decided.
    pub divergence_cycle: Option<u64>,
    /// Unit whose fingerprint subhash differed from golden at
    /// `divergence_cycle` — where the fault was first architecturally
    /// visible. `None` when the divergence sits outside any unit.
    pub diverged_unit: Option<UnitId>,
}

/// A trial whose faulted run escaped the hardened model and unwound.
///
/// This is a *harness-level* record, kept strictly separate from the
/// paper's outcome taxonomy: a real latch upset never aborts the chip, so
/// a simulator panic is a bug in the model (a site the corrupted-state
/// hardening missed), not a ninth outcome. Quarantining the trial keeps
/// the census faithful while preserving everything needed to reproduce
/// the escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFault {
    /// Position of the quarantined trial in the input spec slice.
    pub index: usize,
    /// The spec whose faulted run unwound (replay: same start point, same
    /// spec, same monitor window).
    pub spec: TrialSpec,
    /// The panic payload, when it carried a message.
    pub panic_msg: String,
}

/// How much a batch observes of its trials. Observation never changes a
/// record: the decisions are the same at every level, and the extra work
/// happens off the decision path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// Records only: no trace slots, no timing calls.
    Off,
    /// Adds a [`TrialTrace`] per trial (decision cycle, first observed
    /// divergence and its unit) and the batch's timings.
    On,
    /// Adds each trial's change-only divergence timeline: the set of
    /// diverged units at every µArch check, from the per-unit
    /// fingerprints.
    Deep,
}

impl Trace {
    /// Whether per-trial traces and timings are kept.
    pub(crate) fn on(self) -> bool {
        self != Trace::Off
    }

    /// Whether divergence timelines are kept.
    pub(crate) fn deep(self) -> bool {
        self == Trace::Deep
    }

    /// The current time when traced; timings start from it.
    pub(crate) fn clock(self) -> Option<Instant> {
        self.on().then(Instant::now)
    }
}

/// Nanoseconds since `t0` (zero untraced).
pub(crate) fn since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Nanoseconds from `a` to `b` (zero untraced).
fn between(a: Option<Instant>, b: Option<Instant>) -> u64 {
    a.zip(b).map_or(0, |(a, b)| b.duration_since(a).as_nanos() as u64)
}

/// The last step a trial injected at step `inject` is monitored to: its
/// `monitor` cycles, cut at its start point's `horizon`.
pub(crate) fn window_end(horizon: u64, inject: u64, monitor: u64) -> u64 {
    horizon.min(inject.saturating_add(monitor))
}

/// Exact work counters: what a golden walk, a batch or a campaign stepped,
/// hashed and kept, not how long it took. They are machine-independent, so
/// a fixed campaign counts the same at any thread count and on any machine.
/// Sums of them are taken with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Golden fingerprint rows hashed (`golden/rows_hashed`): each golden
    /// walk's rows on the union of its start points' sparse grids and their
    /// plans' dense windows, and each batch's closing rows hashed off its
    /// walker.
    pub rows_hashed: u64,
    /// Words mixed into those rows (`golden/words_hashed`): the latch
    /// units' words, since the shadow units contribute their maintained
    /// digests without a word visited.
    pub words_hashed: u64,
    /// First accesses the access footprints kept (`footprint/events_kept`):
    /// fault sites whose word the golden run reads or overwrites inside
    /// their window.
    pub footprint_events: u64,
    /// Cycles the faulted trial machines stepped (`trials/cycles_stepped`):
    /// each site the pruner could not prove dead, from its injection to its
    /// decision. The analytic rider steps none.
    pub trial_cycles: u64,
    /// Cycles the fault-free machines stepped for golden data
    /// (`golden/cycles_stepped`): warm-ups, golden walks (a standalone
    /// batch's included), and each batch's walker steps past its last
    /// injection to reach its closings.
    pub golden_cycles: u64,
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, other: WorkCounters) {
        self.rows_hashed += other.rows_hashed;
        self.words_hashed += other.words_hashed;
        self.footprint_events += other.footprint_events;
        self.trial_cycles += other.trial_cycles;
        self.golden_cycles += other.golden_cycles;
    }
}

/// Output of [`StartPoint::run_batch`]: records, the batch's work counters
/// and, when traced, per-trial traces and the batch's timings.
#[derive(Debug, Clone, Default)]
pub struct TracedBatch {
    /// One record per *classified* input spec, in input order (identical
    /// to what [`StartPoint::run_trials`] returns for the same specs).
    /// Quarantined trials (see `faults`) have no record.
    pub records: Vec<TrialRecord>,
    /// One trace per classified input spec, aligned with `records`. Empty
    /// untraced.
    pub traces: Vec<TrialTrace>,
    /// Trials whose faulted run panicked, contained by the per-trial
    /// `catch_unwind` supervisor. Empty on every fault-free-harness run;
    /// `faults[k].index` names the input spec each one came from.
    pub faults: Vec<TrialFault>,
    /// One divergence timeline per classified input spec, aligned with
    /// `records`. Empty unless the batch ran at [`Trace::Deep`].
    pub deeps: Vec<DeepTrace>,
    /// Wall-clock time spent advancing the fault-free walker.
    pub advance_ns: u64,
    /// Wall-clock time spent classifying the proved-dead sites on their
    /// golden views (the analytic rider).
    pub ride_ns: u64,
    /// Wall-clock time spent flipping, stepping and classifying the
    /// simulated sites.
    pub classify_ns: u64,
    /// Wall-clock time spent in the pruner's disposition proofs, which run
    /// before any trial.
    pub prune_ns: u64,
    /// Wall-clock time spent resolving the post-decision attributions (the
    /// closing loop).
    pub attribute_ns: u64,
    /// The batch's work: its footprint's kept events, its simulated
    /// trials' cycles, its closing rows and walker steps, and, standalone,
    /// its own golden walk.
    pub work: WorkCounters,
}

thread_local! {
    /// Set while a trial runs under the containment supervisor, so the
    /// process panic hook stays quiet for contained unwinds (the fault is
    /// captured in a [`TrialFault`]; stderr noise would interleave across
    /// worker threads).
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// contained trial panics and delegates everything else to the previous
/// hook unchanged.
fn install_containment_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// One golden fingerprint row: the root hash and the per-unit subhashes it
/// folds, indexed by [`UnitId::index`].
pub(crate) type Row = (u128, [u128; UnitId::COUNT]);

/// Past its dense post-injection window, the classifier checks µArch Match
/// on every `SPARSE`th cycle; the walk hashes each planned start point's
/// rows on exactly that grid, counted from its own checkpoint.
pub(crate) const SPARSE: u64 = 8;

/// Length of the classifier's dense check window after each injection.
pub(crate) const DENSE: u64 = 64;

/// One benchmark's fault-free run, stepped once by [`walk`] from its first
/// start point's checkpoint to its last start point's horizon. Every start
/// point on the walk is a [`StartPoint`] view of this one copy of the retire
/// records, per-cycle aggregates and golden rows, which are indexed by walk
/// step.
struct Spine {
    /// The machine's retirement count after `t` steps.
    instret: Vec<u64>,
    /// The golden retirement trace, in commit order.
    records: Vec<RetireRecord>,
    /// The golden rows the walk hashed, each once.
    rows: Vec<Row>,
    /// Per walk step, the index of its row in `rows`: [`UNHASHED`] (past
    /// the end of `rows`) for a step no check reads. A `u32` indexes any
    /// table that fits in memory: 2^32 rows would take a terabyte.
    row_at: Vec<u32>,
    /// Eligible bit count under the walk's mask.
    bit_count: u64,
}

/// [`Spine::row_at`]'s entry for a step the walk did not hash.
const UNHASHED: u32 = u32::MAX;

/// A step the walk is to hash, in [`Spine::row_at`] before it does.
const WANTED: u32 = u32::MAX - 1;

/// A prepared start point: a warmed checkpoint plus its view of the golden
/// continuation the classifier compares against, clipped to its own window
/// `(0, horizon]` of the walk that produced it.
pub struct StartPoint {
    pub(crate) checkpoint: Pipeline,
    /// Last cycle of the golden continuation.
    pub(crate) horizon: u64,
    spine: Arc<Spine>,
    /// Walk step of the checkpoint.
    pub(crate) offset: u64,
    /// The checkpoint's retirement count.
    base_instret: u64,
    /// This window's part of the spine's retirement trace.
    records: Range<usize>,
    /// Cycle (steps after checkpoint) at which the golden run halted: 0
    /// when the checkpoint itself is halted.
    pub(crate) halted_at: Option<(u64, u64)>, // (step, exit code)
    /// Golden in-flight valid-instruction count per cycle.
    valid_counts: Vec<u32>,
}

/// Hashes `cpu` into a golden row with `engine`.
fn hash_row(engine: &mut CachedFingerprint, cpu: &mut Pipeline) -> Row {
    let root = engine.fingerprint(cpu);
    (root, *engine.unit_hashes())
}

/// The start points a [`walk`] records: each one's checkpoint offset from
/// the walk's first step (ascending) with its trial plan (empty when no
/// trial will be checked against it), their common horizon, and the mask
/// whose eligible bits they count.
pub(crate) struct Stops<'a> {
    pub(crate) points: &'a [(u64, &'a [TrialSpec])],
    pub(crate) horizon: u64,
    pub(crate) mask: InjectionMask,
}

/// What one [`walk`] produced.
pub(crate) struct Walked {
    /// One start point per stop, in offset order.
    pub(crate) points: Vec<StartPoint>,
    /// The cycles the fault-free machine stepped, and the golden rows
    /// hashed with the words mixed into them.
    pub(crate) work: WorkCounters,
}

/// The golden walk: the one fault-free pass that everything the classifier
/// and the pruner read from the golden run comes from. `golden` sits at the
/// first start point's checkpoint and is stepped to the last start point's
/// horizon; on the way the walk:
///
/// * clones each start point's checkpoint as the walk reaches it (without
///   the walk's flow log and access tracking);
/// * hashes, into one table, the golden rows every check and closing of a
///   planned start point may read: its sparse grid and its plan's dense
///   window, each row once, however many grids and windows it lies on;
/// * keeps one copy of the retire records and retirement counts, which
///   every start point views through its own window;
/// * logs each commit's fetch and commit cycles and folds them into each
///   open start point's Figure 6 valid counts, each fold stopping at its
///   own horizon;
/// * resolves `footprint`'s sites, tracking accesses only in the units with
///   sites still open.
///
/// It ends early when the machine halts: a halted machine never changes
/// again, so every later row, count and checkpoint is the terminal one.
///
/// # Panics
///
/// Panics if the fault-free run raises an exception or flushes
/// protectively. Neither happens without a fault, so the walk records
/// neither and the golden view reports neither: parity cannot fail, and
/// the watchdog (100 cycles without a retirement by default) fires on a
/// fault-free run only when set shorter than the run's own gaps between
/// retirements (under 19 cycles on the standard workloads, where the
/// fault-free machine keeps flushing itself).
pub(crate) fn walk(mut golden: Pipeline, stops: Stops<'_>, footprint: &mut Footprint) -> Walked {
    let Stops { points: stops, horizon, mask } = stops;
    golden.set_access_tracking(footprint.tracked());
    let end = stops.last().map_or(0, |&(o, _)| o + horizon);

    // The steps a planned start point's checks and closings read: its
    // sparse grid, and the dense window from its first injection (a trial
    // with an empty window closes there) to 64 steps after its last, both
    // clipped to the horizon, where a trial injected past it closes.
    let mut row_at = vec![UNHASHED; end as usize + 1];
    for &(o, plan) in stops.iter().filter(|(_, plan)| !plan.is_empty()) {
        let (lo, hi) = plan.iter().fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.inject_cycle), hi.max(s.inject_cycle))
        });
        let dense = lo.min(horizon)..=hi.saturating_add(DENSE).min(horizon);
        for c in (0..=horizon).step_by(SPARSE as usize).chain(dense) {
            row_at[(o + c) as usize] = WANTED;
        }
    }
    // One allocation for the rows (and a frozen row after a halt).
    let mut rows = Vec::with_capacity(row_at.iter().filter(|&&k| k == WANTED).count() + 1);

    // Figure 6's valid counts fold the commits as the golden run logs
    // them, so the log never holds more than one cycle's events. An
    // instruction fetched before the log starts carries a fetch cycle that
    // precedes every checkpoint, so each fold counts it from its start.
    golden.enable_flow_log();

    // A start point opens when the walk reaches its offset: its checkpoint,
    // its first retirement, and its valid-count fold.
    struct Open {
        checkpoint: Pipeline,
        offset: u64,
        records: Range<usize>,
    }
    let open = |golden: &Pipeline, offset: u64, retired: usize| {
        let mut checkpoint = golden.clone();
        checkpoint.disable_flow_log();
        checkpoint.set_access_tracking([]);
        let valid = ValidCounts::new(golden.cycles(), horizon);
        (Open { checkpoint, offset, records: retired..retired }, valid)
    };
    let mut points: Vec<Open> = Vec::with_capacity(stops.len());
    let mut folds: Vec<ValidCounts> = Vec::with_capacity(stops.len());
    // Start points before `closed` are past their horizon: their folds
    // take no more events and their records end.
    let mut closed = 0;

    let mut instret = Vec::with_capacity(end as usize + 1);
    let mut records = Vec::new();
    // A walk that starts on a halted machine (its warm-up halted) sees no
    // halt event: the run halted at step 0.
    let mut halted_at = golden.halted().map(|code| (0, code));
    // The golden rows are hashed with the cached engine: the shadow units'
    // maintained digests cost nothing to read.
    let mut engine = CachedFingerprint::new();
    let mut work = WorkCounters::default();
    let mut t = 0;
    instret.push(golden.instret());
    loop {
        while points.len() < stops.len() && stops[points.len()].0 == t {
            let (point, valid) = open(&golden, t, records.len());
            points.push(point);
            folds.push(valid);
        }
        while closed < points.len() && points[closed].offset + horizon == t {
            points[closed].records.end = records.len();
            closed += 1;
        }
        if row_at[t as usize] == WANTED {
            row_at[t as usize] = rows.len() as u32;
            rows.push(hash_row(&mut engine, &mut golden));
        }
        if t == end || !golden.running() {
            break;
        }
        let report = golden.step();
        t += 1;
        golden.drain_flow_events(|ev| folds[closed..].iter_mut().for_each(|v| v.commit(ev)));
        for ev in report.events {
            match ev {
                RetireEvent::Retired(r) => records.push(r),
                RetireEvent::Halted { code } => {
                    halted_at.get_or_insert((t, code));
                }
                RetireEvent::Exception(e) => panic!("golden run raised {e:?} at step {t}"),
            }
        }
        assert!(!report.protective_flush, "golden run flushed protectively at step {t}");
        instret.push(golden.instret());
        footprint.observe(&mut golden, t);
    }
    work.golden_cycles = t;
    if t < end {
        // Halted: freeze every later row, count and checkpoint.
        let frozen = &mut row_at[t as usize..];
        if frozen.contains(&WANTED) {
            if matches!(frozen[0], WANTED | UNHASHED) {
                frozen[0] = rows.len() as u32;
                rows.push(hash_row(&mut engine, &mut golden));
            }
            let row = frozen[0];
            frozen.fill(row);
        }
        instret.resize(end as usize + 1, golden.instret());
        while points.len() < stops.len() {
            let (point, valid) = open(&golden, stops[points.len()].0, records.len());
            points.push(point);
            folds.push(valid);
        }
        for point in &mut points[closed..] {
            point.records.end = records.len();
        }
    }

    let mut count = BitCount::new(mask);
    if let Some(first) = points.first_mut() {
        first.checkpoint.visit_state(&mut count);
    }
    work.rows_hashed = rows.len() as u64;
    work.words_hashed = engine.words();
    let spine = Arc::new(Spine { instret, records, rows, row_at, bit_count: count.count });
    let points = points
        .into_iter()
        .zip(folds)
        .map(|(point, valid)| {
            let offset = point.offset;
            StartPoint {
                base_instret: spine.instret[offset as usize],
                // A start point opened on a halted machine halted at its
                // step 0.
                halted_at: halted_at
                    .filter(|&(h, _)| h <= offset + horizon)
                    .map(|(h, code)| (h.saturating_sub(offset), code)),
                checkpoint: point.checkpoint,
                horizon,
                spine: Arc::clone(&spine),
                offset,
                records: point.records,
                valid_counts: valid.finish(),
            }
        })
        .collect();
    Walked { points, work }
}

impl StartPoint {
    /// Prepares a start point from a *warmed* pipeline: the one-start-point
    /// case of the golden walk. Runs the golden continuation for `horizon`
    /// cycles, keeping per-cycle retirement aggregates. It hashes no golden
    /// row: no plan is checked against it, and a batch walks it again with
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free continuation raises an exception or
    /// flushes protectively (which takes a watchdog threshold shorter than
    /// the fault-free run's gaps between retirements).
    pub fn prepare(warmed: &Pipeline, horizon: u64, mask: InjectionMask) -> StartPoint {
        let stops = Stops { points: &[(0, &[])], horizon, mask };
        let walked = walk(warmed.clone(), stops, &mut Footprint::default());
        walked.points.into_iter().next().expect("one start point")
    }

    /// Number of eligible bits under the campaign mask.
    pub fn bit_count(&self) -> u64 {
        self.spine.bit_count
    }

    /// The golden valid-instruction count at a relative cycle.
    pub fn valid_at(&self, cycle: u64) -> u32 {
        self.valid_counts.get(cycle as usize).copied().unwrap_or(0)
    }

    /// The golden retirement trace of this window (index = commit number
    /// since the checkpoint).
    pub(crate) fn records(&self) -> &[RetireRecord] {
        &self.spine.records[self.records.clone()]
    }

    /// Instructions the golden run retired in its first `step` steps.
    pub(crate) fn instret(&self, step: u64) -> u64 {
        self.spine.instret[(self.offset + step) as usize] - self.base_instret
    }

    /// The golden row `cycle` steps after the checkpoint, if the walk
    /// hashed that step.
    pub(crate) fn row(&self, cycle: u64) -> Option<&Row> {
        let k = *self.spine.row_at.get((self.offset + cycle) as usize)?;
        self.spine.rows.get(k as usize)
    }

    /// Runs one trial: flip eligible bit number `target` at `inject_cycle`
    /// (relative to the checkpoint) and monitor for `monitor` cycles.
    ///
    /// This is the naive reference path: it replays fault-free from the
    /// checkpoint, steps the faulted machine in lockstep with the
    /// fault-free one, and hashes the whole machine at every µArch-Match
    /// check. The engine ([`StartPoint::run_trials`],
    /// [`StartPoint::run_batch`], every campaign) must return the same
    /// record for every spec.
    pub fn run_trial(
        &self,
        mask: InjectionMask,
        target: u64,
        inject_cycle: u64,
        monitor: u64,
    ) -> TrialRecord {
        // Advance fault-free to the injection cycle.
        let mut golden = self.checkpoint.clone();
        for _ in 0..inject_cycle {
            if !golden.running() {
                break;
            }
            golden.step();
        }

        let trial = Faulted::flip(golden.clone(), mask, target);
        let mut run = Lockstep { trial, golden, engine: CachedFingerprint::new() };
        let end = window_end(self.horizon, inject_cycle, monitor);
        self.decide(&mut run, inject_cycle, end, None, None).record
    }

    /// Runs a batch of trials against this start point through the engine,
    /// equivalent to calling [`StartPoint::run_trial`] per spec (results
    /// are returned in input order). Records only: [`StartPoint::run_batch`]
    /// at [`Trace::Off`].
    pub fn run_trials(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> Vec<TrialRecord> {
        self.run_batch(mask, specs, monitor, Trace::Off).0.records
    }

    /// Runs a batch of trials through the engine at trace level `trace`,
    /// returning the batch and the pruner's per-site disposition tally.
    /// The records are [`StartPoint::run_trials`]' at every level; see
    /// [`Trace`] for what each level adds. The batch walks the checkpoint
    /// once more with `specs` as its plan, which hashes its golden rows and
    /// resolves its footprint, and counts that walk as its own work.
    pub fn run_batch(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        trace: Trace,
    ) -> (TracedBatch, PruneDispositions) {
        // One clone of the checkpoint serves the span walk, which leaves it
        // unchanged, and then the golden walk.
        let mut golden = self.checkpoint.clone();
        let sites = fault_sites(&mut golden, self.horizon, mask, specs, None);
        let watched: Vec<_> = watch_list(&sites, specs, 0, self.horizon, monitor).collect();
        let mut footprint = Footprint::new(&watched);
        let stops = Stops { points: &[(0, specs)], horizon: self.horizon, mask };
        let walked = walk(golden, stops, &mut footprint);
        let sp = walked.points.first().expect("one start point");
        let (mut batch, dispo) = sp.batch(mask, specs, monitor, trace, None, (&sites, &footprint));
        batch.work += walked.work;
        (batch, dispo)
    }

    /// [`StartPoint::run_batch`] at [`Trace::On`], under the name the
    /// benchmark harness (`perfbench`) calls; it goes when that call does.
    #[doc(hidden)]
    pub fn run_trials_pruned_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_batch(mask, specs, monitor, Trace::On)
    }

    /// The engine: one pass over a batch of specs that
    ///
    /// * takes each spec's fault site and the golden run's first access to
    ///   its word from `sites` and the footprint, resolved by the golden walk
    ///   that produced this start point with `specs` as its plan (footprint
    ///   steps are walk steps);
    /// * proves the sites' dispositions (`crate::pruner`) and classifies
    ///   every proved-dead site by the decision loop over its golden view,
    ///   building no machine;
    /// * steps every other site on the snapshot ladder: in ascending
    ///   injection cycle, one fault-free *walker* clone of the checkpoint
    ///   advances monotonically through the injection window and each
    ///   trial classifies a clone of it, with µArch-Match checks on a
    ///   per-trial [`CachedFingerprint`] against the walk's golden rows.
    ///   Equivalence with the per-trial replay holds because the walker is
    ///   deterministic, stepping a halted machine is a no-op, and cloning
    ///   is exact;
    /// * resolves the traced trials' closings ([`StartPoint::close`]).
    ///
    /// Every record, trace, timeline and quarantine goes straight into its
    /// input-order slot. Each stepped trial runs under a `catch_unwind`
    /// supervisor: a panic out of the faulted model (a hardening escape)
    /// quarantines that one trial as a [`TrialFault`] and the batch
    /// continues. The walker is never touched by a contained unwind (the
    /// trial runs on a clone), so the other records are bit-identical to a
    /// batch without the panic.
    ///
    /// `panic_shim` names a spec whose trial panics on purpose before
    /// classification (the campaign test hook that exercises quarantine
    /// end to end); it is always stepped, never proved.
    pub(crate) fn batch(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        trace: Trace,
        panic_shim: Option<usize>,
        (sites, footprint): (&Sites, &Footprint),
    ) -> (TracedBatch, PruneDispositions) {
        install_containment_hook();
        let mut batch = TracedBatch::default();
        // The proofs are the pruner's own analysis time: they run before
        // any trial.
        let t0 = trace.clock();
        let (proved, kept) = self.prove(specs, sites, footprint, monitor);
        batch.prune_ns = since(t0);
        batch.work.footprint_events = kept;

        let n = specs.len();
        let mut out: Vec<Option<TrialRecord>> = vec![None; n];
        let mut traces = vec![TrialTrace::default(); if trace.on() { n } else { 0 }];
        let mut deeps = vec![DeepTrace::new(); if trace.deep() { n } else { 0 }];

        let mut closings = Vec::new();
        let t0 = trace.clock();
        for (i, site) in proved.iter().enumerate() {
            if let Some((span, heal)) = site {
                let c = specs[i].inject_cycle;
                let mut run = Golden::new(self, span, c, *heal);
                let end = window_end(self.horizon, c, monitor);
                let d = self.decide(&mut run, c, end, traces.get_mut(i), deeps.get_mut(i));
                out[i] = Some(d.record);
                closings.extend(d.closing.map(|c| (i, c)));
            }
        }
        batch.ride_ns = since(t0);

        let mut order: Vec<usize> = (0..n).filter(|&i| proved[i].is_none()).collect();
        order.sort_by_key(|&i| specs[i].inject_cycle);
        let mut walker = self.checkpoint.clone();
        let mut walked = 0u64;
        for &i in &order {
            let spec = specs[i];
            let t0 = trace.clock();
            while walked < spec.inject_cycle && walker.running() {
                walker.step();
                walked += 1;
            }
            let t1 = trace.clock();
            batch.advance_ns += between(t0, t1);
            let (trace, deep) = (traces.get_mut(i), deeps.get_mut(i));
            CONTAINED.with(|c| c.set(true));
            let classified = panic::catch_unwind(AssertUnwindSafe(|| {
                if panic_shim == Some(i) {
                    panic!(
                        "forced mid-trial panic (test shim, target {} cycle {})",
                        spec.target, spec.inject_cycle
                    );
                }
                let trial = Faulted::flip(walker.clone(), mask, spec.target);
                let mut run = Stepped { trial, sp: self, engine: CachedFingerprint::new() };
                let c = spec.inject_cycle;
                self.decide(&mut run, c, window_end(self.horizon, c, monitor), trace, deep)
            }));
            CONTAINED.with(|c| c.set(false));
            match classified {
                Ok(d) => {
                    out[i] = Some(d.record);
                    closings.extend(d.closing.map(|c| (i, c)));
                    batch.work.trial_cycles += d.last_step - spec.inject_cycle;
                }
                Err(payload) => batch.faults.push(TrialFault {
                    index: i,
                    spec,
                    panic_msg: panic_message(payload),
                }),
            }
            batch.classify_ns += since(t1);
        }
        let t0 = trace.clock();
        batch.work += self.close(closings, (walker, walked), &mut traces, &mut deeps);
        batch.attribute_ns = since(t0);

        // Quarantined trials have no record, trace or timeline.
        fn classified<T>(slots: Vec<T>, out: &[Option<TrialRecord>]) -> Vec<T> {
            slots.into_iter().zip(out).filter(|(_, r)| r.is_some()).map(|(t, _)| t).collect()
        }
        batch.faults.sort_by_key(|f| f.index);
        batch.traces = classified(traces, &out);
        batch.deeps = classified(deeps, &out);
        batch.records = out.into_iter().flatten().collect();
        let simulated = order.len() as u64;
        let dispo = PruneDispositions {
            proved_dead: n as u64 - simulated,
            class_collapsed: 0,
            simulated,
        };
        (batch, dispo)
    }

    /// Resolves a batch's closings in ascending decision cycle. A closing
    /// whose row the walk hashed reads it from the table. Any other lies
    /// past the plan's dense window, so past the last injection the ladder
    /// reached: `walker`, the ladder's walker `walked` steps after the
    /// checkpoint, steps forward to it and is hashed there (a halted walker
    /// is already in its frozen state). `closings` pairs each with the spec
    /// index of its slots in `traces` and `deeps` (either may be empty).
    /// Returns the rows hashed off the walker and the steps it took.
    fn close(
        &self,
        mut closings: Vec<(usize, Closing)>,
        (mut walker, mut walked): (Pipeline, u64),
        traces: &mut [TrialTrace],
        deeps: &mut [DeepTrace],
    ) -> WorkCounters {
        let mut work = WorkCounters::default();
        let mut engine = CachedFingerprint::new();
        closings.sort_by_key(|(_, c)| c.at);
        for (i, c) in closings {
            let (differs, mask) = match c.seen {
                Seen::State(row) => {
                    let (root, units) = *row;
                    let (golden, golden_units) = match self.row(c.at) {
                        Some(row) => *row,
                        None => {
                            assert!(walked <= c.at, "walker at {walked} is past closing {}", c.at);
                            while walked < c.at && walker.running() {
                                walker.step();
                                walked += 1;
                                work.golden_cycles += 1;
                            }
                            work.rows_hashed += 1;
                            hash_row(&mut engine, &mut walker)
                        }
                    };
                    (root != golden, UnitId::diverged_mask(&units, &golden_units))
                }
                Seen::Diverged(mask) => (mask != 0, mask),
            };
            // A trace that still lacks a divergence takes it from here.
            let trace = traces.get_mut(i).filter(|tr| tr.divergence_cycle.is_none());
            if let Some(tr) = trace.filter(|_| differs) {
                tr.divergence_cycle = Some(c.at);
                tr.diverged_unit = UnitId::from_mask(mask).next();
            }
            if let Some(d) = deeps.get_mut(i) {
                d.push(c.at, mask);
            }
        }
        work.words_hashed = engine.words();
        work
    }

    /// The decision loop: the paper's one classification procedure, run
    /// over either view of a trial ([`Run`]) from its injection at step
    /// `inject` to step `end` at the latest.
    ///
    /// * Every retired instruction is compared with the golden record of
    ///   the same commit number (Ctrl, Regfile and Mem failures); one
    ///   retired past the golden stream ends the trial in the Gray Area.
    /// * An exception fails the trial. A halt is a µArch Match only with
    ///   the golden exit code, after exactly the golden stream.
    /// * 100 cycles without retirement, or three protective flushes without
    ///   one, lock the trial.
    /// * At every step of the dense window after injection and every
    ///   [`SPARSE`]th after it, a run level with golden is checked for a
    ///   full-machine µArch Match.
    ///
    /// What no rule decides by `end` is Gray Area. The observer slots are
    /// pure observability: `trace` receives the decision step and the first
    /// divergence a check observed, and into `deep` failing checks sample
    /// the diverged-unit set, densely and then at every eighth check. They
    /// read what the rules computed, and the post-decision comparison waits
    /// in the returned [`Closing`], so they never alter the decision.
    pub(crate) fn decide<R: Run>(
        &self,
        run: &mut R,
        inject: u64,
        end: u64,
        trace: Option<&mut TrialTrace>,
        mut deep: Option<&mut DeepTrace>,
    ) -> Decision {
        let traced = trace.is_some();
        let records = self.records();
        // First divergence a µArch check observed: (cycle, unit).
        let mut divergence: Option<(u64, Option<UnitId>)> = None;
        let mut last_step = inject;

        let decided = 'decide: {
            // A flip into a halted machine is architecturally invisible.
            if !run.running() {
                break 'decide Some((Outcome::MicroArchMatch, inject));
            }
            // The machine replayed golden up to the flip.
            let mut matched = self.instret(inject.min(end)) as usize;
            let mut last_retire = inject;
            let mut flushes_without_retire = 0u32;
            for step in (inject + 1)..=end {
                last_step = step;
                let Step { retired, protective_flush, stop } = run.step();
                if !retired.is_empty() {
                    last_retire = step;
                    flushes_without_retire = 0;
                }
                if protective_flush {
                    // The timeout watchdog attempted a recovery: give it
                    // time to refill the pipeline before declaring deadlock
                    // — but a machine that keeps flushing without ever
                    // retiring is wedged beyond the watchdog's reach (the
                    // paper's store-buffer example).
                    flushes_without_retire += 1;
                    if flushes_without_retire >= 3 {
                        break 'decide Some((Outcome::Failure(FailureMode::Locked), step));
                    }
                    last_retire = step;
                }
                // Retirements that are the golden stream's own records at
                // `matched` (a golden view's) equal them without a compare.
                let own = records.get(matched..matched + retired.len());
                let unchecked = if own.is_some_and(|g| std::ptr::eq(g, retired)) {
                    matched += retired.len();
                    &[][..]
                } else {
                    retired
                };
                for rec in unchecked {
                    // Ran ahead of the golden horizon: nothing left to
                    // verify.
                    let Some(g) = records.get(matched) else {
                        break 'decide Some((Outcome::GrayArea, step));
                    };
                    matched += 1;
                    // Architectural-state comparison. The record's `pc`/`raw`
                    // fields (and the next_pc of non-branches, which is pc+4
                    // by wiring) are ROB metadata, not architectural state:
                    // flips there leave execution untouched. The checker
                    // compares the resolved flow of control transfers,
                    // register writes, and stores — any wrong-instruction
                    // commit diverges in those.
                    let mode = if rec.next_pc != g.next_pc && decode(g.raw).is_control() {
                        FailureMode::Ctrl
                    } else if rec.dst != g.dst {
                        FailureMode::Regfile
                    } else if rec.store != g.store {
                        FailureMode::Mem
                    } else {
                        continue;
                    };
                    break 'decide Some((Outcome::Failure(mode), step));
                }
                if let Some(stop) = stop {
                    let mode = match stop {
                        // Correct only if the golden run also halts with
                        // this code, having retired exactly this stream.
                        Ok(code)
                            if self.halted_at.is_some_and(|(_, g)| g == code)
                                && matched == records.len() =>
                        {
                            break 'decide Some((Outcome::MicroArchMatch, step));
                        }
                        Ok(_) => FailureMode::Ctrl,
                        Err(ExcCode::Itlb) => FailureMode::Itlb,
                        Err(ExcCode::Dtlb) => FailureMode::Dtlb,
                        Err(_) => FailureMode::Except,
                    };
                    break 'decide Some((Outcome::Failure(mode), step));
                }

                // Deadlock/livelock detection (Section 4.1: 100 cycles
                // without retirement).
                if run.running() && step - last_retire >= 100 {
                    break 'decide Some((Outcome::Failure(FailureMode::Locked), step));
                }

                // µArch Match: full-state equality at the same cycle with
                // the same retirement count. Once equal, the two
                // deterministic machines stay equal, so sparse checking
                // after an initial dense window loses nothing.
                let dense = step - inject <= DENSE;
                if (dense || step % SPARSE == 0) && self.instret(step) == matched as u64 {
                    if run.matches(step) {
                        // A heal closes the divergence timeline (change-only
                        // push: a no-op unless divergence was ever sampled).
                        if let Some(d) = deep.as_deref_mut() {
                            d.push(step, 0);
                        }
                        break 'decide Some((Outcome::MicroArchMatch, step));
                    }
                    if traced && divergence.is_none() {
                        divergence = Some((step, run.suspect()));
                    }
                    if let Some(d) = deep.as_deref_mut() {
                        // Deep sample: which units hold faulty state right
                        // now — at every check in the dense window, then at
                        // every eighth check. Change-only encoding collapses
                        // repeats anyway, and the residency buckets the
                        // timeline feeds are far coarser than 64 cycles.
                        if dense || step % 64 == 0 {
                            d.push(step, run.diverged(step));
                        }
                    }
                }

                if !run.running() {
                    break;
                }
            }
            None
        };

        let (outcome, at) = decided.unwrap_or((Outcome::GrayArea, last_step));
        if let Some(tr) = trace {
            tr.detect_cycle = at;
            if let Some((cycle, unit)) = divergence {
                tr.divergence_cycle = Some(cycle);
                tr.diverged_unit = unit;
            }
        }
        // A trial decided without any check observing its divergence (e.g.
        // an architectural mismatch in the retire stream) is attributed by
        // comparing its decision state with golden, and the deep timeline
        // closes on the same comparison.
        let attribute = traced && divergence.is_none();
        let closing = (outcome != Outcome::MicroArchMatch && (attribute || deep.is_some()))
            .then(|| Closing { at: last_step.min(self.horizon), seen: run.seen() });
        let (category, kind, unit) = run.site();
        let valid_instructions = self.valid_at(inject);
        let record =
            TrialRecord { outcome, category, kind, unit, inject_cycle: inject, valid_instructions };
        Decision { record, decided: decided.is_some(), last_step, closing }
    }
}

/// How [`StartPoint::decide`] ended.
pub(crate) struct Decision {
    record: TrialRecord,
    /// Whether a rule decided the trial: false when the window ran out (a
    /// Gray Area).
    pub(crate) decided: bool,
    /// The last step the loop ran.
    last_step: u64,
    closing: Option<Closing>,
}

/// What the decision loop ([`StartPoint::decide`]) reads of a trial, one
/// step at a time. Three views supply it: [`Stepped`], a faulted machine
/// the loop steps and checks against the walk's golden rows, [`Lockstep`],
/// the oracle's faulted machine stepped beside a fault-free one, and the
/// pruner's golden view of a proved-dead site, read off the golden run's
/// aggregates. The loop is generic over the view, so each is compiled into
/// its own copy of it: no dispatch, and no allocation of the loop's own per
/// step.
pub(crate) trait Run {
    /// The flipped bit's category, storage kind and unit.
    fn site(&self) -> (Category, StorageKind, Option<UnitId>);

    /// Whether the run has neither halted nor raised an exception.
    fn running(&self) -> bool;

    /// Steps once.
    fn step(&mut self) -> Step<'_>;

    /// The µArch check after `step` steps: whether the whole machine equals
    /// golden.
    fn matches(&mut self, step: u64) -> bool;

    /// The unit a failed check found diverged, if it localized one.
    fn suspect(&self) -> Option<UnitId>;

    /// The diverged-unit set after `step` steps (a deep sample).
    fn diverged(&mut self, step: u64) -> u16;

    /// The run's state at its decision, for its [`Closing`].
    fn seen(&mut self) -> Seen;
}

/// What one step of a [`Run`] did, as the decision loop reads it.
pub(crate) struct Step<'a> {
    /// The instructions retired, in commit order.
    pub(crate) retired: &'a [RetireRecord],
    /// Whether a protection mechanism flushed the pipeline.
    pub(crate) protective_flush: bool,
    /// How the step stopped the machine, if it did: `Ok` with a halt's exit
    /// code, or `Err` with an exception. It follows the step's retirements.
    pub(crate) stop: Option<Result<u64, ExcCode>>,
}

/// A faulted machine and its step events: what the two stepped views
/// share.
struct Faulted {
    cpu: Pipeline,
    site: (Category, StorageKind, Option<UnitId>),
    /// The last step's retirements, in a buffer kept across steps.
    retired: Vec<RetireRecord>,
}

impl Faulted {
    /// Flips eligible bit `target` of `cpu`, a machine fault-free up to the
    /// injection.
    fn flip(mut cpu: Pipeline, mask: InjectionMask, target: u64) -> Faulted {
        let mut flip = FlipBit::new(mask, target);
        cpu.visit_state(&mut flip);
        let hit = flip.flipped.expect("target bit within eligible range");
        Faulted { cpu, site: (hit.category, hit.kind, hit.unit), retired: Vec::new() }
    }

    fn step(&mut self) -> Step<'_> {
        let report = self.cpu.step();
        self.retired.clear();
        let mut stop = None;
        // The retire stage reports its retirements first and a halt or an
        // exception last.
        for ev in report.events {
            match ev {
                RetireEvent::Retired(r) => self.retired.push(r),
                RetireEvent::Halted { code } => stop = Some(Ok(code)),
                RetireEvent::Exception(e) => stop = Some(Err(e)),
            }
        }
        Step { retired: &self.retired, protective_flush: report.protective_flush, stop }
    }
}

/// The engine's stepped view: a faulted machine, checked against its start
/// point's golden rows on a [`CachedFingerprint`], whose suspect
/// short-circuit localizes a divergence for free. The deep samples and the
/// closing state take full walks on the same engine, which leave that
/// suspect alone.
struct Stepped<'a> {
    trial: Faulted,
    sp: &'a StartPoint,
    engine: CachedFingerprint,
}

impl Run for Stepped<'_> {
    fn site(&self) -> (Category, StorageKind, Option<UnitId>) {
        self.trial.site
    }

    fn running(&self) -> bool {
        self.trial.cpu.running()
    }

    fn step(&mut self) -> Step<'_> {
        self.trial.step()
    }

    fn matches(&mut self, step: u64) -> bool {
        // Per-unit comparison against the golden row, short-circuiting on
        // the unit a latent fault keeps diverged.
        let (root, units) = self.sp.row(step).expect("the walk hashed every check row");
        self.engine.matches(&mut self.trial.cpu, *root, units)
    }

    fn suspect(&self) -> Option<UnitId> {
        self.engine.suspect()
    }

    fn diverged(&mut self, step: u64) -> u16 {
        let (_, units) = self.sp.row(step).expect("the walk hashed every check row");
        self.engine.fingerprint(&mut self.trial.cpu);
        UnitId::diverged_mask(self.engine.unit_hashes(), units)
    }

    fn seen(&mut self) -> Seen {
        // One full walk of the decision state, compared with golden once
        // the batch's trials are done.
        let root = self.engine.fingerprint(&mut self.trial.cpu);
        Seen::State(Box::new((root, *self.engine.unit_hashes())))
    }
}

/// The oracle's view: a faulted machine stepped in lockstep with the
/// fault-free machine it was cloned from. A check compares the trial's flat
/// fingerprint with the fault-free machine's, hashed as the walk hashes its
/// rows, so it reads no golden row. The oracle runs without observer slots,
/// so nothing samples or closes it.
struct Lockstep {
    trial: Faulted,
    golden: Pipeline,
    engine: CachedFingerprint,
}

impl Run for Lockstep {
    fn site(&self) -> (Category, StorageKind, Option<UnitId>) {
        self.trial.site
    }

    fn running(&self) -> bool {
        self.trial.cpu.running()
    }

    fn step(&mut self) -> Step<'_> {
        self.golden.step();
        self.trial.step()
    }

    fn matches(&mut self, _step: u64) -> bool {
        fingerprint_of(&mut self.trial.cpu) == self.engine.fingerprint(&mut self.golden)
    }

    fn suspect(&self) -> Option<UnitId> {
        None
    }

    fn diverged(&mut self, _step: u64) -> u16 {
        unreachable!("the oracle keeps no divergence timeline")
    }

    fn seen(&mut self) -> Seen {
        unreachable!("the oracle keeps no trace to close")
    }
}

/// A decided trial's state as its [`Closing`] compares it with golden.
pub(crate) enum Seen {
    /// A stepped machine's fingerprint, as a row: the root and per-unit
    /// subhashes.
    State(Box<Row>),
    /// Already known without a golden row: the units that differ (a golden
    /// view's site differs in its own unit until healed, nowhere after).
    Diverged(u16),
}

/// A trial's decision state, waiting for the golden row of its decision
/// cycle: what traced batches' post-decision attribution and the deep
/// timeline's closing sample compare. [`StartPoint::close`] resolves a
/// batch's closings after its trials, so untraced batches never pay for the
/// rows.
pub(crate) struct Closing {
    /// The decision cycle, clamped to the golden horizon.
    at: u64,
    seen: Seen,
}

/// Figure 6 instrumentation for one start point: for each cycle
/// `0..=horizon` after the checkpoint at absolute cycle `base_cycle` (flow
/// events carry absolute cycles), how many in-flight instructions
/// eventually commit. An instruction counts from its fetch cycle (or the
/// checkpoint, if fetched before it) up to (not including) its commit
/// cycle; one committing after the horizon is not counted, so a fold takes
/// no events from later steps.
struct ValidCounts {
    base_cycle: u64,
    horizon: u64,
    /// A difference array over the window: +1 where a committed lifetime
    /// starts, −1 where it ends.
    delta: Vec<i64>,
}

impl ValidCounts {
    fn new(base_cycle: u64, horizon: u64) -> ValidCounts {
        let delta = vec![0; horizon as usize + 2];
        ValidCounts { base_cycle, horizon, delta }
    }

    /// Counts one committed instruction.
    fn commit(&mut self, FlowEvent { fetch, commit }: FlowEvent) {
        let lo = fetch.saturating_sub(self.base_cycle);
        let hi = commit.saturating_sub(self.base_cycle).min(self.horizon);
        if lo < hi {
            self.delta[lo as usize] += 1;
            self.delta[hi as usize] -= 1;
        }
    }

    /// The counts: one prefix sum over the difference array.
    fn finish(self) -> Vec<u32> {
        let mut live = 0i64;
        self.delta[..=self.horizon as usize]
            .iter()
            .map(|d| {
                live += d;
                live as u32
            })
            .collect()
    }
}

/// The eligible-bit count of every start point under `config` and `mask`.
/// The state walk visits field widths, never contents, so a fresh machine
/// on an empty program counts what any warmed one does.
pub(crate) fn eligible_bits(config: PipelineConfig, mask: InjectionMask) -> u64 {
    let mut a = Asm::new(0x1_0000);
    a.halt();
    let mut cpu = Pipeline::new(&Program::new("bit-count", a), config);
    let mut count = BitCount::new(mask);
    cpu.visit_state(&mut count);
    count.count
}

/// Warm-up helper: builds a pipeline, runs it `cycles` (fewer if it halts
/// first; its `cycles()` counts the steps), and returns it (TLBs preloaded
/// from a fault-free functional run).
pub(crate) fn warm_pipeline(
    program: &Program,
    config: PipelineConfig,
    cycles: u64,
) -> Pipeline {
    let mut probe = tfsim_arch::FuncSim::new(program);
    probe.run(50_000_000);
    let mut cpu = Pipeline::new(program, config);
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    for _ in 0..cycles {
        if !cpu.running() {
            break;
        }
        cpu.step();
    }
    cpu
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tfsim_bitstate::Fingerprint;
    use tfsim_check::prop::{self, ints, vecs, Config};
    use tfsim_check::prop_assert_eq;
    use tfsim_isa::Reg;

    /// Cycles the stepping audit checks per workload and config.
    const AUDIT_CYCLES: u64 = 500;

    const MASK_ALL: InjectionMask = InjectionMask::LatchesAndRams;

    fn start_point() -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        // A long-running loop with stores and branches.
        a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 60_000);
        a.li(Reg::R9, 0);
        let top = a.here_label();
        a.mulq_i(Reg::R10, 33, Reg::R10);
        a.addq_i(Reg::R10, 7, Reg::R10);
        a.srl_i(Reg::R10, 20, Reg::R4);
        a.and_i(Reg::R4, 0xf8, Reg::R5);
        a.addq(Reg::R1, Reg::R5, Reg::R5);
        a.stq(Reg::R4, Reg::R5, 0);
        a.ldq(Reg::R6, Reg::R5, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let p = tfsim_isa::Program::new("trial-bed", a).with_data(0x10_0000, vec![0u8; 256]);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 500);
        StartPoint::prepare(&warmed, 3_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn golden_precompute_is_sane() {
        let sp = start_point();
        assert!(sp.bit_count() > 40_000, "bit count {}", sp.bit_count());
        assert!(sp.records().len() > 1_000);
        assert!(sp.halted_at.is_none(), "workload must outlast the horizon");
        assert!(sp.valid_at(100) > 0, "pipeline should hold valid instructions");
        assert!(sp.valid_at(100) <= 132);
    }

    #[test]
    fn no_flip_trial_would_match() {
        // Sanity for the comparison machinery: run a trial whose flip hits
        // a bit and immediately flips it back by running a second trial on
        // the same target — instead, verify a masked-dominated sample.
        let sp = start_point();
        let mut masked = 0;
        let mut failures = 0;
        for t in 0..40 {
            let target = (t * 1_123) % sp.bit_count();
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, 10 + t, 2_000);
            match rec.outcome {
                Outcome::MicroArchMatch => masked += 1,
                Outcome::Failure(_) => failures += 1,
                Outcome::GrayArea => {}
            }
        }
        assert!(masked > failures, "masking should dominate: {masked} vs {failures}");
        assert!(masked >= 20, "most single-bit flips are benign: {masked}/40");
    }

    #[test]
    fn trials_are_deterministic() {
        let sp = start_point();
        let a = sp.run_trial(InjectionMask::LatchesAndRams, 12_345, 25, 2_000);
        let b = sp.run_trial(InjectionMask::LatchesAndRams, 12_345, 25, 2_000);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.category, b.category);
    }

    /// A workload short enough to halt well inside the monitoring horizon.
    fn halting_start_point() -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R7, 40);
        let top = a.here_label();
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        let p = tfsim_isa::Program::new("short", a);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 10);
        StartPoint::prepare(&warmed, 2_000, InjectionMask::LatchesAndRams)
    }

    /// [`halting_start_point`] with a store before the exit, so the
    /// `callsys` waits for it to drain with the exit code already written.
    fn store_before_exit_start_point() -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R7, 40);
        let top = a.here_label();
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::R1, 0x10_0000);
        a.stq(Reg::R7, Reg::R1, 0);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        let p = tfsim_isa::Program::new("short-store", a).with_data(0x10_0000, vec![0u8; 64]);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 10);
        StartPoint::prepare(&warmed, 2_000, InjectionMask::LatchesAndRams)
    }

    /// Figure 6's count by its definition, cycle by cycle: the committed
    /// instructions in flight `c` cycles after the checkpoint at absolute
    /// cycle `base_cycle`.
    fn valid_counts_per_cycle(events: &[FlowEvent], base_cycle: u64, horizon: u64) -> Vec<u32> {
        let in_flight = |at: u64| events.iter().filter(|e| e.fetch <= at && at < e.commit).count();
        (0..=horizon).map(|c| in_flight(base_cycle + c) as u32).collect()
    }

    #[test]
    fn valid_counts_equal_the_per_cycle_reference() {
        let loop_program = {
            let mut a = Asm::new(0x1_0000);
            a.li(Reg::R1, 0x10_0000);
            a.li(Reg::R7, 3_000);
            let top = a.here_label();
            a.stq(Reg::R7, Reg::R1, 0);
            a.ldq(Reg::R6, Reg::R1, 0);
            a.subq_i(Reg::R7, 1, Reg::R7);
            a.bne(Reg::R7, top);
            a.halt();
            tfsim_isa::Program::new("fig6-bed", a).with_data(0x10_0000, vec![0u8; 64])
        };
        // Start points across the run, the last of them halting inside its
        // horizon, under both pipeline configs.
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            for (warm, horizon) in [(0, 300), (150, 700), (900, 2_000), (3_000, 5_000)] {
                let warmed = warm_pipeline(&loop_program, config, warm);
                let mut golden = warmed.clone();
                golden.enable_flow_log();
                for _ in 0..horizon {
                    golden.step();
                }
                let mut events = Vec::new();
                golden.drain_flow_events(|ev| events.push(ev));
                assert_eq!(events.len() as u64, golden.instret() - warmed.instret());
                if warm > 0 {
                    // Instructions in flight at the checkpoint count from it.
                    assert!(events.iter().any(|e| e.fetch < warmed.cycles()));
                }
                let mut folded = ValidCounts::new(warmed.cycles(), horizon);
                events.iter().for_each(|&ev| folded.commit(ev));
                let fast = folded.finish();
                assert_eq!(fast, valid_counts_per_cycle(&events, warmed.cycles(), horizon));
                let sp = StartPoint::prepare(&warmed, horizon, InjectionMask::LatchesAndRams);
                assert!((0..=horizon).all(|c| sp.valid_at(c) == fast[c as usize]));
                if warm == 3_000 {
                    assert!(sp.halted_at.is_some(), "the last start point must halt");
                }
            }
        }
        assert!(ValidCounts::new(0, 4).finish().iter().all(|&n| n == 0));
    }

    /// Every workload at scale 1, warmed 300 cycles, under both pipeline
    /// configs.
    pub(crate) fn warmed_workloads() -> &'static [(String, PipelineConfig, Pipeline)] {
        static WARMED: std::sync::OnceLock<Vec<(String, PipelineConfig, Pipeline)>> =
            std::sync::OnceLock::new();
        WARMED.get_or_init(|| {
            let mut out = Vec::new();
            for w in tfsim_workloads::all() {
                let program = w.build(1);
                let configs = [
                    ("baseline", PipelineConfig::baseline()),
                    ("protected", PipelineConfig::protected()),
                ];
                for (label, config) in configs {
                    let name = format!("{} ({label})", w.name);
                    out.push((name, config, warm_pipeline(&program, config, 300)));
                }
            }
            out
        })
    }

    #[test]
    fn a_fresh_machine_counts_every_start_points_eligible_bits() {
        for (name, config, warmed) in warmed_workloads() {
            for mask in [InjectionMask::LatchesAndRams, InjectionMask::LatchesOnly] {
                let sp = StartPoint::prepare(warmed, 8, mask);
                assert_eq!(eligible_bits(*config, mask), sp.bit_count(), "{name}, {mask:?}");
            }
        }
    }

    #[test]
    fn golden_rows_hash_only_the_latch_words() {
        // The shadow units contribute their maintained digests without a
        // word visited, so a row costs the latch units' words alone (3,257
        // on the baseline machine, a few more with protection). A plan
        // injecting at the horizon reads its sparse grid alone.
        let plan = [TrialSpec { target: 0, inject_cycle: 64 }];
        for (name, _, warmed) in warmed_workloads() {
            let stops = Stops { points: &[(0, &plan)], horizon: 64, mask: MASK_ALL };
            let walked = walk(warmed.clone(), stops, &mut Footprint::default());
            assert_eq!(walked.work.rows_hashed, 9, "{name}");
            let per_row = walked.work.words_hashed / walked.work.rows_hashed;
            assert!(per_row <= 5_000, "{name}: {per_row} words per golden row");
        }
    }

    #[test]
    fn cached_fingerprint_equals_the_flat_walk_at_every_cycle() {
        // The flat walk recomputes every shadow unit's digest from its
        // words and, in debug builds, asserts it equals the maintained one:
        // stepping each workload and checking every cycle audits every
        // digest write site the workloads reach.
        for (name, _, warmed) in warmed_workloads() {
            let mut cpu = warmed.clone();
            let mut engine = CachedFingerprint::new();
            for cycle in 0..AUDIT_CYCLES {
                cpu.step();
                let flat = fingerprint_of(&mut cpu);
                assert_eq!(engine.fingerprint(&mut cpu), flat, "{name} @ {cycle}");
            }
        }
    }

    #[test]
    fn zero_monitor_window_is_provably_gray_area() {
        // With no cycles to observe, the classifier can neither match
        // state nor detect a failure, whatever bit is hit: the definition
        // of the Gray Area (Section 2.2).
        let sp = start_point();
        for target in [0, 997, 40_001] {
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, 5, 0);
            assert_eq!(rec.outcome, Outcome::GrayArea, "target {target}");
        }
    }

    #[test]
    fn flip_after_golden_halt_is_provably_micro_arch_match() {
        // A fault injected into a machine that already halted cannot
        // change any architecturally visible behaviour.
        let sp = halting_start_point();
        let (halt_step, code) = sp.halted_at.expect("short workload must halt in horizon");
        assert_eq!(code, 0);
        for target in [3, 1_234, 20_011] {
            let rec =
                sp.run_trial(InjectionMask::LatchesAndRams, target, halt_step + 50, 500);
            assert_eq!(rec.outcome, Outcome::MicroArchMatch, "target {target}");
        }
    }

    #[test]
    fn deterministic_sweep_reaches_every_outcome_class() {
        // A spaced sweep over eligible bits must surface all four of the
        // paper's outcome classes: µArch Match, Gray Area, at least one
        // SDC mode, and at least one Terminated mode. Fully deterministic,
        // so a classifier regression shows up as a stable diff here.
        let sp = start_point();
        let mut matched = 0u32;
        let mut gray = 0u32;
        let mut sdc = 0u32;
        let mut terminated = 0u32;
        for t in 0..120u64 {
            let target = (t * 40_127) % sp.bit_count();
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, t % 60, 1_500);
            match rec.outcome {
                Outcome::MicroArchMatch => matched += 1,
                Outcome::GrayArea => gray += 1,
                Outcome::Failure(m) if m.is_termination() => terminated += 1,
                Outcome::Failure(_) => sdc += 1,
            }
        }
        assert!(matched > 0, "no µArch Match in sweep");
        assert!(gray > 0, "no Gray Area in sweep");
        assert!(sdc > 0, "no SDC failure in sweep");
        assert!(terminated > 0, "no Terminated failure in sweep");
        // The paper's headline result at pipeline level: most flips mask.
        assert!(matched >= 60, "masking should dominate: {matched}/120");

        // The engine and the oracle share the decision loop, so comparing
        // them cannot show a rule changed inside it. These trials pin what
        // the rules decide, each named by the rule it pins: the outcome,
        // decision cycle, first observed divergence, timeline length and
        // the timeline's last sample, through the engine at `Trace::Deep`.
        type Pin = (Outcome, u64, Option<u64>, usize, Option<(u64, u16)>);
        let decided = |sp: &StartPoint, monitor: u64, pins: &[((u64, u64), Pin, &str)]| {
            let specs: Vec<TrialSpec> = pins
                .iter()
                .map(|&((target, inject_cycle), _, _)| TrialSpec { target, inject_cycle })
                .collect();
            let mask = InjectionMask::LatchesAndRams;
            let (b, _) = sp.run_batch(mask, &specs, monitor, Trace::Deep);
            for (k, (_, pin, rule)) in pins.iter().enumerate() {
                let (tr, d) = (b.traces[k], b.deeps[k].samples());
                let got = (b.records[k].outcome, tr.detect_cycle, tr.divergence_cycle, d.len());
                assert_eq!((got, d.last().copied()), ((pin.0, pin.1, pin.2, pin.3), pin.4), "{rule}");
            }
        };
        use FailureMode::*;
        use Outcome::{Failure, GrayArea as Gray, MicroArchMatch as Match};
        let prepared = |k: usize| StartPoint::prepare(&warmed_workloads()[k].2, 1_600, MASK_ALL);
        // bzip2-like, baseline.
        decided(&prepared(0), 1_500, &[
            ((11_806, 50), (Failure(Locked), 257, Some(51), 21, Some((257, 4575))), "100 cycles idle"),
            ((1_216, 85), (Failure(Ctrl), 172, Some(86), 13, Some((172, 2303))), "control flow"),
            ((510, 74), (Failure(Regfile), 161, Some(75), 5, Some((161, 26))), "register write"),
            ((16_277, 53), (Failure(Mem), 57, Some(54), 3, Some((56, 16))), "store"),
            ((39, 0), (Failure(Itlb), 87, Some(1), 10, Some((62, 2175))), "exception mode"),
            ((4_510, 3), (Failure(Regfile), 97, Some(4), 5, Some((97, 4351))), "check gate"),
            ((745, 11), (Match, 104, Some(12), 3, Some((104, 0))), "sparse checks"),
            ((5_452, 51), (Match, 52, None, 0, None), "heal cycle"),
            ((1_451, 22), (Match, 184, Some(23), 2, Some((184, 0))), "healed site"),
            ((3_804, 92), (Match, 224, Some(93), 18, Some((224, 0))), "deep cadence"),
            ((41_223, 75), (Gray, 1575, Some(76), 1, Some((76, 64))), "closing mask"),
        ]);
        // bzip2-like and crafty-like, protected: the watchdog's flushes.
        decided(&prepared(1), 1_500, &[
            ((38_823, 27), (Failure(Locked), 416, Some(28), 12, Some((416, 4607))), "3 flushes"),
        ]);
        decided(&prepared(3), 1_500, &[
            ((40_068, 57), (Gray, 1557, Some(58), 9, Some((1557, 495))), "flush restarts idle count"),
        ]);
        // The golden run halts inside the window.
        decided(&halting_start_point(), 1_000, &[
            ((2_891, 0), (Failure(Ctrl), 6, Some(1), 3, Some((6, 15))), "halt before the stream ends"),
            ((11_767, 0), (Match, 78, Some(1), 1, Some((1, 2))), "golden halt"),
            ((22_566, 75), (Gray, 78, Some(76), 2, Some((78, 136))), "ran ahead"),
            ((22_538, 75), (Failure(Except), 78, Some(76), 1, Some((76, 8))), "read at the halt"),
        ]);
        // mcf-like, baseline: a site overwritten after its last check.
        let sp = StartPoint::prepare(&warmed_workloads()[8].2, 201, MASK_ALL);
        decided(&sp, 101, &[((32_143, 1), (Gray, 102, Some(2), 2, Some((102, 0))), "healed mask")]);
        // A store drains while the exit code waits in its register.
        decided(&store_before_exit_start_point(), 1_000, &[
            ((45_440, 79), (Failure(Ctrl), 80, Some(80), 1, Some((80, 64))), "exit code"),
        ]);
    }

    #[test]
    fn batched_trials_match_the_naive_path() {
        // The engine must reproduce run_trial record-for-record, including
        // unsorted plans, duplicate injection cycles, and cycles at the
        // window edges.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..24u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: [40, 3, 117, 3, 0, 249, 60, 117][t as usize % 8] + (t / 8),
            })
            .collect();
        let batched = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_200);
        assert_eq!(batched.len(), specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let naive =
                sp.run_trial(InjectionMask::LatchesAndRams, spec.target, spec.inject_cycle, 1_200);
            assert_eq!(batched[i], naive, "spec {i} ({spec:?}) diverged");
        }
    }

    #[test]
    fn batched_trials_handle_a_halting_golden_run() {
        // Injection cycles past the golden halt: the walker parks on the
        // halted machine and every such trial is a µArch Match, exactly as
        // the naive path reports.
        let sp = halting_start_point();
        let (halt_step, _) = sp.halted_at.expect("short workload halts");
        let specs: Vec<TrialSpec> = (0..8u64)
            .map(|t| TrialSpec { target: 1_000 + t * 777, inject_cycle: halt_step + 20 + t })
            .collect();
        let batched = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 400);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(batched[i].outcome, Outcome::MicroArchMatch);
            let naive =
                sp.run_trial(InjectionMask::LatchesAndRams, spec.target, spec.inject_cycle, 400);
            assert_eq!(batched[i], naive, "spec {i} diverged");
        }
    }

    #[test]
    fn traced_batch_matches_untraced_records() {
        // The traced path must be pure observation: identical records, and
        // traces that are consistent with them.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..20u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let plain = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_500);
        let (traced, _) = sp.run_batch(InjectionMask::LatchesAndRams, &specs, 1_500, Trace::On);
        assert_eq!(traced.records, plain, "tracing must not change classification");
        assert_eq!(traced.traces.len(), specs.len());
        let timed = traced.advance_ns + traced.ride_ns + traced.classify_ns;
        assert!(timed > 0, "timing was captured");
        for (rec, tr) in traced.records.iter().zip(traced.traces.iter()) {
            assert!(
                tr.detect_cycle >= rec.inject_cycle,
                "detection cannot precede injection: {tr:?} vs {rec:?}"
            );
            if let Some(div) = tr.divergence_cycle {
                assert!(div > rec.inject_cycle, "divergence is observed after the flip");
                assert!(div <= tr.detect_cycle, "divergence observed at or before decision");
            }
            match rec.outcome {
                // A failure means the machine diverged; the traced path
                // must have attributed it (divergence cycle known, though
                // the unit may be None for stray state).
                Outcome::Failure(_) => assert!(
                    tr.divergence_cycle.is_some(),
                    "failure without divergence attribution: {rec:?} {tr:?}"
                ),
                Outcome::MicroArchMatch => {}
                Outcome::GrayArea => {}
            }
        }
        // The sweep is wide enough that at least one trial names a unit.
        assert!(
            traced.traces.iter().any(|t| t.diverged_unit.is_some()),
            "no trial attributed a divergence to a unit"
        );
        // Injection sites are attributed too (the machine brackets all
        // injectable state into units).
        assert!(traced.records.iter().all(|r| r.unit.is_some()));
    }

    #[test]
    fn deep_traced_batch_is_pure_observation() {
        // Deep mode fills divergence timelines without changing a byte of
        // the records or traces the plain traced path produces.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..20u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let mask = InjectionMask::LatchesAndRams;
        let (traced, _) = sp.run_batch(mask, &specs, 1_500, Trace::On);
        let (deep, _) = sp.run_batch(mask, &specs, 1_500, Trace::Deep);
        assert_eq!(deep.records, traced.records, "deep tracing must not change classification");
        assert_eq!(deep.traces, traced.traces, "deep tracing must not change attribution");
        assert!(traced.deeps.is_empty(), "plain traced path records no timelines");
        assert_eq!(deep.deeps.len(), specs.len());
        assert!(deep.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
        for (tr, d) in deep.traces.iter().zip(deep.deeps.iter()) {
            let samples = d.samples();
            // Timelines are strictly cycle-ordered and change-only.
            for w in samples.windows(2) {
                assert!(w[0].0 < w[1].0, "timeline out of order: {samples:?}");
                assert_ne!(w[0].1, w[1].1, "timeline not change-only: {samples:?}");
            }
            if let Some(&(first, mask)) = samples.first() {
                assert!(mask != 0, "a timeline opens with a diverged set");
                // A non-empty timeline means a fingerprint diverged, which
                // the trace must have attributed no later than the sample.
                let dc = tr.divergence_cycle.expect("timeline without attributed divergence");
                assert!(dc <= first, "deep sample before divergence: {tr:?} {samples:?}");
            }
        }
    }

    /// Walks one spine over the start points warmed `starts` cycles from
    /// reset (ascending) and checks every view, field by field, and the
    /// footprint the spine resolved against a standalone walk of each start
    /// point with its own plan. Returns the step of each start point's
    /// window at which the run halted.
    fn assert_spine_equals_standalone(
        name: &str,
        program: &Program,
        config: PipelineConfig,
        starts: &[u64],
        horizon: u64,
    ) -> Vec<Option<u64>> {
        use crate::pruner::{fault_sites, watch_list};
        const MASK: InjectionMask = InjectionMask::LatchesAndRams;
        const MONITOR: u64 = 700;
        // Sites are resolved on the machine the walk then steps, as a
        // campaign resolves them.
        let mut warmed = warm_pipeline(program, config, starts[0]);
        let offsets: Vec<u64> = starts.iter().map(|s| s - starts[0]).collect();
        let bits = eligible_bits(config, MASK);
        let plans: Vec<_> = (0..starts.len() as u64)
            .map(|k| {
                let specs: Vec<TrialSpec> = (0..48u64)
                    .map(|t| TrialSpec {
                        target: (t * 7_919 + k * 104_729) % bits,
                        inject_cycle: (t * 37 + k * 11) % 250,
                    })
                    .collect();
                let sites = fault_sites(&mut warmed, horizon, MASK, &specs, None);
                (specs, sites)
            })
            .collect();
        let watched: Vec<_> = plans
            .iter()
            .zip(&offsets)
            .flat_map(|((specs, sites), &o)| watch_list(sites, specs, o, horizon, MONITOR))
            .collect();
        let mut spine_fp = Footprint::new(&watched);
        let stops: Vec<(u64, &[TrialSpec])> =
            offsets.iter().zip(&plans).map(|(&o, (specs, _))| (o, &specs[..])).collect();
        let walked = walk(warmed, Stops { points: &stops, horizon, mask: MASK }, &mut spine_fp);
        assert_eq!(walked.points.len(), starts.len());
        for ((&start, view), (specs, sites)) in starts.iter().zip(&walked.points).zip(&plans) {
            let at = format!("{name}, start point at {start}");
            let own: Vec<_> = watch_list(sites, specs, 0, horizon, MONITOR).collect();
            let mut own_fp = Footprint::new(&own);
            let stops = Stops { points: &[(0, specs)], horizon, mask: MASK };
            let alone = walk(warm_pipeline(program, config, start), stops, &mut own_fp);
            let alone = &alone.points[0];
            let (a, b) = (&view.checkpoint, &alone.checkpoint);
            assert_eq!((a.cycles(), a.instret()), (b.cycles(), b.instret()), "{at}");
            assert_eq!(fingerprint_of(&mut a.clone()), fingerprint_of(&mut b.clone()), "{at}");
            // The spine holds every row the plan's walk hashed, and maybe
            // rows of its other start points' grids and windows.
            for c in 0..=horizon {
                if let Some(row) = alone.row(c) {
                    assert_eq!(view.row(c), Some(row), "{at}: row {c}");
                }
            }
            for step in 1..=horizon {
                assert_eq!(view.instret(step), alone.instret(step), "{at}: step {step}");
            }
            assert_eq!(view.records(), alone.records(), "{at}");
            assert_eq!(view.halted_at, alone.halted_at, "{at}");
            assert_eq!(view.valid_counts, alone.valid_counts, "{at}");
            assert_eq!(view.bit_count(), alone.bit_count(), "{at}");

            let o = view.offset;
            for (unit, ord, c, end) in own {
                assert_eq!(
                    spine_fp.first_access(unit, ord, o + c, o + end).map(|(s, w)| (s - o, w)),
                    own_fp.first_access(unit, ord, c, end),
                    "{at}: {unit:?} ord {ord} inject {c}"
                );
            }
        }
        walked.points.iter().map(|p| p.halted_at.map(|(h, _)| h)).collect()
    }

    #[test]
    fn spine_views_equal_standalone_start_points() {
        for w in tfsim_workloads::all() {
            let program = w.build(1);
            for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
                let name = format!("{} ({config:?})", w.name);
                // Spacing 500 puts the grids on two residues, 600 on one.
                assert_spine_equals_standalone(&name, &program, config, &[300, 800, 1_300], 1_200);
                assert_spine_equals_standalone(&name, &program, config, &[300, 900], 1_200);
            }
        }
        // A subset of a schedule's start points (a resumed campaign's).
        let program = tfsim_workloads::all()[0].build(1);
        let config = PipelineConfig::baseline();
        assert_spine_equals_standalone("subset", &program, config, &[800, 1_800], 1_200);
    }

    /// A store/load loop of `loops` iterations that halts.
    fn halt_bed(loops: u64) -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, loops);
        let top = a.here_label();
        a.stq(Reg::R7, Reg::R1, 0);
        a.ldq(Reg::R6, Reg::R1, 0);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.halt();
        tfsim_isa::Program::new("halt-bed", a).with_data(0x10_0000, vec![0u8; 64])
    }

    #[test]
    fn spine_views_equal_standalone_start_points_around_a_halt() {
        let p = halt_bed(3_000);
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let halt = warm_pipeline(&p, config, 1_000_000).cycles();
            assert!(halt > 1_000, "the program must outlast the first window ({halt})");
            // The run halts after the first window, inside the second and
            // third, and before the fourth, which opens on the halted
            // machine (its warm-up ends halted) and so halted at step 0.
            let starts = [halt - 900, halt - 300, halt - 299, halt + 50];
            let halts = assert_spine_equals_standalone("halt-bed", &p, config, &starts, 400);
            assert_eq!(halts, [None, Some(300), Some(299), Some(0)]);
            // A walk whose first start point is already halted.
            let starts = [halt + 5, halt + 505];
            let halts = assert_spine_equals_standalone("halt-bed", &p, config, &starts, 400);
            assert_eq!(halts, [Some(0), Some(0)]);
        }
    }

    /// The walk's row table holds a row for every step a planned trial's
    /// checks and closing read: its injection step, the dense window after
    /// it and the sparse grid to the horizon, each the fingerprint of a
    /// fault-free machine at that step. Random plans on one to four start
    /// points 0–199 cycles apart, so their dense windows overlap, and the
    /// run halts inside a window, between windows, before the first
    /// checkpoint or after the last horizon.
    #[test]
    fn the_row_table_holds_every_check_row_of_the_fault_free_run() {
        const HORIZON: u64 = 240;
        let p = halt_bed(2_000);
        let config = PipelineConfig::baseline();
        let halt = warm_pipeline(&p, config, 1_000_000).cycles();
        // The halt lies 700 steps after `base`, and every walk starts in
        // the first 500 and ends within 1,400.
        let base = halt.checked_sub(700).expect("the program outlasts 700 cycles");
        let warmed = warm_pipeline(&p, config, base);
        let mut cpu = warmed.clone();
        let fault_free: Vec<Row> = (0..1_400)
            .map(|k| {
                if k > 0 {
                    cpu.step();
                }
                let mut fp = Fingerprint::new();
                cpu.visit_state(&mut fp);
                (fp.value(), *fp.unit_hashes())
            })
            .collect();
        assert_eq!(fingerprint_of(&mut cpu), fault_free[1_399].0);

        let mut cfg = Config::from_env();
        cfg.cases = cfg.cases.min(24);
        let plan = vecs(ints(0..HORIZON + 1), 1..6);
        let gen = (ints(0u64..500), vecs((ints(0u64..200), plan), 1..5));
        prop::run(&cfg, "the_row_table_holds_every_check_row", &gen, |(first, points)| {
            let mut golden = warmed.clone();
            for _ in 0..*first {
                golden.step();
            }
            let mut offset = 0;
            let plans: Vec<(u64, Vec<TrialSpec>)> = points
                .iter()
                .enumerate()
                .map(|(k, (gap, cycles))| {
                    offset += if k > 0 { *gap } else { 0 };
                    let plan = cycles.iter().map(|&c| TrialSpec { target: 0, inject_cycle: c });
                    (offset, plan.collect())
                })
                .collect();
            let stops: Vec<(u64, &[TrialSpec])> = plans.iter().map(|(o, p)| (*o, &p[..])).collect();
            let stops = Stops { points: &stops, horizon: HORIZON, mask: MASK_ALL };
            let walked = walk(golden, stops, &mut Footprint::default());
            for ((o, plan), sp) in plans.iter().zip(&walked.points) {
                for c in plan.iter().map(|s| s.inject_cycle) {
                    let dense = c..=(c + DENSE).min(HORIZON);
                    let sparse = (c..=HORIZON).filter(|step| step % SPARSE == 0);
                    for step in dense.chain(sparse) {
                        let row = Some(&fault_free[(first + o + step) as usize]);
                        prop_assert_eq!(sp.row(step), row, "offset {o}, inject {c}, step {step}");
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn golden_rows_diverge_under_a_flip() {
        let sp = start_point();
        // A plan injecting at cycle 30 has the walk hash the dense rows
        // 30..=94; cycle 37 is off the sparse grid, 40 is on it.
        let plan = [TrialSpec { target: 0, inject_cycle: 30 }];
        let stops = Stops { points: &[(0, &plan)], horizon: sp.horizon, mask: MASK_ALL };
        let walked = walk(sp.checkpoint.clone(), stops, &mut Footprint::default());
        let sp = &walked.points[0];
        let mut cpu = sp.checkpoint.clone();
        let mut walked = 0;
        for k in [37u64, 40] {
            while walked < k {
                cpu.step();
                walked += 1;
            }
            let (root, units) = sp.row(k).expect("row hashed by the walk");
            // Flip a bit: the root diverges and at least one unit is named.
            let mut flipped = cpu.clone();
            let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 12_345);
            flipped.visit_state(&mut flip);
            let mut fp = Fingerprint::new();
            flipped.visit_state(&mut fp);
            assert_ne!(fp.value(), *root);
            assert_ne!(UnitId::diverged_mask(fp.unit_hashes(), units), 0);
        }
        // Off the grid and outside the dense window: no check reads it.
        assert!(sp.row(101).is_none());
        assert!(sp.row(104).is_some(), "grid rows are hashed to the horizon");
    }

    #[test]
    fn failure_mode_index_matches_table_order() {
        for (i, m) in FailureMode::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?} out of place in FailureMode::ALL");
        }
    }

    #[test]
    fn failure_mode_classification_properties() {
        assert!(FailureMode::Locked.is_termination());
        assert!(FailureMode::Except.is_termination());
        for m in [FailureMode::Regfile, FailureMode::Mem, FailureMode::Ctrl, FailureMode::Itlb, FailureMode::Dtlb] {
            assert!(!m.is_termination(), "{m:?} is SDC");
        }
        assert_eq!(FailureMode::ALL.len(), 7);
    }
}

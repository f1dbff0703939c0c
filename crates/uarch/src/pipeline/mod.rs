//! The pipeline top level: a cycle-accurate, bit-accurate model of the
//! 12-stage dynamically scheduled superscalar processor of Figure 1/2.
//!
//! One [`Pipeline::step`] call advances one clock edge. Stages are
//! evaluated in reverse order (retire first, fetch last) so that values
//! latched this cycle become visible next cycle, modeling edge-triggered
//! pipeline registers.
//!
//! ## State coverage
//!
//! Every microarchitectural storage element is reachable through the
//! [`VisitState`] implementation: injectable pipeline state (Table 1
//! categories), protection state (`ecc`/`parity`), and shadow state
//! (caches and predictors, fingerprinted but excluded from injection).
//! Main memory and the output stream are *not* part of the walk: their
//! equivalence with a golden run is implied by matching retirement streams
//! (every store and syscall is checked at retirement by the injection
//! harness), which keeps the µArch Match comparison cheap.

mod front;
mod render;
mod memphase;
mod retire;
mod squash;
mod visit;
mod wb;

#[cfg(test)]
mod tests;

use tfsim_arch::RetireRecord;
use tfsim_isa::Program;
use tfsim_mem::{PageSet, SparseMemory};
use tfsim_protect::{TimeoutAction, TimeoutCounter};

use crate::access::AccessLog;
use crate::bpred::{BranchPredictor, Btb, Ras};
use crate::caches::{MhrFile, TagCache};
use crate::config::{sizes, PipelineConfig};
use crate::exec::{fuw, schedw, FuBank, Scheduler};
use crate::queues::{flw, lqw, sqw, ExcCode, FetchQueue, Lsq, Rob, SlotPayload, SQ_BASE};
use crate::regfile::PhysRegFile;
use crate::rename::{FreeList, Rat};
use crate::storesets::StoreSets;
use tfsim_bitstate::{Category, UnitId};

/// An architecturally visible event produced by the retire stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetireEvent {
    /// An instruction committed.
    Retired(RetireRecord),
    /// The program halted (PAL halt or `exit` syscall).
    Halted {
        /// Exit code.
        code: u64,
    },
    /// An exception reached the head of the ROB; the machine stops.
    Exception(ExcCode),
}

/// What happened during one cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleReport {
    /// Retirement-stage events, oldest first.
    pub events: Vec<RetireEvent>,
    /// Number of instructions retired this cycle.
    pub retired: u32,
    /// A protection mechanism forced a pipeline flush this cycle.
    pub protective_flush: bool,
}

/// One committed instruction, recorded for the Figure 6 valid-instruction
/// analysis (only when [`Pipeline::enable_flow_log`] was called): it was in
/// flight from `fetch` up to `commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// Cycle the instruction was fetched.
    pub fetch: u64,
    /// Cycle it committed.
    pub commit: u64,
}

/// Instrumentation counters (not machine state; never visited).
///
/// These are the per-benchmark characteristics the paper uses to explain
/// masking differences: IPC, branch prediction rate, and cache hit rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Conditional/indirect branches resolved by the branch unit.
    pub branches_resolved: u64,
    /// Branches whose prediction was wrong (squash + redirect).
    pub branch_mispredicts: u64,
    /// Data-cache accesses attempted by loads.
    pub dcache_accesses: u64,
    /// Data-cache misses (MHR allocations or joins).
    pub dcache_misses: u64,
    /// Instruction-cache miss stalls.
    pub icache_misses: u64,
    /// Scheduler replays caused by load-hit misspeculation.
    pub replays: u64,
    /// Memory-order violations detected (store-set training events).
    pub violations: u64,
    /// Full pipeline flushes (exceptions and protection mechanisms).
    pub full_flushes: u64,
}

impl PipeStats {
    /// Fraction of resolved branches predicted correctly.
    pub fn branch_prediction_rate(&self) -> f64 {
        if self.branches_resolved == 0 {
            return 1.0;
        }
        1.0 - self.branch_mispredicts as f64 / self.branches_resolved as f64
    }

    /// Fraction of data-cache accesses that hit.
    pub fn dcache_hit_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            return 1.0;
        }
        1.0 - self.dcache_misses as f64 / self.dcache_accesses as f64
    }
}

/// Point-in-time structure occupancies (fractions of capacity), the raw
/// material of utilization-based vulnerability analysis (cf. Mukherjee et
/// al.'s architectural vulnerability factors, which the paper's results
/// corroborate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Occupancy {
    /// Reorder buffer occupancy.
    pub rob: f64,
    /// Scheduler occupancy.
    pub scheduler: f64,
    /// Fetch queue occupancy.
    pub fetch_queue: f64,
    /// Load queue occupancy.
    pub load_queue: f64,
    /// Store queue occupancy.
    pub store_queue: f64,
    /// Miss handling register occupancy.
    pub mhrs: f64,
    /// Fetch/decode pipe-latch occupancy.
    pub frontend: f64,
}

impl Occupancy {
    /// Capacity-weighted mean occupancy across the tracked structures.
    pub fn overall(&self) -> f64 {
        let weighted = self.rob * sizes::ROB as f64
            + self.scheduler * sizes::SCHEDULER as f64
            + self.fetch_queue * sizes::FETCH_QUEUE as f64
            + self.load_queue * sizes::LOAD_QUEUE as f64
            + self.store_queue * sizes::STORE_QUEUE as f64
            + self.mhrs * sizes::MHRS as f64
            + self.frontend * (3.0 * sizes::FETCH_WIDTH as f64 + 3.0 * sizes::DECODE_WIDTH as f64);
        let capacity = (sizes::ROB
            + sizes::SCHEDULER
            + sizes::FETCH_QUEUE
            + sizes::LOAD_QUEUE
            + sizes::STORE_QUEUE
            + sizes::MHRS
            + 3 * sizes::FETCH_WIDTH
            + 3 * sizes::DECODE_WIDTH) as f64;
        weighted / capacity
    }
}

/// The pipeline model. Clone a warmed-up pipeline to create a trial
/// checkpoint.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) config: PipelineConfig,

    // Memory system (not visited; see module docs).
    pub(crate) mem: SparseMemory,
    pub(crate) itlb: PageSet,
    pub(crate) dtlb: PageSet,
    pub(crate) output: Vec<u8>,

    // Front end.
    pub(crate) fetch_pc: u64,
    pub(crate) redirect_valid: bool,
    pub(crate) redirect_pc: u64,
    pub(crate) fstages: Vec<Vec<SlotPayload>>, // 3 stages x 8 slots
    pub(crate) fq: FetchQueue,
    pub(crate) dec1: Vec<SlotPayload>, // 4-wide
    pub(crate) dec2: Vec<SlotPayload>,
    pub(crate) ren: Vec<SlotPayload>,
    /// Word-granular access log for the front-end latches (fetch buffers
    /// and decode/rename pipe); ordinals per [`crate::queues::flw`].
    pub(crate) flatch_log: AccessLog,
    pub(crate) bpred: BranchPredictor,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) icache: TagCache,
    pub(crate) ifill_valid: bool,
    pub(crate) ifill_addr: u64,
    pub(crate) ifill_timer: u64,

    // Rename.
    pub(crate) spec_rat: Rat,
    pub(crate) arch_rat: Rat,
    pub(crate) spec_fl: FreeList,
    pub(crate) arch_fl: FreeList,

    // Out-of-order window.
    pub(crate) sched: Scheduler,
    pub(crate) rob: Rob,
    pub(crate) lsq: Lsq,
    pub(crate) fus: FuBank,
    pub(crate) regfile: PhysRegFile,
    pub(crate) spec_ready: Vec<bool>, // 80 speculative-wakeup bits
    pub(crate) dcache: TagCache,
    pub(crate) mhrs: MhrFile,
    pub(crate) storesets: StoreSets,

    // Architectural bookkeeping.
    pub(crate) arch_pc: u64, // PC of the next instruction to retire
    pub(crate) watchdog: TimeoutCounter,

    // Terminal conditions and instrumentation (not machine state).
    pub(crate) halted: Option<u64>,
    pub(crate) excepted: Option<ExcCode>,
    pub(crate) cycles: u64,
    pub(crate) instret: u64,
    pub(crate) flow_log: Option<Vec<FlowEvent>>,
    pub(crate) stats: PipeStats,
}

impl Pipeline {
    /// Creates a pipeline loaded with `program`, TLBs preloaded with the
    /// program's own sections. For injection campaigns, widen the TLBs to
    /// the pages of a fault-free run with [`Pipeline::set_tlbs`].
    pub fn new(program: &Program, config: PipelineConfig) -> Pipeline {
        let mut pages = PageSet::new();
        for s in &program.sections {
            pages.insert_range(s.addr, s.bytes.len() as u64);
        }
        let ecc = config.pointer_ecc;
        Pipeline {
            config,
            mem: SparseMemory::from_program(program),
            itlb: pages.clone(),
            dtlb: pages,
            output: Vec::new(),
            fetch_pc: program.entry,
            redirect_valid: false,
            redirect_pc: 0,
            fstages: (0..3)
                .map(|_| (0..sizes::FETCH_WIDTH).map(|_| SlotPayload::default()).collect())
                .collect(),
            fq: FetchQueue::new(),
            dec1: (0..sizes::DECODE_WIDTH).map(|_| SlotPayload::default()).collect(),
            dec2: (0..sizes::DECODE_WIDTH).map(|_| SlotPayload::default()).collect(),
            ren: (0..sizes::DECODE_WIDTH).map(|_| SlotPayload::default()).collect(),
            flatch_log: AccessLog::default(),
            bpred: BranchPredictor::new(),
            btb: Btb::new(),
            ras: Ras::new(),
            icache: TagCache::new(sizes::ICACHE_BYTES),
            ifill_valid: false,
            ifill_addr: 0,
            ifill_timer: 0,
            spec_rat: Rat::new(Category::SpecRat, ecc),
            arch_rat: Rat::new(Category::ArchRat, ecc),
            spec_fl: FreeList::new(Category::SpecFreelist, ecc),
            arch_fl: FreeList::new(Category::ArchFreelist, ecc),
            sched: Scheduler::new(),
            rob: Rob::new(),
            lsq: Lsq::new(),
            fus: FuBank::new(),
            regfile: PhysRegFile::new(config.regfile_ecc),
            spec_ready: vec![false; sizes::PHYS_REGS],
            dcache: TagCache::new(sizes::DCACHE_BYTES),
            mhrs: MhrFile::new(),
            storesets: StoreSets::new(),
            arch_pc: program.entry,
            watchdog: TimeoutCounter::with_threshold(config.timeout_threshold),
            halted: None,
            excepted: None,
            cycles: 0,
            instret: 0,
            flow_log: None,
            stats: PipeStats::default(),
        }
    }

    /// Replaces the TLB page sets (preloaded from a fault-free functional
    /// run, as the paper does).
    pub fn set_tlbs(&mut self, itlb: PageSet, dtlb: PageSet) {
        self.itlb = itlb;
        self.dtlb = dtlb;
    }

    /// Turns on [`FlowEvent`] recording from the next commit on, dropping
    /// any events not yet drained (golden runs only; it is
    /// instrumentation, not machine state).
    pub fn enable_flow_log(&mut self) {
        self.flow_log = Some(Vec::new());
    }

    /// Hands the flow events recorded since the last drain to `f`, in
    /// order, and keeps recording.
    pub fn drain_flow_events(&mut self, f: impl FnMut(FlowEvent)) {
        if let Some(log) = self.flow_log.as_mut() {
            log.drain(..).for_each(f);
        }
    }

    /// Instrumentation counters accumulated since reset.
    pub fn stats(&self) -> PipeStats {
        self.stats
    }

    /// Cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Program output so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Deterministic checksum over the memory image, comparable against
    /// [`tfsim_mem::SparseMemory::checksum`] of a functional run.
    pub fn mem_checksum(&self) -> u64 {
        self.mem.checksum()
    }

    /// Exit code if halted.
    pub fn halted(&self) -> Option<u64> {
        self.halted
    }

    /// Exception that terminated the machine, if any.
    pub fn exception(&self) -> Option<ExcCode> {
        self.excepted
    }

    /// Whether the machine can still advance.
    pub fn running(&self) -> bool {
        self.halted.is_none() && self.excepted.is_none()
    }

    /// Number of instructions currently in flight (fetch buffers, fetch
    /// queue, decode/rename pipe, and ROB).
    pub fn in_flight(&self) -> u64 {
        let stages: u64 = self
            .fstages
            .iter()
            .flatten()
            .chain(self.dec1.iter())
            .chain(self.dec2.iter())
            .chain(self.ren.iter())
            .filter(|s| s.valid)
            .count() as u64;
        stages + self.fq.len() + self.rob.len()
    }

    /// Check bits for a 7-bit pointer (zero when the protection is off).
    pub(crate) fn ptr_check(&self, v: u64) -> u64 {
        if self.config.pointer_ecc {
            tfsim_protect::ptr7_check(v)
        } else {
            0
        }
    }

    /// Repairs a pointer against its check bits (identity when off).
    pub(crate) fn ptr_repair(&self, v: u64, ecc: u64) -> u64 {
        if self.config.pointer_ecc {
            tfsim_protect::ptr7_fix(v, ecc)
        } else {
            v
        }
    }

    /// Samples the current structure occupancies.
    pub fn occupancy(&self) -> Occupancy {
        let frontend_slots = self
            .fstages
            .iter()
            .flatten()
            .chain(self.dec1.iter())
            .chain(self.dec2.iter())
            .chain(self.ren.iter())
            .filter(|s| s.valid)
            .count() as f64;
        Occupancy {
            rob: self.rob.len() as f64 / sizes::ROB as f64,
            scheduler: (sizes::SCHEDULER - self.sched.free_count()) as f64
                / sizes::SCHEDULER as f64,
            fetch_queue: self.fq.len() as f64 / sizes::FETCH_QUEUE as f64,
            load_queue: self.lsq.lq_count.min(sizes::LOAD_QUEUE as u64) as f64
                / sizes::LOAD_QUEUE as f64,
            store_queue: self.lsq.sq_count.min(sizes::STORE_QUEUE as u64) as f64
                / sizes::STORE_QUEUE as f64,
            mhrs: self.mhrs.occupancy() as f64 / sizes::MHRS as f64,
            frontend: frontend_slots
                / (3.0 * sizes::FETCH_WIDTH as f64 + 3.0 * sizes::DECODE_WIDTH as f64),
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) -> CycleReport {
        let mut report = CycleReport::default();
        if !self.running() {
            return report;
        }
        self.cycles += 1;

        self.retire_phase(&mut report);
        if !self.running() {
            return report;
        }
        self.memory_deliver_phase();
        self.writeback_phase();
        self.memory_phase();
        self.execute_phase();
        self.issue_phase();
        self.rename_phase();
        self.decode_phase();
        self.fetch_phase();
        self.regfile.tick_ecc();

        if self.config.timeout_counter
            && self.watchdog.tick(report.retired > 0) == TimeoutAction::Flush
        {
            let target = self.arch_pc;
            self.full_flush(target);
            report.protective_flush = true;
        }
        report
    }

    /// Runs until halt, exception, or `max_cycles`, collecting all events.
    pub fn run(&mut self, max_cycles: u64) -> Vec<RetireEvent> {
        let mut events = Vec::new();
        for _ in 0..max_cycles {
            if !self.running() {
                break;
            }
            events.append(&mut self.step().events);
        }
        events
    }
}

impl Pipeline {
    /// Drops any flow-event instrumentation (used when cloning a logged
    /// golden checkpoint into injection trials).
    pub fn disable_flow_log(&mut self) {
        self.flow_log = None;
    }

    /// Turns word-granular access logging on in the structures of
    /// exactly the given fingerprint units, and off everywhere else,
    /// discarding any undrained events. The loggable units are the load/
    /// store queues, physical register file and miss handling registers
    /// (the units declaring [`tfsim_bitstate::Loggability::Core`]) plus
    /// the fetch queue and front-end latches, rename maps and free lists,
    /// scheduler, ROB, and functional units (those declaring
    /// [`tfsim_bitstate::Loggability::Extended`]); other units have
    /// nothing to log. Logging is instrumentation, not machine state: it
    /// never changes execution and is not part of the visit walk. The
    /// trial engines turn it on for a private golden clone only.
    pub fn set_access_tracking(&mut self, units: impl IntoIterator<Item = UnitId>) {
        let mut on = [false; UnitId::COUNT];
        for u in units {
            on[u.index()] = true;
        }
        let on = |u: UnitId| on[u.index()];
        self.fq.log.set_enabled(on(UnitId::Front));
        self.flatch_log.set_enabled(on(UnitId::Front));
        self.spec_rat.log.set_enabled(on(UnitId::Rename));
        self.arch_rat.log.set_enabled(on(UnitId::Rename));
        self.spec_fl.log.set_enabled(on(UnitId::Rename));
        self.arch_fl.log.set_enabled(on(UnitId::Rename));
        self.sched.log.set_enabled(on(UnitId::Sched));
        self.rob.log.set_enabled(on(UnitId::Rob));
        self.lsq.log.set_enabled(on(UnitId::Lsq));
        self.fus.log.set_enabled(on(UnitId::Fus));
        self.regfile.log.set_enabled(on(UnitId::Regfile));
        self.mhrs.log.set_enabled(on(UnitId::ArchCtrl));
    }

    /// Drains every logged access since the previous drain, in program
    /// order per structure, mapping each structure-local fixed ordinal to
    /// the *visit-order* field index inside the enclosing fingerprint unit
    /// for the active configuration. `f(unit, field_ordinal, is_write)`.
    /// Entry-granular logs (fetch queue, ROB) are expanded to every visit
    /// word of the touched entry.
    pub fn drain_accesses(&mut self, mut f: impl FnMut(UnitId, u32, bool)) {
        let parity = self.config.insn_parity;
        let ptr_ecc = self.config.pointer_ecc;
        // Front: fetch-queue slots sit after the 6 scalar fetch-control
        // latches and the 3x8 fetch-buffer slots in the unit's walk.
        let sw = 8 + parity as u32;
        let fq_base = 6 + 3 * sizes::FETCH_WIDTH as u32 * sw;
        self.fq.log.drain(|entry, w| {
            let base = fq_base + entry * sw;
            for k in 0..sw {
                f(UnitId::Front, base + k, w);
            }
        });
        // Front-end latches: fixed 9-word slots (the parity word drops out
        // when instruction parity is off). Fetch-buffer slots sit right
        // after the 6 fetch-control scalars; the decode/rename pipe sits
        // after the fetch queue and its 3 ring-pointer latches.
        let dec_base = fq_base + sizes::FETCH_QUEUE as u32 * sw + 3;
        self.flatch_log.drain(|ord, w| {
            let (slot, k) = (ord / flw::WORDS, ord % flw::WORDS);
            if k == flw::PARITY && !parity {
                return;
            }
            let k = if k > flw::PARITY && !parity { k - 1 } else { k };
            let base =
                if slot < flw::DEC1 { 6 + slot * sw } else { dec_base + (slot - flw::DEC1) * sw };
            f(UnitId::Front, base + k, w);
        });
        // Rename: four blocks in visit order. RAT and free-list local
        // ordinals coincide with their block's internal visit order (the
        // queue-control latches at the end of each free-list block are
        // never logged).
        let rat_words: u32 = if ptr_ecc { 64 } else { 32 };
        let fl_words: u32 = if ptr_ecc { 96 + 3 } else { 48 + 3 };
        self.spec_rat.log.drain(|ord, w| f(UnitId::Rename, ord, w));
        self.arch_rat.log.drain(|ord, w| f(UnitId::Rename, rat_words + ord, w));
        self.spec_fl.log.drain(|ord, w| f(UnitId::Rename, 2 * rat_words + ord, w));
        self.arch_fl
            .log
            .drain(|ord, w| f(UnitId::Rename, 2 * rat_words + fl_words + ord, w));
        // Sched: fixed 23-word numbering; without pointer ECC the last
        // four (ECC) words are absent from the walk — drop their events
        // (they sit at the end of the entry, so no gap closes).
        let sched_vw = if ptr_ecc { schedw::WORDS } else { schedw::WORDS - 4 };
        self.sched.log.drain(|ord, w| {
            let (entry, k) = (ord / schedw::WORDS, ord % schedw::WORDS);
            if k < sched_vw {
                f(UnitId::Sched, entry * sched_vw + k, w);
            }
        });
        // Rob: entry-granular, expanded to the entry's visit words.
        let rob_vw = 16 + parity as u32 + if ptr_ecc { 2 } else { 0 };
        self.rob.log.drain(|entry, w| {
            let base = entry * rob_vw;
            for k in 0..rob_vw {
                f(UnitId::Rob, base + k, w);
            }
        });
        // Functional units: fixed 28-word slots; the four pointer-ECC
        // words at the end drop out when the protection is off.
        let fu_vw = if ptr_ecc { fuw::WORDS } else { fuw::WORDS - 4 };
        self.fus.log.drain(|ord, w| {
            let (slot, k) = (ord / fuw::WORDS, ord % fuw::WORDS);
            if k < fu_vw {
                f(UnitId::Fus, slot * fu_vw + k, w);
            }
        });
        // LSQ: without pointer ECC the per-entry `dst_ecc` field is absent
        // from the visit walk: drop its events and close the gap.
        let lq_words = if ptr_ecc { lqw::WORDS } else { lqw::WORDS - 1 };
        let sq_visit_base = sizes::LOAD_QUEUE as u32 * lq_words;
        self.lsq.log.drain(|ord, w| {
            if ord < SQ_BASE {
                let entry = ord / lqw::WORDS;
                let k = ord % lqw::WORDS;
                if !ptr_ecc && k == lqw::DST_ECC {
                    return;
                }
                let k = if !ptr_ecc && k > lqw::DST_ECC { k - 1 } else { k };
                f(UnitId::Lsq, entry * lq_words + k, w);
            } else {
                f(UnitId::Lsq, sq_visit_base + (ord - SQ_BASE), w);
            }
        });
        // Regfile local ordinals coincide with the unit's visit order for
        // every configuration (the ECC fields come after and are never
        // logged).
        self.regfile.log.drain(|ord, w| f(UnitId::Regfile, ord, w));
        // ArchCtrl visit order: 80 spec_ready bools, then the MHR fields.
        let mhr_base = sizes::PHYS_REGS as u32;
        self.mhrs.log.drain(|ord, w| f(UnitId::ArchCtrl, mhr_base + ord, w));
    }

    /// Whether a `(unit, visit-order field ordinal)` pair lies inside the
    /// range covered by the access log (the word set `drain_accesses` can
    /// report). Queue-control latches (ring pointers), the fetch-control
    /// scalars, register-file ECC syndromes and the ArchCtrl latches
    /// outside the MHRs stay untracked. Faults in untracked words cannot
    /// be reasoned about from a golden access footprint and must take a
    /// scalar trial path.
    pub fn access_tracked(&self, unit: UnitId, ord: u32) -> bool {
        let parity = self.config.insn_parity;
        let ptr_ecc = self.config.pointer_ecc;
        match unit {
            UnitId::Front => {
                let sw = 8 + parity as u32;
                let fq_end = 6 + (3 * sizes::FETCH_WIDTH + sizes::FETCH_QUEUE) as u32 * sw;
                let dec_base = fq_end + 3;
                let dec_end = dec_base + 3 * sizes::DECODE_WIDTH as u32 * sw;
                (6..fq_end).contains(&ord) || (dec_base..dec_end).contains(&ord)
            }
            UnitId::Fus => {
                let vw = if ptr_ecc { fuw::WORDS } else { fuw::WORDS - 4 };
                ord < FuBank::SLOTS as u32 * vw
            }
            UnitId::Rename => {
                let rat_words: u32 = if ptr_ecc { 64 } else { 32 };
                let fl_slots: u32 = if ptr_ecc { 96 } else { 48 };
                let fl_words = fl_slots + 3;
                if ord < 2 * rat_words {
                    true
                } else {
                    let off = (ord - 2 * rat_words) % fl_words;
                    ord < 2 * rat_words + 2 * fl_words && off < fl_slots
                }
            }
            UnitId::Sched => {
                let vw = if ptr_ecc { schedw::WORDS } else { schedw::WORDS - 4 };
                ord < sizes::SCHEDULER as u32 * vw
            }
            UnitId::Rob => {
                let vw = 16 + parity as u32 + if ptr_ecc { 2 } else { 0 };
                ord < sizes::ROB as u32 * vw
            }
            UnitId::Lsq => {
                let lq_words = if ptr_ecc { lqw::WORDS } else { lqw::WORDS - 1 };
                ord < sizes::LOAD_QUEUE as u32 * lq_words
                    + sizes::STORE_QUEUE as u32 * sqw::WORDS
            }
            UnitId::Regfile => ord < 3 * sizes::PHYS_REGS as u32,
            UnitId::ArchCtrl => {
                let mhr_base = sizes::PHYS_REGS as u32;
                (mhr_base..mhr_base + sizes::MHRS as u32 * 3).contains(&ord)
            }
            _ => false,
        }
    }

    /// Checks the rename-state partition invariant for an *idle* machine
    /// (empty ROB): every physical register appears exactly once across
    /// the architectural RAT image and the architectural free list, and
    /// the speculative copies agree with the architectural ones.
    ///
    /// Holds for every fault-free execution; fault injection may break it
    /// (that is the point of the experiments), so this is a test and
    /// debugging aid, not a runtime assertion.
    pub fn rename_state_consistent(&mut self) -> bool {
        if !self.rob.is_empty() {
            return true; // only meaningful when idle
        }
        let mut seen = [0u32; sizes::PHYS_REGS];
        for areg in 0..sizes::ARCH_REGS as u64 {
            let spec = self.spec_rat.read(areg);
            let arch = self.arch_rat.read(areg);
            if spec != arch {
                return false;
            }
            match seen.get_mut(arch as usize) {
                Some(slot) => *slot += 1,
                None => return false,
            }
        }
        // Drain a clone of the arch free list.
        let mut fl = self.arch_fl.clone();
        if fl.len() != sizes::FREELIST as u64 {
            return false;
        }
        while let Some(p) = fl.pop() {
            match seen.get_mut(p as usize) {
                Some(slot) => *slot += 1,
                None => return false,
            }
        }
        seen.iter().all(|&c| c == 1)
    }

    /// Enumerates violated structural invariants: ring-pointer/occupancy
    /// consistency for every circular queue and pointer-range checks for
    /// ROB and scheduler entries. Returns one description per violation
    /// (empty means the machine state is structurally sound).
    ///
    /// Every invariant here holds across fault-free execution; fault
    /// injection legitimately breaks them (that is the experiment), and the
    /// model gives each violation a defined behaviour rather than a panic —
    /// so, like [`Pipeline::rename_state_consistent`], this is a test and
    /// debugging aid that lets tests enumerate which corruptions a trial
    /// reached, not a runtime assertion.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut ring = |name: &str, head: u64, tail: u64, count: u64, cap: u64| {
            if head >= cap {
                out.push(format!("{name}: head {head} out of range (cap {cap})"));
            }
            if tail >= cap {
                out.push(format!("{name}: tail {tail} out of range (cap {cap})"));
            }
            if count > cap {
                out.push(format!("{name}: count {count} exceeds capacity {cap}"));
            } else if count < cap && head < cap && tail < cap {
                let implied = (tail + cap - head) % cap;
                if count != implied {
                    out.push(format!(
                        "{name}: count {count} disagrees with head/tail distance {implied}"
                    ));
                }
            } else if count == cap && head < cap && tail < cap && head != tail {
                out.push(format!("{name}: full queue with head {head} != tail {tail}"));
            }
        };
        ring("fetch-queue", self.fq.head, self.fq.tail, self.fq.count, sizes::FETCH_QUEUE as u64);
        ring("rob", self.rob.head, self.rob.tail, self.rob.count, sizes::ROB as u64);
        ring(
            "load-queue",
            self.lsq.lq_head,
            self.lsq.lq_tail,
            self.lsq.lq_count,
            sizes::LOAD_QUEUE as u64,
        );
        ring(
            "store-queue",
            self.lsq.sq_head,
            self.lsq.sq_tail,
            self.lsq.sq_count,
            sizes::STORE_QUEUE as u64,
        );
        let (h, t, c) = self.spec_fl.ring();
        ring("spec-freelist", h, t, c, sizes::FREELIST as u64);
        let (h, t, c) = self.arch_fl.ring();
        ring("arch-freelist", h, t, c, sizes::FREELIST as u64);

        let pregs = sizes::PHYS_REGS as u64;
        for i in 0..sizes::ROB as u64 {
            let e = self.rob.peek(i);
            if e.has_dst {
                if e.dst_preg >= pregs {
                    out.push(format!("rob[{i}]: dst preg {} out of range", e.dst_preg));
                }
                if e.old_preg >= pregs {
                    out.push(format!("rob[{i}]: old preg {} out of range", e.old_preg));
                }
            }
        }
        for i in 0..sizes::SCHEDULER {
            let e = self.sched.peek(i);
            if !e.valid {
                continue;
            }
            if e.rob >= sizes::ROB as u64 {
                out.push(format!("sched[{i}]: rob tag {} out of range", e.rob));
            }
            if e.has_dst && e.dst_preg >= pregs {
                out.push(format!("sched[{i}]: dst preg {} out of range", e.dst_preg));
            }
            for (s, &p) in e.srcs.iter().enumerate() {
                if e.src_needed[s] && p >= pregs {
                    out.push(format!("sched[{i}]: src{s} preg {p} out of range"));
                }
            }
        }
        out
    }
}

//! Section-5 architectural fault injection (the paper's Figure 11).
//!
//! Faults that escape the microarchitecture appear to software as corrupted
//! architectural state. The paper models them with six fault models applied
//! to one randomly chosen dynamic instruction in a functional simulation,
//! then classifies each trial as *Exception*, *State OK*, *Output OK*, or
//! *Output Bad*.
//!
//! A trial is *State OK* when the architectural state (registers, PC,
//! memory) completely matches the fault-free execution just before a system
//! call — the only form of external communication — meaning the fault was
//! masked by the software layer before anything escaped. *Output OK* is the
//! weaker condition that the program's user-visible output still matched.
//!
//! [`run_trial`] runs one trial from reset and is the reference the tests
//! hold [`run_campaign`] to. `run_campaign` runs the same trials on a
//! golden snapshot ladder: it draws every trial up front, sorts them by
//! injection point, advances one fault-free walker through the program
//! once, and starts each trial from a clone of the walker. A golden shadow
//! stepped in lockstep for the first 256 instructions ends a trial
//! early once it has exactly reconverged with the fault-free run, with the
//! outcome the full run would reach at its next system call.
//!
//! Trials, shadows and the walker all run from the decoded image of the
//! program's code that `FuncSim::new` builds and its clones share: a step
//! and the syscall test before it ([`FuncSim::next_is_callsys`]) each read
//! one table entry in place of a memory read, and the step skips the
//! decode.
//!
//! ```
//! use tfsim_arch::swinject::{golden_ref, run_campaign, FaultModel};
//! use tfsim_isa::{Asm, Program, Reg};
//!
//! let mut a = Asm::new(0x1_0000);
//! a.li(Reg::R0, 1);
//! a.li(Reg::R16, 0);
//! a.callsys();
//! let p = Program::new("t", a);
//! let golden = golden_ref(&p, 10_000);
//! let tally = run_campaign(&p, &golden, FaultModel::ResultBit64, 20, 42);
//! assert_eq!(tally.total(), 20);
//! ```

use tfsim_check::Rng;
use tfsim_isa::{decode, Program};

use crate::sim::{ArchFault, ArchState, FuncSim, StepEvent};

/// Instructions after injection during which [`run_campaign`] steps a
/// golden shadow beside each trial, looking for exact reconvergence.
///
/// Trials that reconverge at all almost always do so within a few dozen
/// instructions of the fault, so a longer window only adds shadow steps to
/// trials that never reconverge.
const LOCKSTEP_WINDOW: u64 = 256;

/// The six architectural fault models of Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Single bit flip in the lower 32 bits of a register-write result.
    ResultBit32,
    /// Single bit flip anywhere in the 64-bit register-write result.
    ResultBit64,
    /// Replace a register-write result with 64 random bits.
    ResultRandom,
    /// Single bit flip in a dynamic instruction word.
    InsnBit,
    /// Replace a dynamic instruction with a no-op.
    Nop,
    /// Force a conditional branch to the wrong direction.
    BranchFlip,
}

impl FaultModel {
    /// All six models, in the paper's presentation order.
    pub const ALL: [FaultModel; 6] = [
        FaultModel::ResultBit32,
        FaultModel::ResultBit64,
        FaultModel::ResultRandom,
        FaultModel::InsnBit,
        FaultModel::Nop,
        FaultModel::BranchFlip,
    ];

    /// Short label used in reports (matches Figure 11's x-axis).
    pub fn label(self) -> &'static str {
        match self {
            FaultModel::ResultBit32 => "reg-bit-32",
            FaultModel::ResultBit64 => "reg-bit-64",
            FaultModel::ResultRandom => "reg-random",
            FaultModel::InsnBit => "insn-bit",
            FaultModel::Nop => "insn-nop",
            FaultModel::BranchFlip => "branch-flip",
        }
    }
}

/// Outcome of one architectural injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwOutcome {
    /// The injected program raised an exception (a "noisy" failure).
    Exception,
    /// Architectural state fully reconverged with the fault-free run before
    /// any external communication.
    StateOk {
        /// Whether the control-flow path temporarily diverged before the
        /// fault was masked (the paper reports 10–20% of *State OK* trials
        /// show this).
        control_diverged: bool,
    },
    /// State never reconverged, but the user-visible output (and exit code)
    /// matched the reference.
    OutputOk,
    /// The program produced wrong output, hung, or never terminated.
    OutputBad,
}

/// Architectural state snapshot at a syscall boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    state: ArchState,
    mem_checksum: u64,
}

/// Reference data from the fault-free execution, reused by every trial.
#[derive(Debug, Clone)]
pub struct GoldenRef {
    /// PC of every dynamic instruction, in order.
    pc_trace: Vec<u64>,
    /// Dynamic indices of instructions that write a register.
    dst_writers: Vec<u64>,
    /// Dynamic indices of conditional branches.
    cond_branches: Vec<u64>,
    /// State snapshots taken immediately before each syscall.
    snapshots: Vec<Snapshot>,
    /// Complete program output.
    output: Vec<u8>,
    /// Exit code of the reference run.
    exit_code: Option<u64>,
    /// Dynamic instruction count of the reference run.
    retired: u64,
}

impl GoldenRef {
    /// Dynamic instruction count of the fault-free run.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The fault-free program output.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The fault-free exit code (None if the run hit the budget).
    pub fn exit_code(&self) -> Option<u64> {
        self.exit_code
    }
}

/// Runs the fault-free execution of `program` and captures everything the
/// trial classifier needs.
///
/// # Panics
///
/// Panics if the program does not terminate within `max_insns` (workloads
/// used for the Section-5 experiments must run to completion).
pub fn golden_ref(program: &Program, max_insns: u64) -> GoldenRef {
    let mut sim = FuncSim::new(program);
    let mut pc_trace = Vec::new();
    let mut dst_writers = Vec::new();
    let mut cond_branches = Vec::new();
    let mut snapshots = Vec::new();
    loop {
        assert!(
            (pc_trace.len() as u64) < max_insns,
            "golden run of {} exceeded {} instructions",
            program.name,
            max_insns
        );
        // Snapshot before executing a syscall.
        if sim.next_is_callsys() {
            snapshots.push(Snapshot {
                state: sim.state.clone(),
                mem_checksum: sim.mem().checksum(),
            });
        }
        match sim.step() {
            StepEvent::Retired(r) => {
                pc_trace.push(r.pc);
                let insn = decode(r.raw);
                if r.dst.is_some() {
                    dst_writers.push(r.seq);
                }
                if insn.is_conditional_branch() {
                    cond_branches.push(r.seq);
                }
            }
            StepEvent::Halted { code } => {
                return GoldenRef {
                    retired: pc_trace.len() as u64,
                    pc_trace,
                    dst_writers,
                    cond_branches,
                    snapshots,
                    output: sim.output().to_vec(),
                    exit_code: Some(code),
                };
            }
            StepEvent::Exception(e) => {
                panic!("golden run of {} raised {e}", program.name);
            }
        }
    }
}

/// Draws one trial's injection point and fault, in the order every trial
/// consumes `rng`: the dynamic instruction first, then the model's bits.
fn draw(golden: &GoldenRef, model: FaultModel, rng: &mut Rng) -> (u64, ArchFault) {
    // Choose the dynamic instruction to corrupt, uniform over the
    // instructions the model can apply to.
    let target_pool: &[u64] = match model {
        FaultModel::ResultBit32 | FaultModel::ResultBit64 | FaultModel::ResultRandom => {
            &golden.dst_writers
        }
        FaultModel::BranchFlip => &golden.cond_branches,
        FaultModel::InsnBit | FaultModel::Nop => &[],
    };
    let k = if target_pool.is_empty() {
        rng.gen_range(0..golden.retired.max(1))
    } else {
        target_pool[rng.gen_range(0..target_pool.len())]
    };
    let fault = match model {
        FaultModel::ResultBit32 => ArchFault::FlipResultBit32 { bit: rng.gen_range(0..32) },
        FaultModel::ResultBit64 => ArchFault::FlipResultBit64 { bit: rng.gen_range(0..64) },
        FaultModel::ResultRandom => ArchFault::RandomResult { value: rng.next_u64() },
        FaultModel::InsnBit => ArchFault::FlipInsnBit { bit: rng.gen_range(0..32) },
        FaultModel::Nop => ArchFault::MakeNop,
        FaultModel::BranchFlip => ArchFault::FlipBranch,
    };
    (k, fault)
}

/// Runs a single architectural injection trial from reset.
///
/// `rng` supplies the dynamic-instruction choice and the model's random
/// bits. The trial runs the injected program for up to twice the reference
/// instruction count (plus slack) before declaring a hang. This is the
/// reference implementation [`run_campaign`] is tested against.
pub fn run_trial(
    program: &Program,
    golden: &GoldenRef,
    model: FaultModel,
    rng: &mut Rng,
) -> SwOutcome {
    let (k, fault) = draw(golden, model, rng);
    run_from(&mut FuncSim::new(program), None, golden, k, fault)
}

/// Runs a trial from `sim`, a fault-free run of the program that has
/// retired at most `k` instructions, injecting `fault` at instruction `k`.
///
/// With a `shadow` (a copy of `sim` taken at instruction `k`), the shadow
/// steps beside the trial as the fault-free run for `LOCKSTEP_WINDOW`
/// instructions. Once the fault is consumed, a trial whose pc, registers,
/// syscall index and memory equal the shadow's at the same instruction
/// count, with a golden syscall snapshot still ahead, *is* the golden run
/// from then on: it would pass the state check at that next syscall, so
/// it returns State OK at once. Memory is compared only when everything
/// else matches, and again only after a step in which either side stored.
fn run_from(
    sim: &mut FuncSim,
    mut shadow: Option<FuncSim>,
    golden: &GoldenRef,
    k: u64,
    fault: ArchFault,
) -> SwOutcome {
    let budget = golden.retired * 2 + 10_000;
    let mut executed = sim.instret();
    let mut syscall_index = sim.syscall_count() as usize;
    let mut control_diverged = false;
    // Whether the trial's memory equals the shadow's; `None` until it is
    // compared after a store. Both start as copies of one run.
    let mut mem_equal = Some(true);

    loop {
        if executed >= budget {
            return SwOutcome::OutputBad; // hang / runaway
        }
        if executed == k {
            sim.inject(fault);
        }
        let at_syscall = sim.next_is_callsys();
        // Check for architectural reconvergence, but only once the fault
        // has actually been applied.
        if executed > k && !sim.fault_pending() {
            if at_syscall {
                if let Some(snap) = golden.snapshots.get(syscall_index) {
                    if snap.state == sim.state && snap.mem_checksum == sim.mem().checksum() {
                        return SwOutcome::StateOk { control_diverged };
                    }
                }
            }
            if let Some(g) = &shadow {
                if syscall_index < golden.snapshots.len()
                    && syscall_index as u64 == g.syscall_count()
                    && sim.state == g.state
                    && *mem_equal.get_or_insert_with(|| sim.mem() == g.mem())
                {
                    return SwOutcome::StateOk { control_diverged };
                }
            }
        }
        if executed >= k + LOCKSTEP_WINDOW {
            shadow = None;
        }
        if at_syscall {
            syscall_index += 1;
        }
        let stored = match sim.step() {
            StepEvent::Retired(r) => {
                if executed >= k {
                    match golden.pc_trace.get(executed as usize) {
                        Some(&gpc) if gpc == r.pc => {}
                        _ => control_diverged = true,
                    }
                }
                executed += 1;
                r.store.is_some()
            }
            StepEvent::Halted { code } => {
                let output_ok =
                    sim.output() == golden.output() && Some(code) == golden.exit_code;
                return if output_ok { SwOutcome::OutputOk } else { SwOutcome::OutputBad };
            }
            StepEvent::Exception(_) => return SwOutcome::Exception,
        };
        if let Some(g) = &mut shadow {
            match g.step() {
                StepEvent::Retired(r) => {
                    if stored || r.store.is_some() {
                        mem_equal = None;
                    }
                }
                // The fault-free run has ended: no snapshot lies ahead.
                _ => shadow = None,
            }
        }
    }
}

/// Aggregated results of an architectural injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwTally {
    /// Trials ending in an exception.
    pub exception: u64,
    /// Trials whose architectural state fully reconverged.
    pub state_ok: u64,
    /// `state_ok` trials whose control flow temporarily diverged.
    pub state_ok_diverged: u64,
    /// Trials with matching output but divergent state.
    pub output_ok: u64,
    /// Trials with corrupted user-visible output.
    pub output_bad: u64,
}

impl SwTally {
    /// Total number of trials.
    pub fn total(&self) -> u64 {
        self.exception + self.state_ok + self.output_ok + self.output_bad
    }

    /// Adds one outcome to the tally.
    pub fn record(&mut self, outcome: SwOutcome) {
        match outcome {
            SwOutcome::Exception => self.exception += 1,
            SwOutcome::StateOk { control_diverged } => {
                self.state_ok += 1;
                if control_diverged {
                    self.state_ok_diverged += 1;
                }
            }
            SwOutcome::OutputOk => self.output_ok += 1,
            SwOutcome::OutputBad => self.output_bad += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &SwTally) {
        self.exception += other.exception;
        self.state_ok += other.state_ok;
        self.state_ok_diverged += other.state_ok_diverged;
        self.output_ok += other.output_ok;
        self.output_bad += other.output_bad;
    }
}

/// Runs `trials` injection trials of `model` against `program`.
///
/// The tally equals that of `trials` calls to [`run_trial`] on one `rng`
/// seeded from `seed` and the model, but the fault-free prefix of the
/// program runs once (see the module documentation).
pub fn run_campaign(
    program: &Program,
    golden: &GoldenRef,
    model: FaultModel,
    trials: u64,
    seed: u64,
) -> SwTally {
    let mut rng = Rng::from_seed_stream(seed, model as u64);
    let draws = (0..trials).map(|_| draw(golden, model, &mut rng)).collect();
    ladder(program, golden, draws).0
}

/// Runs one trial per `(k, fault)` draw on the snapshot ladder. Returns
/// the tally, how many instructions the trials retired, and how many the
/// walker retired (the shadows' are in neither count).
fn ladder(
    program: &Program,
    golden: &GoldenRef,
    mut draws: Vec<(u64, ArchFault)>,
) -> (SwTally, u64, u64) {
    draws.sort_by_key(|&(k, _)| k);
    let mut walker = FuncSim::new(program);
    let mut tally = SwTally::default();
    let mut stepped = 0;
    for (k, fault) in draws {
        while walker.instret() < k {
            let event = walker.step();
            assert!(
                matches!(event, StepEvent::Retired(_)),
                "fault-free run of {} stopped at instruction {}: {event:?}",
                program.name,
                walker.instret()
            );
        }
        let mut sim = walker.clone();
        tally.record(run_from(&mut sim, Some(walker.clone()), golden, k, fault));
        stepped += sim.instret() - k;
    }
    (tally, stepped, walker.instret())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CALLSYS_WORD;
    use tfsim_isa::{syscall, Asm, Reg};

    /// A program with dead values: computes into R9 but never uses it, then
    /// writes a constant and exits. Register-result faults on dead writes
    /// must be masked (State OK).
    fn dead_value_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R9, 1234); // dead
        a.li(Reg::R9, 0); // overwritten
        a.li(Reg::R1, 5);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        a.li(Reg::V0, syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        Program::new("dead", a)
    }

    #[test]
    fn golden_ref_captures_structure() {
        let p = dead_value_program();
        let g = golden_ref(&p, 1000);
        assert!(g.retired() > 5);
        assert_eq!(g.exit_code(), Some(0));
        assert!(!g.dst_writers.is_empty());
        assert_eq!(g.snapshots.len(), 1); // one syscall: exit
    }

    #[test]
    fn campaign_is_deterministic() {
        let p = dead_value_program();
        let g = golden_ref(&p, 1000);
        let a = run_campaign(&p, &g, FaultModel::ResultBit64, 50, 7);
        let b = run_campaign(&p, &g, FaultModel::ResultBit64, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.total(), 50);
    }

    #[test]
    fn dead_value_faults_are_often_masked() {
        let p = dead_value_program();
        let g = golden_ref(&p, 1000);
        let tally = run_campaign(&p, &g, FaultModel::ResultBit64, 200, 11);
        // The two dead `li r9` sequences absorb a sizeable share of hits.
        assert!(tally.state_ok > 0, "expected some masked faults: {tally:?}");
    }

    #[test]
    fn live_store_value_faults_corrupt_output() {
        // Store R1 to memory then WRITE that memory as output: a fault on
        // the R1-producing write that survives to the output is Output Bad.
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x41);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        a.li(Reg::V0, syscall::WRITE);
        a.li(Reg::A0, 1);
        a.li(Reg::A1, 0x2_0000);
        a.li(Reg::A2, 1);
        a.callsys();
        a.li(Reg::V0, syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        let p = Program::new("live", a);
        let g = golden_ref(&p, 1000);
        let tally = run_campaign(&p, &g, FaultModel::ResultRandom, 300, 3);
        assert!(tally.output_bad > 0, "expected some corrupted outputs: {tally:?}");
        assert_eq!(tally.total(), 300);
    }

    #[test]
    fn branch_flip_diverges_control() {
        // Loop bound 4: flipping the back-edge branch changes iteration
        // count, normally corrupting the sum that is the exit code.
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 4);
        a.li(Reg::R3, 0);
        let top = a.here_label();
        a.addq(Reg::R3, Reg::R1, Reg::R3);
        a.subq_i(Reg::R1, 1, Reg::R1);
        a.bne(Reg::R1, top);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R3, Reg::A0);
        a.callsys();
        let p = Program::new("loop", a);
        let g = golden_ref(&p, 1000);
        let tally = run_campaign(&p, &g, FaultModel::BranchFlip, 100, 5);
        assert!(
            tally.output_bad + tally.exception > 0,
            "branch flips should usually damage this program: {tally:?}"
        );
    }

    #[test]
    fn nop_model_masks_dead_instructions() {
        let p = dead_value_program();
        let g = golden_ref(&p, 1000);
        let tally = run_campaign(&p, &g, FaultModel::Nop, 200, 13);
        assert!(tally.state_ok > 0, "{tally:?}");
    }

    #[test]
    fn tally_merge() {
        let mut a = SwTally { exception: 1, state_ok: 2, state_ok_diverged: 1, output_ok: 3, output_bad: 4 };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.state_ok_diverged, 2);
    }

    /// Emits `li` of `values` into R9 (never read), then a loop of `iters`
    /// iterations summing into R3. The loop counts up to a bound, so a
    /// corrupted counter seldom hangs the program.
    fn dead_then_loop(a: &mut Asm, values: &[u64], iters: u8) {
        for &v in values {
            a.li(Reg::R9, v);
        }
        a.li(Reg::R3, 0);
        a.li(Reg::R4, 0);
        let top = a.here_label();
        a.addq(Reg::R3, Reg::R4, Reg::R3);
        a.addq_i(Reg::R4, 1, Reg::R4);
        a.cmpult_i(Reg::R4, iters, Reg::R5);
        a.bne(Reg::R5, top);
    }

    /// Emits `write(1, buf, len)`.
    fn write(a: &mut Asm, buf: u64, len: u64) {
        a.li(Reg::V0, syscall::WRITE);
        a.li(Reg::A0, 1);
        a.li(Reg::A1, buf);
        a.li(Reg::A2, len);
        a.callsys();
    }

    /// Emits `exit(R3 & 0xff)`.
    fn exit_with_r3(a: &mut Asm) {
        a.li(Reg::V0, syscall::EXIT);
        a.and_i(Reg::R3, 0xff, Reg::A0);
        a.callsys();
    }

    /// A WRITE between two stretches of work, then exit: two golden
    /// snapshots, with trials on both sides of the WRITE.
    fn write_in_middle_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        dead_then_loop(&mut a, &[0x1234_5678, 7], 4);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R3, Reg::R2, 0);
        write(&mut a, 0x2_0000, 8);
        dead_then_loop(&mut a, &[99], 3);
        a.stq(Reg::R3, Reg::R2, 8);
        exit_with_r3(&mut a);
        Program::new("write-middle", a)
    }

    /// Ends in `CALL_PAL halt` after its only WRITE: past the WRITE no
    /// golden snapshot lies ahead, so a masked fault there is Output OK.
    fn halt_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x42);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        write(&mut a, 0x2_0000, 1);
        dead_then_loop(&mut a, &[1234, 0], 5);
        a.halt();
        Program::new("halt", a)
    }

    /// A taken branch that, flipped, runs one extra harmless instruction:
    /// the trial's state equals the golden state one instruction late, so
    /// it reconverges only at the exit syscall.
    fn branch_skip_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 1);
        let skip = a.label();
        a.bne(Reg::R1, skip);
        a.mov(Reg::R31, Reg::R9); // R9 is already zero
        a.bind(skip);
        dead_then_loop(&mut a, &[], 50);
        a.li(Reg::R3, 0);
        exit_with_r3(&mut a);
        Program::new("branch-skip", a)
    }

    /// Stores zero through R2 and then overwrites R2. A fault that moves
    /// the store onto a fresh page leaves the registers as in the golden
    /// run but the page sets different.
    fn fresh_page_store_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        a.li(Reg::R2, 0);
        dead_then_loop(&mut a, &[], 20);
        a.li(Reg::R3, 0);
        exit_with_r3(&mut a);
        Program::new("fresh-page", a).with_data(0x2_0000, vec![0; 8])
    }

    /// A branch that, flipped, takes a path of the same instructions as
    /// its WRITE path with a nop for the callsys: the trial rejoins the
    /// golden run at the same count with golden registers and memory but
    /// one syscall behind, so its output ends up short.
    fn skipped_write_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x41);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        let (alt, join) = (a.label(), a.label());
        a.beq(Reg::R1, alt); // not taken
        write(&mut a, 0x2_0000, 1);
        a.br(join);
        a.bind(alt);
        a.li(Reg::V0, syscall::WRITE);
        a.li(Reg::A0, 1);
        a.li(Reg::A1, 0x2_0000);
        a.li(Reg::A2, 1);
        a.mov(Reg::R31, Reg::R31); // nop in place of the callsys
        a.br(join);
        a.bind(join);
        dead_then_loop(&mut a, &[], 3);
        a.li(Reg::R3, 0);
        exit_with_r3(&mut a);
        Program::new("skipped-write", a)
    }

    fn synthetic_programs() -> Vec<Program> {
        vec![
            dead_value_program(),
            write_in_middle_program(),
            halt_program(),
            branch_skip_program(),
            fresh_page_store_program(),
            skipped_write_program(),
        ]
    }

    /// The reference outcome of injecting `fault` at instruction `k`: one
    /// run from reset, no shadow.
    fn reference(p: &Program, g: &GoldenRef, k: u64, fault: ArchFault) -> SwOutcome {
        run_from(&mut FuncSim::new(p), None, g, k, fault)
    }

    fn tally_of(outcomes: impl IntoIterator<Item = SwOutcome>) -> SwTally {
        let mut t = SwTally::default();
        outcomes.into_iter().for_each(|o| t.record(o));
        t
    }

    /// The dynamic index of the instruction that writes `value` into `reg`.
    fn writer_of(p: &Program, reg: Reg, value: u64) -> u64 {
        let (trace, _) = FuncSim::new(p).run_trace(10_000);
        trace.iter().find(|r| r.dst == Some((reg, value))).expect("writer").seq
    }

    const SWEEP_FAULTS: [ArchFault; 12] = [
        ArchFault::FlipResultBit32 { bit: 0 },
        ArchFault::FlipResultBit32 { bit: 31 },
        ArchFault::FlipResultBit64 { bit: 3 },
        ArchFault::FlipResultBit64 { bit: 20 },
        ArchFault::FlipResultBit64 { bit: 63 },
        ArchFault::RandomResult { value: 0 },
        ArchFault::FlipInsnBit { bit: 0 },
        ArchFault::FlipInsnBit { bit: 13 },
        ArchFault::FlipInsnBit { bit: 21 },
        ArchFault::FlipInsnBit { bit: 28 },
        ArchFault::MakeNop,
        ArchFault::FlipBranch,
    ];

    /// Every fault in a spread of models at every instruction, from k = 0
    /// to k = retired - 1 (both sides of each WRITE), through one ladder:
    /// the tally equals the per-trial reference.
    #[test]
    fn ladder_equals_reference_at_every_instruction() {
        for p in synthetic_programs() {
            let g = golden_ref(&p, 10_000);
            let draws: Vec<(u64, ArchFault)> = (0..g.retired())
                .flat_map(|k| SWEEP_FAULTS.iter().map(move |&f| (k, f)))
                .collect();
            assert_eq!(draws.first().map(|d| d.0), Some(0));
            assert_eq!(draws.last().map(|d| d.0), Some(g.retired() - 1));
            let expect = tally_of(draws.iter().map(|&(k, f)| reference(&p, &g, k, f)));
            let (got, _, _) = ladder(&p, &g, draws);
            assert_eq!(got, expect, "{}", p.name);
        }
    }

    #[test]
    fn write_in_middle_has_two_snapshots() {
        let g = golden_ref(&write_in_middle_program(), 10_000);
        assert_eq!(g.snapshots.len(), 2); // the WRITE and the exit
    }

    /// Past the last WRITE of a halting program no snapshot lies ahead:
    /// the shadow matches, but only the run to `halt` decides.
    #[test]
    fn no_shortcut_without_a_snapshot_ahead() {
        let p = halt_program();
        let g = golden_ref(&p, 10_000);
        assert_eq!(g.snapshots.len(), 1);
        let k = writer_of(&p, Reg::R9, 1234);
        let fault = ArchFault::FlipResultBit64 { bit: 5 };
        assert_eq!(reference(&p, &g, k, fault), SwOutcome::OutputOk);
        let (tally, stepped, _) = ladder(&p, &g, vec![(k, fault)]);
        assert_eq!(tally, tally_of([SwOutcome::OutputOk]));
        assert_eq!(stepped, g.retired() - k, "the trial runs to the halt");
    }

    /// A flipped branch that rejoins the golden path one instruction late
    /// never matches the shadow at the same count: State OK comes from the
    /// exit syscall, with control divergence.
    #[test]
    fn late_reconvergence_is_state_ok_only_at_the_syscall() {
        let p = branch_skip_program();
        let g = golden_ref(&p, 10_000);
        let k = g.cond_branches[0];
        let expect = SwOutcome::StateOk { control_diverged: true };
        assert_eq!(reference(&p, &g, k, ArchFault::FlipBranch), expect);
        let (tally, stepped, _) = ladder(&p, &g, vec![(k, ArchFault::FlipBranch)]);
        assert_eq!(tally, tally_of([expect]));
        assert_eq!(stepped, g.retired() + 1 - k, "the trial runs to the exit syscall");
    }

    /// A store of zero moved onto a fresh page: registers reconverge, the
    /// page sets do not, and the outcome stays Output OK.
    #[test]
    fn differing_page_sets_block_the_shortcut() {
        let p = fresh_page_store_program();
        let g = golden_ref(&p, 10_000);
        let k = writer_of(&p, Reg::R2, 0x2_0000);
        let fault = ArchFault::FlipResultBit64 { bit: 20 }; // 0x12_0000
        assert_eq!(reference(&p, &g, k, fault), SwOutcome::OutputOk);
        let (tally, stepped, _) = ladder(&p, &g, vec![(k, fault)]);
        assert_eq!(tally, tally_of([SwOutcome::OutputOk]));
        assert_eq!(stepped, g.retired() - k);
    }

    /// A trial that rejoins the golden state at the same count but one
    /// syscall behind is compared against the wrong snapshots from then
    /// on: the syscall index blocks the shortcut, and the outcome is
    /// Output Bad.
    #[test]
    fn a_missed_syscall_blocks_the_shortcut() {
        let p = skipped_write_program();
        let g = golden_ref(&p, 10_000);
        let k = g.cond_branches[0];
        assert_eq!(reference(&p, &g, k, ArchFault::FlipBranch), SwOutcome::OutputBad);
        let (tally, _, _) = ladder(&p, &g, vec![(k, ArchFault::FlipBranch)]);
        assert_eq!(tally, tally_of([SwOutcome::OutputBad]));
    }

    /// Dead-value faults ahead of a long tail end a few instructions after
    /// injection on the ladder, with the reference's outcome.
    #[test]
    fn shortcut_fires_on_a_dead_value_with_a_long_tail() {
        let mut a = Asm::new(0x1_0000);
        dead_then_loop(&mut a, &[1234, 0], 150);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R3, Reg::R2, 0);
        exit_with_r3(&mut a);
        let p = Program::new("dead-long-tail", a);
        let g = golden_ref(&p, 10_000);
        assert!(g.retired() > 600);
        let k = writer_of(&p, Reg::R9, 1234);
        let draws: Vec<(u64, ArchFault)> =
            (0..64).map(|bit| (k, ArchFault::FlipResultBit64 { bit })).collect();
        let expect = tally_of(draws.iter().map(|&(k, f)| reference(&p, &g, k, f)));
        assert_eq!(expect.state_ok, 64);
        let (got, stepped, _) = ladder(&p, &g, draws);
        assert_eq!(got, expect);
        assert!(stepped <= 64 * 4, "{stepped} instructions for 64 masked trials");
    }

    /// The instructions that one fixed campaign per model on `bzip2-like`
    /// (the campaigns `tests/sw_ladder_equivalence.rs` holds to the
    /// reference) steps, split into the trials' and the walker's. The
    /// counts are exact and machine-independent, so a change to the
    /// substrate's speed leaves them alone.
    #[test]
    fn ladder_work_counts_are_pinned_on_bzip2_like() {
        let p = tfsim_workloads::by_name("bzip2-like").expect("workload").build(1);
        let g = golden_ref(&p, 10_000_000);
        let pins = [
            (FaultModel::ResultBit32, 178_107, 22_093),
            (FaultModel::ResultBit64, 243_177, 15_933),
            (FaultModel::ResultRandom, 148_577, 22_227),
            (FaultModel::InsnBit, 197_839, 21_555),
            (FaultModel::Nop, 125_442, 21_751),
            (FaultModel::BranchFlip, 208_998, 22_326),
        ];
        for (model, trials, walker) in pins {
            let seed = 42 ^ (model as u64) << 8;
            let mut rng = Rng::from_seed_stream(seed, model as u64);
            let draws = (0..24).map(|_| draw(&g, model, &mut rng)).collect();
            let (_, stepped, walked) = ladder(&p, &g, draws);
            assert_eq!((stepped, walked), (trials, walker), "{}", model.label());
        }
    }

    /// The raw-word syscall check agrees with the decoder.
    #[test]
    fn callsys_word_matches_decode() {
        let is_callsys = |w: u32| {
            let insn = decode(w);
            insn.mnemonic == tfsim_isa::Mnemonic::CallPal && insn.pal == tfsim_isa::PalFunc::CallSys
        };
        assert!(is_callsys(CALLSYS_WORD));
        for bit in 0..32 {
            let w = CALLSYS_WORD ^ (1 << bit);
            assert_eq!(w == CALLSYS_WORD, is_callsys(w), "{w:#x}");
        }
        let mut rng = Rng::new(0x83);
        for _ in 0..100_000 {
            let w = rng.next_u64() as u32;
            assert_eq!(w == CALLSYS_WORD, is_callsys(w), "{w:#x}");
        }
    }

    tfsim_check::prop_check! {
        /// `run_campaign` tallies exactly what one `run_trial` per trial
        /// would, for any seed, model and trial count.
        fn campaign_equals_per_trial_reference(
            program in tfsim_check::prop::ints(0usize..6),
            model in tfsim_check::prop::select(FaultModel::ALL.to_vec()),
            trials in tfsim_check::prop::ints(1u64..48),
            seed in tfsim_check::prop::any_u64()
        ) {
            let p = &synthetic_programs()[program];
            let g = golden_ref(p, 10_000);
            let mut rng = Rng::from_seed_stream(seed, model as u64);
            let expect = tally_of((0..trials).map(|_| run_trial(p, &g, model, &mut rng)));
            tfsim_check::prop_assert_eq!(run_campaign(p, &g, model, trials, seed), expect);
        }
    }
}

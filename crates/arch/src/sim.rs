//! The functional simulator core.
//!
//! [`FuncSim::new`] decodes the program's code section once, word by word,
//! into an image shared by every clone of the simulator, and a fetch from
//! that section reads its instruction from the image instead of reading
//! and decoding memory. The image is used only while it equals memory:
//! the first store that overlaps it drops it for good, after which every
//! fetch reads and decodes memory; and an instruction-word fault model,
//! which changes the word after the fetch, executes the decoding of the
//! changed word. Memory is private, so nothing can write behind the image.
//! Debug builds check every instruction the image serves against
//! `decode(memory)`.

use std::sync::Arc;

use tfsim_isa::{alu, decode, syscall, ExecClass, Insn, Mnemonic, PalFunc, Program, Reg};
use tfsim_mem::{is_aligned, PageSet, SparseMemory, PAGE_SIZE};

/// The raw `CALL_PAL callsys` word: opcode 0 with PAL function 0x83 is the
/// only word that decodes to a system call.
pub(crate) const CALLSYS_WORD: u32 = 0x83;

/// Program-visible register and control state.
///
/// `R31` is maintained as zero by construction: [`ArchState::write_reg`]
/// drops writes to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    regs: [u64; 32],
    /// The program counter.
    pub pc: u64,
}

impl ArchState {
    /// Creates a state with all registers zero and the given entry PC.
    pub fn new(entry: u64) -> ArchState {
        ArchState { regs: [0; 32], pc: entry }
    }

    /// Reads a register (`R31` reads zero).
    pub fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes a register (writes to `R31` are discarded).
    pub fn write_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = v;
        }
    }

    /// All register values in numeric order (including the zero register).
    pub fn regs(&self) -> &[u64; 32] {
        &self.regs
    }
}

/// An architectural exception.
///
/// In the pipeline model these surface when the faulting instruction
/// retires, and an injected fault that provokes one is a `Terminated`
/// (`except`) trial outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exception {
    /// The instruction word does not decode (`OPCDEC`).
    IllegalInstruction,
    /// A load/store address violated natural alignment.
    Alignment {
        /// The faulting effective address.
        addr: u64,
    },
    /// A `/V` operation overflowed.
    ArithmeticOverflow,
    /// `CALL_PAL` with an unimplemented function code.
    BadPalCall,
}

impl std::fmt::Display for Exception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exception::IllegalInstruction => write!(f, "illegal instruction"),
            Exception::Alignment { addr } => write!(f, "alignment fault at {addr:#x}"),
            Exception::ArithmeticOverflow => write!(f, "arithmetic overflow"),
            Exception::BadPalCall => write!(f, "unimplemented PAL call"),
        }
    }
}

/// A retired store, as seen by the memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecord {
    /// Effective address.
    pub addr: u64,
    /// Value written (low `size` bytes significant).
    pub value: u64,
    /// Access size in bytes.
    pub size: u64,
}

/// One architecturally retired instruction.
///
/// The microarchitectural checker compares the pipeline's k-th retirement
/// against the functional simulator's k-th record; any field mismatch is a
/// failure with a mode determined by which field diverged (wrong
/// destination value → `regfile`, wrong store → `mem`, wrong PC → `ctrl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireRecord {
    /// Zero-based dynamic instruction number.
    pub seq: u64,
    /// Address of the instruction.
    pub pc: u64,
    /// Address of the next instruction (branch outcomes included).
    pub next_pc: u64,
    /// The raw instruction word executed.
    pub raw: u32,
    /// Destination register and the value written, if any.
    pub dst: Option<(Reg, u64)>,
    /// Store performed, if any.
    pub store: Option<StoreRecord>,
}

/// The observable result of one [`FuncSim::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction retired normally.
    Retired(RetireRecord),
    /// The program executed `CALL_PAL halt` or `exit()`.
    Halted {
        /// Exit code (zero for a bare `halt`).
        code: u64,
    },
    /// An exception was raised; the simulator stops.
    Exception(Exception),
}

/// Summary of a [`FuncSim::run`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired during this call.
    pub retired: u64,
    /// Exit code if the program halted.
    pub exit_code: Option<u64>,
    /// Exception if one was raised.
    pub exception: Option<Exception>,
    /// Whether the instruction budget expired first.
    pub out_of_budget: bool,
}

/// An architectural fault to apply to the next instruction executed.
///
/// These are the paper's six Section-5 fault models, applied to one
/// dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchFault {
    /// Flip bit `bit` (0–31) of the result of the next register write.
    FlipResultBit32 {
        /// Bit index within the low 32 bits.
        bit: u8,
    },
    /// Flip bit `bit` (0–63) of the result of the next register write.
    FlipResultBit64 {
        /// Bit index.
        bit: u8,
    },
    /// Replace the result of the next register write with `value`.
    RandomResult {
        /// The replacement bits.
        value: u64,
    },
    /// Flip bit `bit` of the next instruction word before decoding.
    FlipInsnBit {
        /// Bit index (0–31).
        bit: u8,
    },
    /// Execute the next instruction as a no-op.
    MakeNop,
    /// Force the next conditional branch to take the wrong direction.
    FlipBranch,
}

/// The decoded words of a program's code section.
#[derive(Debug, Clone)]
struct Image {
    /// Address of the first word.
    base: u64,
    /// `insns[i]` decodes the word at `base + 4 * i`.
    insns: Arc<[Insn]>,
}

impl Image {
    /// Decodes the aligned words of the section holding `program`'s entry
    /// point. Data sections are left out: a store into the image drops it,
    /// and programs store into their data. A later section that overlaps
    /// the image overwrites its words when memory is loaded, so such a
    /// program gets no image.
    fn load(program: &Program) -> Option<Image> {
        let at = program.sections.iter().position(|s| (s.addr..s.end()).contains(&program.entry))?;
        let s = &program.sections[at];
        let base = s.addr.checked_next_multiple_of(4)?;
        let insns: Arc<[Insn]> = s.bytes.get((base - s.addr) as usize..)?
            .chunks_exact(4)
            .map(|w| decode(u32::from_le_bytes(w.try_into().expect("a 4-byte chunk"))))
            .collect();
        let image = Image { base, insns };
        let overwritten = program.sections[at + 1..]
            .iter()
            .any(|t| !t.bytes.is_empty() && image.overlaps(t.addr, t.bytes.len() as u64));
        (!image.insns.is_empty() && !overwritten).then_some(image)
    }

    /// The decoding of the word at `pc`, if `pc` is one of the image's
    /// words.
    fn get(&self, pc: u64) -> Option<Insn> {
        let i = pc.wrapping_sub(self.base) / 4;
        (pc.is_multiple_of(4) && i < self.insns.len() as u64).then(|| self.insns[i as usize])
    }

    /// Whether the `size` bytes at `addr` overlap the image (offsets are
    /// taken modulo 2^64, so neither interval's end can overflow).
    fn overlaps(&self, addr: u64, size: u64) -> bool {
        addr.wrapping_sub(self.base) < 4 * self.insns.len() as u64
            || self.base.wrapping_sub(addr) < size
    }
}

/// The functional simulator.
///
/// Executes one instruction per [`step`](FuncSim::step), maintains its
/// memory and the output stream, and records the pages touched (used to
/// preload the pipeline model's TLBs).
#[derive(Debug, Clone)]
pub struct FuncSim {
    /// Program-visible state.
    pub state: ArchState,
    mem: SparseMemory,
    /// The code section decoded as loaded, until a store overlaps it (see
    /// the module documentation).
    image: Option<Image>,
    output: Vec<u8>,
    halted: Option<u64>,
    exception: Option<Exception>,
    retired: u64,
    syscalls: u64,
    code_pages: PageSet,
    /// The page `code_pages` last received from a fetch: fetches that
    /// stay on it skip the insert.
    last_code_page: u64,
    data_pages: PageSet,
    /// The page `data_pages` last received from a load or store: accesses
    /// that stay on it skip the insert.
    last_data_page: u64,
    pending_fault: Option<ArchFault>,
}

impl FuncSim {
    /// Creates a simulator loaded with `program`, PC at its entry point.
    pub fn new(program: &Program) -> FuncSim {
        // Allocated before the memory pages: after them, the table left the
        // heap fragmented enough to raise a campaign's peak RSS by about
        // 2 MiB (see DESIGN.md).
        let image = Image::load(program);
        let mut code_pages = PageSet::new();
        let mut data_pages = PageSet::new();
        for s in &program.sections {
            code_pages.insert_range(s.addr, s.bytes.len() as u64);
            data_pages.insert_range(s.addr, s.bytes.len() as u64);
        }
        FuncSim {
            state: ArchState::new(program.entry),
            mem: SparseMemory::from_program(program),
            image,
            output: Vec::new(),
            halted: None,
            exception: None,
            retired: 0,
            syscalls: 0,
            code_pages,
            last_code_page: u64::MAX,
            data_pages,
            last_data_page: u64::MAX,
            pending_fault: None,
        }
    }

    /// The simulator's memory, read-only: only the program's stores write
    /// it, so the decoded image can tell when it stops matching.
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// The image's decoding of the word at `pc`, while the image holds it.
    fn image_insn(&self, pc: u64) -> Option<Insn> {
        let insn = self.image.as_ref()?.get(pc)?;
        debug_assert_eq!(insn, decode(self.mem.read_u32(pc)), "stale image word at {pc:#x}");
        Some(insn)
    }

    /// Whether the word at the pc is `CALL_PAL callsys` (the raw word
    /// `0x83`) as memory holds it: an armed fault does not change the
    /// answer. Read from the decoded image while it holds the word.
    pub fn next_is_callsys(&self) -> bool {
        let pc = self.state.pc;
        self.image_insn(pc).map_or_else(|| self.mem.read_u32(pc), |insn| insn.raw) == CALLSYS_WORD
    }

    /// Inserts the page of an aligned load or store into `data_pages`,
    /// unless it is the page last inserted.
    fn touch_data(&mut self, addr: u64, size: u64) {
        // An aligned access of at most 8 bytes never crosses a page.
        if addr / PAGE_SIZE != self.last_data_page {
            self.data_pages.insert_range(addr, size);
            self.last_data_page = addr / PAGE_SIZE;
        }
    }

    /// Bytes written by the program so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Exit code, if the program has halted.
    pub fn exit_code(&self) -> Option<u64> {
        self.halted
    }

    /// The exception that stopped the program, if any.
    pub fn exception(&self) -> Option<Exception> {
        self.exception
    }

    /// Whether the simulator can still make progress.
    pub fn running(&self) -> bool {
        self.halted.is_none() && self.exception.is_none()
    }

    /// Total instructions retired.
    pub fn instret(&self) -> u64 {
        self.retired
    }

    /// Number of system calls executed so far (syscall boundaries are the
    /// synchronization points of the Section-5 outcome classification).
    pub fn syscall_count(&self) -> u64 {
        self.syscalls
    }

    /// Pages touched by instruction fetch so far.
    pub fn code_pages(&self) -> &PageSet {
        &self.code_pages
    }

    /// Pages touched by data accesses so far (includes the initial image).
    pub fn data_pages(&self) -> &PageSet {
        &self.data_pages
    }

    /// Arms a one-shot architectural fault consumed by the next `step`.
    ///
    /// `FlipBranch` stays armed until a conditional branch executes.
    pub fn inject(&mut self, fault: ArchFault) {
        self.pending_fault = Some(fault);
    }

    /// Whether an armed fault has not yet been consumed.
    pub fn fault_pending(&self) -> bool {
        self.pending_fault.is_some()
    }

    /// Executes one instruction.
    ///
    /// After a halt or exception, further calls return the same terminal
    /// event without advancing.
    pub fn step(&mut self) -> StepEvent {
        if let Some(code) = self.halted {
            return StepEvent::Halted { code };
        }
        if let Some(e) = self.exception {
            return StepEvent::Exception(e);
        }

        let pc = self.state.pc;
        if pc / PAGE_SIZE != self.last_code_page || pc % PAGE_SIZE > PAGE_SIZE - 4 {
            self.code_pages.insert_range(pc, 4);
            self.last_code_page = pc / PAGE_SIZE;
        }
        let cached = self.image_insn(pc);
        let mut raw = cached.map_or_else(|| self.mem.read_u32(pc), |insn| insn.raw);

        // Fault models operating on the instruction word.
        let mut force_branch_flip = false;
        let mut result_xor: u64 = 0;
        let mut result_replace: Option<u64> = None;
        if let Some(fault) = self.pending_fault {
            match fault {
                ArchFault::FlipInsnBit { bit } => {
                    raw ^= 1 << (bit % 32);
                    self.pending_fault = None;
                }
                ArchFault::MakeNop => {
                    // BIS r31, r31, r31 is the canonical Alpha nop.
                    raw = (0x11 << 26) | (31 << 21) | (31 << 16) | (0x20 << 5) | 31;
                    self.pending_fault = None;
                }
                ArchFault::FlipResultBit32 { bit } => {
                    result_xor = 1 << (bit % 32);
                    self.pending_fault = None;
                }
                ArchFault::FlipResultBit64 { bit } => {
                    result_xor = 1 << (bit % 64);
                    self.pending_fault = None;
                }
                ArchFault::RandomResult { value } => {
                    result_replace = Some(value);
                    self.pending_fault = None;
                }
                ArchFault::FlipBranch => {
                    // Consumed only when a conditional branch executes.
                    force_branch_flip = true;
                }
            }
        }

        // A fault model that changed the word executes the changed word.
        let insn = match cached {
            Some(insn) if insn.raw == raw => insn,
            _ => decode(raw),
        };
        let mut next_pc = pc.wrapping_add(4);
        let mut dst: Option<(Reg, u64)> = None;
        let mut store: Option<StoreRecord> = None;

        macro_rules! raise {
            ($e:expr) => {{
                self.exception = Some($e);
                return StepEvent::Exception($e);
            }};
        }

        match insn.exec_class() {
            ExecClass::SimpleAlu | ExecClass::ComplexAlu => match insn.mnemonic {
                Mnemonic::Lda | Mnemonic::Ldah => {
                    let vb = self.state.read_reg(insn.rb);
                    dst = Some((insn.ra, alu::lda_value(insn.mnemonic, vb, insn.imm)));
                }
                m => {
                    let va = self.state.read_reg(insn.ra);
                    let vb = if insn.uses_literal {
                        insn.imm as u64
                    } else {
                        self.state.read_reg(insn.rb)
                    };
                    let old_c = self.state.read_reg(insn.rc);
                    match alu::operate(m, va, vb, old_c) {
                        Ok(v) => dst = Some((insn.rc, v)),
                        Err(_) => raise!(Exception::ArithmeticOverflow),
                    }
                }
            },
            ExecClass::Load => {
                let base = self.state.read_reg(insn.rb);
                let addr = base.wrapping_add(insn.imm as u64);
                let size = insn.access_size();
                if !is_aligned(addr, size) {
                    raise!(Exception::Alignment { addr });
                }
                self.touch_data(addr, size);
                let rawv = self.mem.read_sized(addr, size);
                dst = Some((insn.ra, alu::extend_load(insn.mnemonic, rawv)));
            }
            ExecClass::Store => {
                let base = self.state.read_reg(insn.rb);
                let addr = base.wrapping_add(insn.imm as u64);
                let size = insn.access_size();
                if !is_aligned(addr, size) {
                    raise!(Exception::Alignment { addr });
                }
                self.touch_data(addr, size);
                let value = self.state.read_reg(insn.ra);
                self.mem.write_sized(addr, value, size);
                if self.image.as_ref().is_some_and(|image| image.overlaps(addr, size)) {
                    self.image = None;
                }
                store = Some(StoreRecord { addr, value, size });
            }
            ExecClass::Branch => match insn.mnemonic {
                Mnemonic::Br | Mnemonic::Bsr => {
                    dst = Some((insn.ra, pc.wrapping_add(4)));
                    next_pc = insn.branch_target(pc);
                }
                Mnemonic::Jmp | Mnemonic::Jsr | Mnemonic::Ret => {
                    let target = self.state.read_reg(insn.rb) & !3;
                    dst = Some((insn.ra, pc.wrapping_add(4)));
                    next_pc = target;
                }
                m => {
                    let va = self.state.read_reg(insn.ra);
                    let mut taken = alu::branch_taken(m, va);
                    if force_branch_flip {
                        taken = !taken;
                        self.pending_fault = None;
                    }
                    if taken {
                        next_pc = insn.branch_target(pc);
                    }
                }
            },
            ExecClass::Pal => match insn.mnemonic {
                Mnemonic::CallPal => match insn.pal {
                    PalFunc::Halt => {
                        self.halted = Some(0);
                        return StepEvent::Halted { code: 0 };
                    }
                    PalFunc::CallSys => {
                        self.syscalls += 1;
                        match self.state.read_reg(Reg::V0) {
                            syscall::EXIT => {
                                let code = self.state.read_reg(Reg::A0);
                                self.halted = Some(code);
                                return StepEvent::Halted { code };
                            }
                            syscall::WRITE => {
                                // No return value is architecturally
                                // visible (keeps PAL calls free of renamed
                                // destinations in the pipeline model).
                                let buf = self.state.read_reg(Reg::A1);
                                let len = self.state.read_reg(Reg::A2).min(1 << 20);
                                let start = self.output.len();
                                self.output.resize(start + len as usize, 0);
                                self.mem.read_bytes(buf, &mut self.output[start..]);
                                // Every page the buffer touches (it may
                                // wrap around the address space).
                                let mut i = 0;
                                while i < len {
                                    let addr = buf.wrapping_add(i);
                                    self.data_pages.insert_addr(addr);
                                    i += PAGE_SIZE - addr % PAGE_SIZE;
                                }
                            }
                            _ => raise!(Exception::BadPalCall),
                        }
                    }
                    PalFunc::Other(_) => raise!(Exception::BadPalCall),
                },
                _ => raise!(Exception::IllegalInstruction),
            },
        }

        // Result-corrupting fault models.
        if let Some((r, v)) = dst {
            let corrupted = match result_replace {
                Some(nv) => nv,
                None => v ^ result_xor,
            };
            self.state.write_reg(r, corrupted);
            dst = Some((r, corrupted));
        } else if result_xor != 0 || result_replace.is_some() {
            // The chosen instruction had no register destination; the fault
            // model still consumes the injection (it corrupted dead state).
        }

        self.state.pc = next_pc;
        let record = RetireRecord {
            seq: self.retired,
            pc,
            next_pc,
            raw,
            dst: dst.filter(|(r, _)| !r.is_zero()),
            store,
        };
        self.retired += 1;
        StepEvent::Retired(record)
    }

    /// Runs until halt, exception, or `max_insns` retirements.
    pub fn run(&mut self, max_insns: u64) -> RunResult {
        let mut retired = 0;
        while retired < max_insns {
            match self.step() {
                StepEvent::Retired(_) => retired += 1,
                StepEvent::Halted { code } => {
                    return RunResult {
                        retired,
                        exit_code: Some(code),
                        exception: None,
                        out_of_budget: false,
                    }
                }
                StepEvent::Exception(e) => {
                    return RunResult {
                        retired,
                        exit_code: None,
                        exception: Some(e),
                        out_of_budget: false,
                    }
                }
            }
        }
        RunResult { retired, exit_code: None, exception: None, out_of_budget: true }
    }

    /// Runs and collects every retirement record (the golden trace used by
    /// the microarchitectural checker).
    pub fn run_trace(&mut self, max_insns: u64) -> (Vec<RetireRecord>, RunResult) {
        let mut trace = Vec::new();
        loop {
            if trace.len() as u64 >= max_insns {
                return (
                    trace,
                    RunResult {
                        retired: max_insns,
                        exit_code: None,
                        exception: None,
                        out_of_budget: true,
                    },
                );
            }
            match self.step() {
                StepEvent::Retired(r) => trace.push(r),
                StepEvent::Halted { code } => {
                    let retired = trace.len() as u64;
                    return (
                        trace,
                        RunResult {
                            retired,
                            exit_code: Some(code),
                            exception: None,
                            out_of_budget: false,
                        },
                    );
                }
                StepEvent::Exception(e) => {
                    let retired = trace.len() as u64;
                    return (
                        trace,
                        RunResult {
                            retired,
                            exit_code: None,
                            exception: Some(e),
                            out_of_budget: false,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_isa::Asm;

    fn exit_program(code: u64) -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::V0, syscall::EXIT);
        a.li(Reg::A0, code);
        a.callsys();
        Program::new("exit", a)
    }

    #[test]
    fn exit_syscall() {
        let mut sim = FuncSim::new(&exit_program(7));
        let r = sim.run(100);
        assert_eq!(r.exit_code, Some(7));
        assert!(!sim.running());
        assert_eq!(sim.syscall_count(), 1);
    }

    #[test]
    fn write_syscall_produces_output() {
        let mut a = Asm::new(0x1_0000);
        let data = 0x2_0000u64;
        a.li(Reg::V0, syscall::WRITE);
        a.li(Reg::A0, 1);
        a.li(Reg::A1, data);
        a.li(Reg::A2, 5);
        a.callsys();
        a.li(Reg::V0, syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        let p = Program::new("hello", a).with_data(data, b"hello".to_vec());
        let mut sim = FuncSim::new(&p);
        let r = sim.run(1000);
        assert_eq!(r.exit_code, Some(0));
        assert_eq!(sim.output(), b"hello");
    }

    #[test]
    fn loop_and_arithmetic() {
        // Sum 1..=10 into R3, store to memory, load back, exit with it.
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 10);
        a.li(Reg::R3, 0);
        let top = a.here_label();
        a.addq(Reg::R3, Reg::R1, Reg::R3);
        a.subq_i(Reg::R1, 1, Reg::R1);
        a.bne(Reg::R1, top);
        a.li(Reg::R5, 0x2_0000);
        a.stq(Reg::R3, Reg::R5, 0);
        a.ldq(Reg::R4, Reg::R5, 0);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R4, Reg::A0);
        a.callsys();
        let mut sim = FuncSim::new(&Program::new("sum", a));
        let r = sim.run(10_000);
        assert_eq!(r.exit_code, Some(55));
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new(0x1_0000);
        let func = a.label();
        let done = a.label();
        a.bsr(Reg::RA, func);
        a.br(done);
        a.bind(func);
        a.li(Reg::R9, 99);
        a.ret(Reg::RA);
        a.bind(done);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let mut sim = FuncSim::new(&Program::new("call", a));
        assert_eq!(sim.run(100).exit_code, Some(99));
    }

    #[test]
    fn alignment_exception() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x2_0001);
        a.ldq(Reg::R2, Reg::R1, 0);
        let mut sim = FuncSim::new(&Program::new("misalign", a));
        let r = sim.run(100);
        assert_eq!(r.exception, Some(Exception::Alignment { addr: 0x2_0001 }));
    }

    #[test]
    fn overflow_exception() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, i64::MAX as u64);
        a.addqv(Reg::R1, Reg::R1, Reg::R2);
        let mut sim = FuncSim::new(&Program::new("ovf", a));
        assert_eq!(sim.run(100).exception, Some(Exception::ArithmeticOverflow));
    }

    #[test]
    fn illegal_instruction_exception() {
        let p = Program::new("illegal", Asm::new(0x1_0000))
            .with_data(0x1_0000, (0x17u32 << 26).to_le_bytes().to_vec());
        let mut sim = FuncSim::new(&p);
        assert_eq!(sim.run(10).exception, Some(Exception::IllegalInstruction));
    }

    #[test]
    fn retire_records_capture_effects() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 5); // lda r1, 5
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 8);
        a.halt();
        let mut sim = FuncSim::new(&Program::new("rec", a));
        let (trace, result) = sim.run_trace(100);
        assert_eq!(result.exit_code, Some(0));
        assert_eq!(trace[0].dst, Some((Reg::R1, 5)));
        let st = trace.iter().find_map(|r| r.store).unwrap();
        assert_eq!(st, StoreRecord { addr: 0x2_0008, value: 5, size: 8 });
        // Sequence numbers are dense.
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn fault_flip_result_bit() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0);
        a.halt();
        let mut sim = FuncSim::new(&Program::new("f", a));
        sim.inject(ArchFault::FlipResultBit64 { bit: 63 });
        sim.step();
        assert_eq!(sim.state.read_reg(Reg::R1), 1 << 63);
        assert!(!sim.fault_pending());
    }

    #[test]
    fn fault_branch_flip_waits_for_branch() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 1);
        let skip = a.label();
        a.bne(Reg::R1, skip); // would be taken; fault flips to not-taken
        a.li(Reg::R9, 11); // executed only when flipped
        a.bind(skip);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let mut sim = FuncSim::new(&Program::new("bf", a));
        sim.inject(ArchFault::FlipBranch);
        // The fault must stay pending across the non-branch li.
        sim.step();
        assert!(sim.fault_pending());
        let r = sim.run(100);
        assert_eq!(r.exit_code, Some(11));
    }

    #[test]
    fn fault_make_nop() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 123);
        a.halt();
        let mut sim = FuncSim::new(&Program::new("nop", a));
        sim.inject(ArchFault::MakeNop);
        sim.step();
        assert_eq!(sim.state.read_reg(Reg::R1), 0);
        assert_eq!(sim.state.pc, 0x1_0004);
    }

    #[test]
    fn fault_insn_bit_can_change_opcode() {
        let mut a = Asm::new(0x1_0000);
        a.addq(Reg::R1, Reg::R2, Reg::R3);
        a.halt();
        let mut sim = FuncSim::new(&Program::new("ib", a));
        sim.state.write_reg(Reg::R1, 10);
        sim.state.write_reg(Reg::R2, 3);
        // Flip bits turning ADDQ (0x20) into SUBQ (0x29): bits 5+8... flip a
        // single bit (bit 8) -> func 0x28, unassigned -> illegal.
        sim.inject(ArchFault::FlipInsnBit { bit: 8 });
        match sim.step() {
            StepEvent::Exception(Exception::IllegalInstruction) => {}
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    /// Steps once and returns the retire record, asserting that the image
    /// served the instruction's fetch.
    fn step_from_image(sim: &mut FuncSim) -> RetireRecord {
        let pc = sim.state.pc;
        assert!(sim.image_insn(pc).is_some(), "fetch at {pc:#x} not from the image");
        match sim.step() {
            StepEvent::Retired(r) => r,
            other => panic!("expected a retirement, got {other:?}"),
        }
    }

    /// A program that stores a new instruction word over an instruction
    /// it has already executed, then runs it again: the second run retires
    /// and executes the stored word, not the image's decoding of the old
    /// one.
    #[test]
    fn self_modifying_code_executes_the_stored_word() {
        let mut w = Asm::new(0);
        w.li(Reg::R9, 42);
        let new_word = w.finish_words()[0];
        let mut a = Asm::new(0x1_0000);
        let target = a.here();
        let top = a.here_label();
        a.li(Reg::R9, 1); // overwritten by `li r9, 42` after its first run
        a.addq(Reg::R10, Reg::R9, Reg::R10);
        let done = a.label();
        a.bne(Reg::R11, done);
        a.li(Reg::R11, 1);
        a.li(Reg::R2, new_word as u64);
        a.li(Reg::R1, target);
        a.stl(Reg::R2, Reg::R1, 0);
        a.br(top);
        a.bind(done);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R10, Reg::A0);
        a.callsys();
        let mut sim = FuncSim::new(&Program::new("smc", a));
        let old_word = step_from_image(&mut sim).raw;
        assert_ne!(old_word, new_word);
        let (trace, result) = sim.run_trace(100);
        assert_eq!(result.exit_code, Some(43), "1 from the old word, 42 from the new");
        let rerun = trace.iter().find(|r| r.pc == target).expect("the target runs again");
        assert_eq!(rerun.raw, new_word);
        assert_eq!(rerun.dst, Some((Reg::R9, 42)));
    }

    /// `FlipInsnBit` and `MakeNop` at an instruction the image holds
    /// retire and execute the modified word.
    #[test]
    fn modified_words_retire_and_execute() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 123); // lda r1, 123(r31)
        a.halt();
        let p = Program::new("modified", a);
        let word = FuncSim::new(&p).mem().read_u32(0x1_0000);

        let mut sim = FuncSim::new(&p);
        sim.inject(ArchFault::FlipInsnBit { bit: 0 });
        let r = step_from_image(&mut sim);
        assert_eq!(r.raw, word ^ 1);
        assert_eq!(r.dst, Some((Reg::R1, 122)));
        assert_eq!(sim.state.read_reg(Reg::R1), 122);

        let mut sim = FuncSim::new(&p);
        sim.inject(ArchFault::MakeNop);
        let r = step_from_image(&mut sim);
        assert_eq!(decode(r.raw).mnemonic, Mnemonic::Bis);
        assert_eq!(r.dst, None);
        assert_eq!(sim.state.read_reg(Reg::R1), 0);
    }

    /// A data section loaded over the code section replaces its words:
    /// the simulator executes what memory holds.
    #[test]
    fn a_section_loaded_over_the_code_is_executed() {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 5);
        a.halt();
        let mut over = Asm::new(0x1_0000);
        over.li(Reg::R1, 7);
        let word = over.finish_words()[0];
        let p = Program::new("over", a).with_data(0x1_0000, word.to_le_bytes().to_vec());
        let mut sim = FuncSim::new(&p);
        assert_eq!(sim.run(10).exit_code, Some(0));
        assert_eq!(sim.state.read_reg(Reg::R1), 7);
    }

    #[test]
    fn terminal_events_are_sticky() {
        let mut sim = FuncSim::new(&exit_program(3));
        sim.run(100);
        assert_eq!(sim.step(), StepEvent::Halted { code: 3 });
        assert_eq!(sim.step(), StepEvent::Halted { code: 3 });
    }

    #[test]
    fn page_tracking() {
        let mut sim = FuncSim::new(&exit_program(0));
        sim.run(100);
        assert!(sim.code_pages().covers(0x1_0000, 4));
        assert!(!sim.code_pages().covers(0x9_0000, 4));
    }

    /// Code stored at run time across a page boundary outside the image,
    /// called twice: `code_pages` equals the set per-instruction inserts
    /// build, and gains both pages.
    #[test]
    fn code_pages_track_fetches_outside_the_image() {
        const STUB: u64 = 0x3_fff8; // two words before a page boundary
        let mut stub = Asm::new(STUB);
        stub.li(Reg::R9, 7);
        stub.mov(Reg::R9, Reg::R10);
        stub.addq(Reg::R9, Reg::R10, Reg::R11);
        stub.ret(Reg::RA);
        let mut a = Asm::new(0x1_0000);
        for (i, w) in stub.finish_words().into_iter().enumerate() {
            a.li(Reg::R2, w as u64);
            a.li(Reg::R1, STUB + 4 * i as u64);
            a.stl(Reg::R2, Reg::R1, 0);
        }
        a.li(Reg::R1, STUB);
        a.jsr(Reg::RA, Reg::R1);
        a.jsr(Reg::RA, Reg::R1);
        a.li(Reg::V0, syscall::EXIT);
        a.mov(Reg::R11, Reg::A0);
        a.callsys();
        let p = Program::new("stub", a);
        let mut sim = FuncSim::new(&p);
        let mut expect = sim.code_pages().clone();
        loop {
            expect.insert_range(sim.state.pc, 4);
            if !matches!(sim.step(), StepEvent::Retired(_)) {
                break;
            }
        }
        assert_eq!(sim.exit_code(), Some(14));
        assert_eq!(sim.code_pages(), &expect);
        assert!(sim.code_pages().covers(STUB, 16), "both stub pages fetched");
    }
}

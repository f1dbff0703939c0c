//! The dynamic scheduler (issue window) and functional-unit latches.
//!
//! The scheduler holds 32 entries with speculative wakeup and replay: a
//! load's consumers may issue during the cache-access shadow assuming a
//! hit; if the load misses (or the data is simply not there yet when the
//! consumer finishes executing), the consumer is *replayed* — returned to
//! the waiting state — rather than completing with garbage.
//!
//! Entries are freed only at successful completion, matching the paper's
//! observation that "our scheduler does not free an instruction's entry
//! until it is known that the instruction will complete" (a source of
//! dead-but-vulnerable state).

use tfsim_bitstate::{visit_bool, visit_pc, Category, FieldMeta, StateVisitor, StorageKind};

use crate::access::AccessLog;
use crate::config::sizes;

/// Execution class routed to functional units (3-bit `ctrl` encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum FuClass {
    /// Single-cycle integer ALU.
    #[default]
    Simple = 0,
    /// Multi-cycle complex ALU (multiplies).
    Complex = 1,
    /// Branch unit.
    Branch = 2,
    /// Address generation for a load.
    Load = 3,
    /// Address generation for a store.
    Store = 4,
}

impl FuClass {
    /// Decodes a 3-bit field; corrupted encodings map to `Simple`.
    pub fn from_bits(bits: u64) -> FuClass {
        match bits & 7 {
            0 => FuClass::Simple,
            1 => FuClass::Complex,
            2 => FuClass::Branch,
            3 => FuClass::Load,
            4 => FuClass::Store,
            _ => FuClass::Simple,
        }
    }
}

/// One scheduler (issue window) entry.
#[derive(Debug, Clone, Default)]
pub struct SchedEntry {
    /// Entry allocated.
    pub valid: bool,
    /// Entry has been issued (awaiting completion; may be replayed).
    pub issued: bool,
    /// Raw instruction word.
    pub raw: u64,
    /// Instruction address.
    pub pc: u64,
    /// Source physical registers (slot 2 used by CMOV's old destination).
    pub srcs: [u64; 3],
    /// Which source slots carry a real dependence.
    pub src_needed: [bool; 3],
    /// Destination physical register.
    pub dst_preg: u64,
    /// Whether the instruction writes a register.
    pub has_dst: bool,
    /// ROB tag.
    pub rob: u64,
    /// Load/store queue slot (loads/stores only).
    pub lsq: u64,
    /// Functional-unit class (3-bit).
    pub class: u64,
    /// Predicted direction (branches).
    pub pred_taken: bool,
    /// Predicted target (branches).
    pub pred_target: u64,
    /// Memory-dependence wait: SQ slot whose address must resolve first.
    pub wait_sq: u64,
    /// Whether `wait_sq` is active.
    pub wait_sq_valid: bool,
    /// Pointer-ECC check bits for `srcs` (4 bits each; protection suite).
    pub src_ecc: [u64; 3],
    /// Pointer-ECC check bits for `dst_preg`.
    pub dst_ecc: u64,
}

impl SchedEntry {
    fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        let ram = StorageKind::Ram;
        visit_bool(v, FieldMeta::new(Category::Valid, ram), &mut self.valid);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.issued);
        v.field(FieldMeta::new(Category::Insn, ram), 32, &mut self.raw);
        visit_pc(v, ram, &mut self.pc);
        for s in self.srcs.iter_mut() {
            v.field(FieldMeta::new(Category::Regptr, ram), 7, s);
        }
        for n in self.src_needed.iter_mut() {
            visit_bool(v, FieldMeta::new(Category::Ctrl, ram), n);
        }
        v.field(FieldMeta::new(Category::Regptr, ram), 7, &mut self.dst_preg);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.has_dst);
        v.field(FieldMeta::new(Category::Robptr, ram), 6, &mut self.rob);
        v.field(FieldMeta::new(Category::Ctrl, ram), 4, &mut self.lsq);
        v.field(FieldMeta::new(Category::Ctrl, ram), 3, &mut self.class);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.pred_taken);
        visit_pc(v, ram, &mut self.pred_target);
        v.field(FieldMeta::new(Category::Ctrl, ram), 4, &mut self.wait_sq);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.wait_sq_valid);
        if ptr_ecc {
            for e in self.src_ecc.iter_mut() {
                v.field(FieldMeta::new(Category::Ecc, ram), 4, e);
            }
            v.field(FieldMeta::new(Category::Ecc, ram), 4, &mut self.dst_ecc);
        }
    }
}

/// Fixed per-entry word ordinals for the scheduler's access log.
///
/// The numbering always reserves the pointer-ECC words (ordinals 19–22)
/// even when the protection is disabled, so log ordinals are stable across
/// configurations; the pipeline's drain mapping closes the gap for
/// configurations where those words are not visited. The order matches
/// `SchedEntry::visit` exactly.
pub mod schedw {
    /// `valid` flag.
    pub const VALID: u32 = 0;
    /// `issued` flag.
    pub const ISSUED: u32 = 1;
    /// Raw instruction word.
    pub const RAW: u32 = 2;
    /// Instruction address.
    pub const PC: u32 = 3;
    /// Source physical register `k` (0..3).
    pub const fn src(k: usize) -> u32 {
        4 + k as u32
    }
    /// Source-needed flag `k` (0..3).
    pub const fn src_needed(k: usize) -> u32 {
        7 + k as u32
    }
    /// Destination physical register.
    pub const DST_PREG: u32 = 10;
    /// `has_dst` flag.
    pub const HAS_DST: u32 = 11;
    /// ROB tag.
    pub const ROB: u32 = 12;
    /// LSQ slot.
    pub const LSQ: u32 = 13;
    /// Functional-unit class.
    pub const CLASS: u32 = 14;
    /// Predicted direction.
    pub const PRED_TAKEN: u32 = 15;
    /// Predicted target.
    pub const PRED_TARGET: u32 = 16;
    /// Memory-dependence wait SQ slot.
    pub const WAIT_SQ: u32 = 17;
    /// Whether `wait_sq` is active.
    pub const WAIT_SQ_VALID: u32 = 18;
    /// Pointer-ECC check bits for source `k` (0..3).
    pub const fn src_ecc(k: usize) -> u32 {
        19 + k as u32
    }
    /// Pointer-ECC check bits for the destination pointer.
    pub const DST_ECC: u32 = 22;
    /// Words per scheduler entry in the fixed numbering.
    pub const WORDS: u32 = 23;
}

/// The 32-entry scheduler.
///
/// Entries are private behind *word-granular* logged accessors: the
/// every-cycle select loops read only the `valid`/`issued`/wakeup words,
/// so an idle entry's payload words stay untouched in the access log and
/// can be proven dead analytically. Whole-entry operations (allocation,
/// free, flush) log a content-independent write of every word.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Entries (no ring: free slots are reused; age comes from ROB tags).
    slots: Vec<SchedEntry>,
    /// Word-granular access log (ordinal = `slot * schedw::WORDS + word`).
    pub log: AccessLog,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler {
            slots: (0..sizes::SCHEDULER).map(|_| SchedEntry::default()).collect(),
            log: AccessLog::default(),
        }
    }

    fn ord(i: usize, w: u32) -> u32 {
        (i as u32) * schedw::WORDS + w
    }

    /// Unlogged read-only view of an entry, for observers (occupancy
    /// statistics, invariant checks, rendering) that model no hardware
    /// port.
    pub fn peek(&self, i: usize) -> &SchedEntry {
        &self.slots[i % sizes::SCHEDULER]
    }

    /// Unlogged mutable view, for fault injection and tests only.
    #[doc(hidden)]
    pub fn poke(&mut self, i: usize) -> &mut SchedEntry {
        &mut self.slots[i % sizes::SCHEDULER]
    }

    /// Logged read of the `valid` flag.
    pub fn valid(&mut self, i: usize) -> bool {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::VALID));
        self.slots[i].valid
    }

    /// Logged read of the `issued` flag.
    pub fn issued(&mut self, i: usize) -> bool {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::ISSUED));
        self.slots[i].issued
    }

    /// Logged read of the ROB tag.
    pub fn rob(&mut self, i: usize) -> u64 {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::ROB));
        self.slots[i].rob
    }

    /// Logged read of the functional-unit class field.
    pub fn class(&mut self, i: usize) -> u64 {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::CLASS));
        self.slots[i].class
    }

    /// Logged read of source pointer `k`.
    pub fn src(&mut self, i: usize, k: usize) -> u64 {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::src(k)));
        self.slots[i].srcs[k]
    }

    /// Logged read of source-needed flag `k`.
    pub fn src_needed(&mut self, i: usize, k: usize) -> bool {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::src_needed(k)));
        self.slots[i].src_needed[k]
    }

    /// Logged read of the memory-dependence wait SQ slot.
    pub fn wait_sq(&mut self, i: usize) -> u64 {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::WAIT_SQ));
        self.slots[i].wait_sq
    }

    /// Logged read of the `wait_sq_valid` flag.
    pub fn wait_sq_valid(&mut self, i: usize) -> bool {
        let i = i % sizes::SCHEDULER;
        self.log.read(Self::ord(i, schedw::WAIT_SQ_VALID));
        self.slots[i].wait_sq_valid
    }

    /// Logged write of the `issued` flag (issue / replay).
    pub fn set_issued(&mut self, i: usize, on: bool) {
        let i = i % sizes::SCHEDULER;
        self.log.write(Self::ord(i, schedw::ISSUED));
        self.slots[i].issued = on;
    }

    /// Logged write clearing the `wait_sq_valid` flag.
    pub fn set_wait_sq_valid(&mut self, i: usize, on: bool) {
        let i = i % sizes::SCHEDULER;
        self.log.write(Self::ord(i, schedw::WAIT_SQ_VALID));
        self.slots[i].wait_sq_valid = on;
    }

    /// Writes back pointer-ECC-repaired source/destination pointers.
    ///
    /// Deliberately *unlogged*: the repaired values derive from the old
    /// contents (not a content-independent overwrite), and the repair
    /// always follows a logged whole-entry read in the same cycle, which
    /// shadows any same-cycle write in the per-cycle access dedup anyway.
    pub fn set_repaired_ptrs(&mut self, i: usize, srcs: [u64; 3], dst_preg: u64) {
        let e = &mut self.slots[i % sizes::SCHEDULER];
        e.srcs = srcs;
        e.dst_preg = dst_preg;
    }

    /// Logged whole-entry read: clones the entry for issue, marking every
    /// word (including the reserved ECC ordinals) as read.
    pub fn read_entry(&mut self, i: usize) -> SchedEntry {
        let i = i % sizes::SCHEDULER;
        if self.log.enabled() {
            for w in 0..schedw::WORDS {
                self.log.read(Self::ord(i, w));
            }
        }
        self.slots[i].clone()
    }

    /// Logged whole-entry write: installs a freshly renamed instruction
    /// (content-independent overwrite of every word).
    pub fn install(&mut self, i: usize, e: SchedEntry) {
        let i = i % sizes::SCHEDULER;
        if self.log.enabled() {
            for w in 0..schedw::WORDS {
                self.log.write(Self::ord(i, w));
            }
        }
        self.slots[i] = e;
    }

    /// Logged whole-entry write: resets the entry to the idle state
    /// (completion free or squash).
    pub fn clear_slot(&mut self, i: usize) {
        let i = i % sizes::SCHEDULER;
        if self.log.enabled() {
            for w in 0..schedw::WORDS {
                self.log.write(Self::ord(i, w));
            }
        }
        self.slots[i] = SchedEntry::default();
    }

    /// Index of a free slot, if any (logged `valid` scan: stops at the
    /// first free entry, exactly the words the allocation port examines).
    pub fn free_slot(&mut self) -> Option<usize> {
        for i in 0..self.slots.len() {
            self.log.read(Self::ord(i, schedw::VALID));
            if !self.slots[i].valid {
                return Some(i);
            }
        }
        None
    }

    /// Number of free slots (unlogged observer).
    pub fn free_count(&self) -> usize {
        self.slots.iter().filter(|e| !e.valid).count()
    }

    /// Clears every entry (full flush).
    pub fn clear(&mut self) {
        for i in 0..sizes::SCHEDULER {
            self.clear_slot(i);
        }
    }

    /// Visits all entries (`ptr_ecc` adds the pointer check bits).
    pub fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        for e in self.slots.iter_mut() {
            e.visit(v, ptr_ecc);
        }
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Fixed per-slot word ordinals for the functional units' access log.
///
/// Like [`schedw`], the numbering reserves the pointer-ECC words
/// (ordinals 24–27) even when the protection is disabled so ordinals are
/// stable across configurations; the pipeline's drain mapping drops them
/// when they are not visited. The order matches `FuOp::visit` exactly.
pub mod fuw {
    /// `valid` flag.
    pub const VALID: u32 = 0;
    /// Scheduler entry backlink.
    pub const SCHED: u32 = 1;
    /// ROB tag.
    pub const ROB: u32 = 2;
    /// Destination physical register.
    pub const DST_PREG: u32 = 3;
    /// `has_dst` flag.
    pub const HAS_DST: u32 = 4;
    /// Operand latch `a`.
    pub const A: u32 = 5;
    /// Operand latch `b`.
    pub const B: u32 = 6;
    /// Operand latch `c`.
    pub const C: u32 = 7;
    /// Source physical register `k` (0..3).
    pub const fn src(k: usize) -> u32 {
        8 + k as u32
    }
    /// Source-needed flag `k` (0..3).
    pub const fn src_needed(k: usize) -> u32 {
        11 + k as u32
    }
    /// Source-speculative flag `k` (0..3).
    pub const fn src_spec(k: usize) -> u32 {
        14 + k as u32
    }
    /// Raw instruction word.
    pub const RAW: u32 = 17;
    /// Instruction address.
    pub const PC: u32 = 18;
    /// Latency countdown.
    pub const REMAINING: u32 = 19;
    /// Predicted direction.
    pub const PRED_TAKEN: u32 = 20;
    /// Predicted target.
    pub const PRED_TARGET: u32 = 21;
    /// LSQ slot.
    pub const LSQ: u32 = 22;
    /// Functional-unit class.
    pub const CLASS: u32 = 23;
    /// Pointer-ECC check bits for source `k` (0..3).
    pub const fn src_ecc(k: usize) -> u32 {
        24 + k as u32
    }
    /// Pointer-ECC check bits for the destination pointer.
    pub const DST_ECC: u32 = 27;
    /// Words per FU slot in the fixed numbering.
    pub const WORDS: u32 = 28;
}

/// An operation in flight in a functional unit (pipeline latches: the
/// operand latches are the paper's dominant `data` latch population).
#[derive(Debug, Clone, Default)]
pub struct FuOp {
    /// Slot busy.
    pub valid: bool,
    /// Scheduler entry this op came from (5-bit).
    pub sched: u64,
    /// ROB tag.
    pub rob: u64,
    /// Destination physical register.
    pub dst_preg: u64,
    /// Whether a register is written.
    pub has_dst: bool,
    /// Operand latches (a = Ra/store-data, b = Rb, c = CMOV old value).
    pub a: u64,
    /// Second operand latch.
    pub b: u64,
    /// Third operand latch (CMOV old destination).
    pub c: u64,
    /// Source pregs (for replay re-reads).
    pub srcs: [u64; 3],
    /// Needed source slots.
    pub src_needed: [bool; 3],
    /// Source was speculative (not real-ready) at issue: its latched value
    /// is stale and must be re-read (bypass) at completion.
    pub src_spec: [bool; 3],
    /// Raw instruction word.
    pub raw: u64,
    /// Instruction address.
    pub pc: u64,
    /// Cycles until completion (1 = completing this cycle).
    pub remaining: u64,
    /// Predicted direction (branch unit).
    pub pred_taken: bool,
    /// Predicted target (branch unit).
    pub pred_target: u64,
    /// Load/store queue slot (AGU ops).
    pub lsq: u64,
    /// Functional-unit class.
    pub class: u64,
    /// Pointer-ECC check bits for `srcs`.
    pub src_ecc: [u64; 3],
    /// Pointer-ECC check bits for `dst_preg`.
    pub dst_ecc: u64,
}

impl FuOp {
    fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        let l = StorageKind::Latch;
        visit_bool(v, FieldMeta::new(Category::Valid, l), &mut self.valid);
        v.field(FieldMeta::new(Category::Ctrl, l), 5, &mut self.sched);
        v.field(FieldMeta::new(Category::Robptr, l), 6, &mut self.rob);
        v.field(FieldMeta::new(Category::Regptr, l), 7, &mut self.dst_preg);
        visit_bool(v, FieldMeta::new(Category::Ctrl, l), &mut self.has_dst);
        v.field(FieldMeta::new(Category::Data, l), 64, &mut self.a);
        v.field(FieldMeta::new(Category::Data, l), 64, &mut self.b);
        v.field(FieldMeta::new(Category::Data, l), 64, &mut self.c);
        for s in self.srcs.iter_mut() {
            v.field(FieldMeta::new(Category::Regptr, l), 7, s);
        }
        for n in self.src_needed.iter_mut() {
            visit_bool(v, FieldMeta::new(Category::Ctrl, l), n);
        }
        for s in self.src_spec.iter_mut() {
            visit_bool(v, FieldMeta::new(Category::Ctrl, l), s);
        }
        v.field(FieldMeta::new(Category::Insn, l), 32, &mut self.raw);
        visit_pc(v, l, &mut self.pc);
        v.field(FieldMeta::new(Category::Ctrl, l), 3, &mut self.remaining);
        visit_bool(v, FieldMeta::new(Category::Ctrl, l), &mut self.pred_taken);
        visit_pc(v, l, &mut self.pred_target);
        v.field(FieldMeta::new(Category::Ctrl, l), 4, &mut self.lsq);
        v.field(FieldMeta::new(Category::Ctrl, l), 3, &mut self.class);
        if ptr_ecc {
            for e in self.src_ecc.iter_mut() {
                v.field(FieldMeta::new(Category::Ecc, l), 4, e);
            }
            v.field(FieldMeta::new(Category::Ecc, l), 4, &mut self.dst_ecc);
        }
    }
}

/// The functional-unit complement of Figure 2: two simple ALUs, one
/// complex ALU, one branch ALU, two address generation units.
///
/// Carries its own word-granular [`AccessLog`].
/// The hot per-cycle loops touch only the `valid` word of idle slots (the
/// short-circuit in every scan), so an idle unit's operand latches go
/// untouched until the next install overwrites them whole — exactly the
/// shape the analytic pruner turns into rides and heals.
#[derive(Debug, Clone)]
pub struct FuBank {
    /// Simple ALU slots.
    pub simple: Vec<FuOp>,
    /// Complex ALU slot (non-pipelined, 2–5 cycles).
    pub complex: Vec<FuOp>,
    /// Branch ALU slot.
    pub branch: Vec<FuOp>,
    /// AGU slots.
    pub agu: Vec<FuOp>,
    /// Word-granular access log (ordinals `slot * fuw::WORDS + word`).
    pub log: AccessLog,
}

impl FuBank {
    /// Total FU slots across the four banks.
    pub const SLOTS: usize = 6;

    /// Creates idle functional units.
    pub fn new() -> FuBank {
        FuBank {
            simple: vec![FuOp::default(), FuOp::default()],
            complex: vec![FuOp::default()],
            branch: vec![FuOp::default()],
            agu: vec![FuOp::default(), FuOp::default()],
            log: AccessLog::default(),
        }
    }

    /// Flat slot index of `(bank, idx)` in visit order: `simple[0]`,
    /// `simple[1]`, `complex[0]`, `branch[0]`, `agu[0]`, `agu[1]`.
    pub fn flat(bank: u8, idx: usize) -> usize {
        match bank {
            0 => idx,
            1 => 2,
            2 => 3,
            _ => 4 + idx,
        }
    }

    fn ord(slot: usize, w: u32) -> u32 {
        slot as u32 * fuw::WORDS + w
    }

    /// Unlogged slot access (observer paths and same-cycle-shadowed pokes).
    pub fn peek(&self, slot: usize) -> &FuOp {
        match slot {
            0 | 1 => &self.simple[slot],
            2 => &self.complex[0],
            3 => &self.branch[0],
            _ => &self.agu[slot - 4],
        }
    }

    /// Unlogged mutable slot access. Callers must guarantee the mutation
    /// is shadowed by a logged same-cycle whole-slot read (see
    /// `replay_if_stale`'s bypass refresh) or happens outside stepping.
    pub fn poke(&mut self, slot: usize) -> &mut FuOp {
        self.slot_mut(slot)
    }

    /// Logged read of a slot's `valid` word.
    pub fn valid(&mut self, slot: usize) -> bool {
        self.log.read(Self::ord(slot, fuw::VALID));
        self.peek(slot).valid
    }

    /// Logged read of a slot's latency countdown.
    pub fn remaining(&mut self, slot: usize) -> u64 {
        self.log.read(Self::ord(slot, fuw::REMAINING));
        self.peek(slot).remaining
    }

    /// Logged read of a slot's ROB tag.
    pub fn rob(&mut self, slot: usize) -> u64 {
        self.log.read(Self::ord(slot, fuw::ROB));
        self.peek(slot).rob
    }

    fn log_all(&mut self, slot: usize, write: bool) {
        if self.log.enabled() {
            for w in 0..fuw::WORDS {
                if write {
                    self.log.write(Self::ord(slot, w));
                } else {
                    self.log.read(Self::ord(slot, w));
                }
            }
        }
    }

    /// Logged whole-slot read: the completing op latches out every field.
    pub fn read_op(&mut self, slot: usize) -> FuOp {
        self.log_all(slot, false);
        self.peek(slot).clone()
    }

    /// Consumes a completing op: whole-slot read, then the slot is freed
    /// (a content-independent overwrite with the idle pattern).
    pub fn take_op(&mut self, slot: usize) -> FuOp {
        self.log_all(slot, false);
        self.log_all(slot, true);
        std::mem::take(self.slot_mut(slot))
    }

    /// Installs a newly issued op: a whole-slot overwrite whose value is
    /// computed entirely from scheduler/regfile state.
    pub fn install(&mut self, slot: usize, op: FuOp) {
        self.log_all(slot, true);
        *self.slot_mut(slot) = op;
    }

    /// Frees a slot without reading its payload (squash, failed replay).
    pub fn clear_slot(&mut self, slot: usize) {
        self.log_all(slot, true);
        *self.slot_mut(slot) = FuOp::default();
    }

    fn slot_mut(&mut self, slot: usize) -> &mut FuOp {
        match slot {
            0 | 1 => &mut self.simple[slot],
            2 => &mut self.complex[0],
            3 => &mut self.branch[0],
            _ => &mut self.agu[slot - 4],
        }
    }

    /// Per-cycle latency countdown. The decrement depends on the word's
    /// prior content, so it is logged as a read (which shadows the
    /// unlogged store in the per-cycle footprint dedup), never a write.
    pub fn tick(&mut self) {
        for slot in 0..Self::SLOTS {
            if self.valid(slot) && self.remaining(slot) > 1 {
                self.slot_mut(slot).remaining -= 1;
            }
        }
    }

    /// All slots, in a fixed deterministic order.
    pub fn all_mut(&mut self) -> impl Iterator<Item = &mut FuOp> {
        self.simple
            .iter_mut()
            .chain(self.complex.iter_mut())
            .chain(self.branch.iter_mut())
            .chain(self.agu.iter_mut())
    }

    /// Clears every slot (full flush): pure whole-slot overwrites.
    pub fn clear(&mut self) {
        for slot in 0..Self::SLOTS {
            self.clear_slot(slot);
        }
    }

    /// Visits all slots (`ptr_ecc` adds the pointer check bits).
    pub fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        for op in self.all_mut() {
            op.visit(v, ptr_ecc);
        }
    }
}

impl Default for FuBank {
    fn default() -> Self {
        FuBank::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_bitstate::{BitCount, Census, InjectionMask};

    #[test]
    fn scheduler_slot_management() {
        let mut s = Scheduler::new();
        assert_eq!(s.free_count(), 32);
        let i = s.free_slot().unwrap();
        s.poke(i).valid = true;
        assert_eq!(s.free_count(), 31);
        assert_ne!(s.free_slot().unwrap(), i);
        s.clear();
        assert_eq!(s.free_count(), 32);
    }

    #[test]
    fn scheduler_log_is_word_granular() {
        let mut s = Scheduler::new();
        s.log.set_enabled(true);
        let _ = s.valid(3);
        s.set_issued(3, true);
        let mut events = Vec::new();
        s.log.drain(|ord, is_write| events.push((ord, is_write)));
        assert_eq!(
            events,
            vec![
                (3 * schedw::WORDS + schedw::VALID, false),
                (3 * schedw::WORDS + schedw::ISSUED, true),
            ]
        );
        // A whole-entry install touches every reserved word exactly once.
        s.install(0, SchedEntry::default());
        let mut writes = 0;
        s.log.drain(|ord, is_write| {
            assert!(is_write);
            assert!(ord < schedw::WORDS);
            writes += 1;
        });
        assert_eq!(writes, schedw::WORDS);
    }

    #[test]
    fn fu_class_decoding_is_total() {
        for bits in 0..8u64 {
            let _ = FuClass::from_bits(bits); // must not panic
        }
        assert_eq!(FuClass::from_bits(3), FuClass::Load);
        assert_eq!(FuClass::from_bits(7), FuClass::Simple);
    }

    #[test]
    fn fu_bank_has_figure2_complement() {
        let mut b = FuBank::new();
        assert_eq!(b.simple.len(), 2);
        assert_eq!(b.complex.len(), 1);
        assert_eq!(b.branch.len(), 1);
        assert_eq!(b.agu.len(), 2);
        assert_eq!(b.all_mut().count(), 6);
    }

    #[test]
    fn scheduler_census_is_ram() {
        let mut s = Scheduler::new();
        let mut census = Census::new();
        s.visit(&mut census, false);
        assert_eq!(census.bits(Category::Insn, StorageKind::Ram), 32 * 32);
        assert_eq!(census.bits(Category::Regptr, StorageKind::Ram), 32 * 28);
        assert_eq!(census.bits(Category::Pc, StorageKind::Ram), 32 * 124);
        let mut latch_only = BitCount::new(InjectionMask::LatchesOnly);
        s.visit(&mut latch_only, false);
        assert_eq!(latch_only.count, 0, "scheduler payloads are RAM");
    }

    #[test]
    fn fu_operand_latches_dominate_data_category() {
        let mut b = FuBank::new();
        let mut census = Census::new();
        b.visit(&mut census, false);
        // 6 units x 3 x 64-bit operand latches.
        assert_eq!(census.bits(Category::Data, StorageKind::Latch), 6 * 192);
        assert_eq!(census.bits(Category::Data, StorageKind::Ram), 0);
    }
}

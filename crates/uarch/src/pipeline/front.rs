//! Front-end phases: rename/dispatch, the decode pipe, and fetch with
//! branch prediction and the instruction cache.

use tfsim_isa::{decode, ExecClass, Mnemonic};
use tfsim_protect::parity32;

use crate::access::AccessLog;
use crate::config::sizes;
use crate::exec::{FuClass, SchedEntry};
use crate::queues::{flw, size_to_log2, ExcCode, LqEntry, RobEntry, SlotPayload, SqEntry};

use super::Pipeline;

/// Advances one front-end latch group toward the next: when every
/// destination slot is free, each valid source slot is copied into the
/// same-numbered destination slot and the source's valid bit is cleared.
///
/// The latches have per-slot write enables: a destination slot whose
/// source is empty keeps its own stale payload (dead-but-vulnerable state,
/// exactly the population the paper's fault model studies) instead of
/// inheriting the neighbour stage's. This is what makes the logging sound:
/// the destination overwrite is computed entirely from the *source* slot
/// (a write), and the source is consumed whole (a read) — whereas logging
/// a `mem::swap` as two writes would falsely claim a fault riding in the
/// source had been erased when it had merely migrated.
fn advance_stage(
    src: &mut [SlotPayload],
    dst: &mut [SlotPayload],
    log: &mut AccessLog,
    src_base: u32,
    dst_base: u32,
) {
    for (i, d) in dst.iter().enumerate() {
        log.read((dst_base + i as u32) * flw::WORDS + flw::VALID);
        if d.valid {
            return;
        }
    }
    for i in 0..src.len() {
        log.read((src_base + i as u32) * flw::WORDS + flw::VALID);
        if !src[i].valid {
            continue;
        }
        if log.enabled() {
            for w in 0..flw::WORDS {
                log.read((src_base + i as u32) * flw::WORDS + w);
                log.write((dst_base + i as u32) * flw::WORDS + w);
            }
        }
        dst[i] = src[i].clone();
        log.write((src_base + i as u32) * flw::WORDS + flw::VALID);
        src[i].valid = false;
    }
}

impl Pipeline {
    /// Logged read of a front-end latch slot's `valid` word.
    pub(crate) fn flatch_read_valid(&mut self, slot: u32) {
        self.flatch_log.read(slot * flw::WORDS + flw::VALID);
    }

    /// Logged whole-slot read of a front-end latch slot.
    pub(crate) fn flatch_read_all(&mut self, slot: u32) {
        if self.flatch_log.enabled() {
            for w in 0..flw::WORDS {
                self.flatch_log.read(slot * flw::WORDS + w);
            }
        }
    }

    /// Logged whole-slot overwrite of a front-end latch slot. Only valid
    /// for stores whose value cannot depend on the slot's prior content.
    pub(crate) fn flatch_write_all(&mut self, slot: u32) {
        if self.flatch_log.enabled() {
            for w in 0..flw::WORDS {
                self.flatch_log.write(slot * flw::WORDS + w);
            }
        }
    }

    /// Rename/dispatch: up to 4 instructions from the rename latch get
    /// physical registers, ROB entries, scheduler slots, and LSQ slots.
    /// Stalls in order at the first resource shortage.
    pub(crate) fn rename_phase(&mut self) {
        for i in 0..sizes::DECODE_WIDTH {
            self.flatch_read_valid(flw::REN + i as u32);
            if !self.ren[i].valid {
                continue;
            }
            // The rename stage latches out the whole payload (even when a
            // resource stall leaves the slot valid for a retry).
            self.flatch_read_all(flw::REN + i as u32);
            let p = self.ren[i].clone();
            let insn = decode(p.raw as u32);
            let class = insn.exec_class();
            let effectful = !p.fetch_fault;
            let needs_sched = effectful && class != ExecClass::Pal;
            let dst = if effectful { insn.dst() } else { None };

            // Resource checks (in-order stall).
            if self.rob.is_full() {
                break;
            }
            // Reserve the scheduler slot here, at the resource check. A
            // flipped valid bit can make a later re-scan of the slot array
            // disagree with this check (the classic occupancy TOCTOU), so
            // dispatch must reuse the slot found now instead of asking
            // again; when no slot exists the stage simply stalls.
            let sched_slot = if needs_sched {
                match self.sched.free_slot() {
                    Some(s) => s,
                    None => break,
                }
            } else {
                0
            };
            if effectful && insn.is_load() && self.lsq.lq_free() == 0 {
                break;
            }
            if effectful && insn.is_store() && self.lsq.sq_free() == 0 {
                break;
            }
            if dst.is_some() && self.spec_fl.is_empty() {
                break;
            }

            // Source renaming (CMOV's third source is its old destination,
            // already expressed by Insn::srcs).
            let mut src_pregs = [0u64; 3];
            let mut src_needed = [false; 3];
            if effectful {
                for (s, src) in insn.srcs().iter().enumerate() {
                    if let Some(r) = src {
                        src_pregs[s] = self.spec_rat.read(r.number() as u64);
                        src_needed[s] = true;
                    }
                }
            }

            // Destination renaming.
            let (has_dst, dst_areg, dst_preg, old_preg) = match dst {
                Some(r) => {
                    let newp = self.spec_fl.pop().unwrap_or(0x7f);
                    let old = self.spec_rat.read(r.number() as u64);
                    self.spec_rat.write(r.number() as u64, newp);
                    self.regfile.set_ready(newp, false);
                    if let Some(b) = self.spec_ready.get_mut(newp as usize) {
                        *b = false;
                    }
                    (true, r.number() as u64, newp, old)
                }
                None => (false, 0, 0, 0),
            };

            // The instruction completes at dispatch when it never executes
            // in a functional unit: PAL calls (handled at retire), illegal
            // words (trap at retire), and fetch faults (ITLB trap).
            let exc = if p.fetch_fault {
                ExcCode::Itlb
            } else if insn.mnemonic == Mnemonic::Illegal {
                ExcCode::Illegal
            } else {
                ExcCode::None
            };
            let completed = !needs_sched || exc != ExcCode::None;

            let src_ecc = [
                self.ptr_check(src_pregs[0]),
                self.ptr_check(src_pregs[1]),
                self.ptr_check(src_pregs[2]),
            ];
            let dst_ecc = self.ptr_check(dst_preg);
            let old_ecc = self.ptr_check(old_preg);

            let rob_tag = self.rob.alloc(RobEntry {
                pc: p.pc,
                next_pc: p.pc.wrapping_add(4),
                raw: p.raw,
                dst_areg,
                has_dst,
                dst_preg,
                old_preg,
                completed,
                exc: exc as u64,
                is_store: effectful && exc == ExcCode::None && insn.is_store(),
                is_load: effectful && exc == ExcCode::None && insn.is_load(),
                lsq: 0,
                is_branch: effectful && insn.is_control(),
                parity: p.parity,
                pred_taken: p.pred_taken,
                ghr_snapshot: p.ghr_snapshot,
                ras_snapshot: p.ras_snapshot,
                dst_ecc,
                old_ecc,
                fetch_cycle: p.fetch_cycle,
            });

            // LSQ allocation.
            let mut lsq_idx = 0u64;
            let mut wait_sq = (0u64, false);
            if self.rob.entry(rob_tag).is_load {
                let lq_dst = if has_dst { dst_preg } else { 0x7f };
                lsq_idx = self.lsq.alloc_load(LqEntry {
                    rob: rob_tag,
                    dst_preg: lq_dst,
                    dst_ecc: self.ptr_check(lq_dst),
                    pc: p.pc,
                    raw: p.raw,
                    size_log2: size_to_log2(insn.access_size()),
                    ..Default::default()
                });
                if let Some(sq) = self.storesets.load_dispatched(p.pc) {
                    wait_sq = (sq, true);
                }
            } else if self.rob.entry(rob_tag).is_store {
                lsq_idx = self.lsq.alloc_store(SqEntry {
                    rob: rob_tag,
                    pc: p.pc,
                    size_log2: size_to_log2(insn.access_size()),
                    ..Default::default()
                });
                self.storesets.store_dispatched(p.pc, lsq_idx);
            }
            self.rob.entry_mut(rob_tag).lsq = lsq_idx;

            // Scheduler dispatch.
            if !completed {
                let fu_class = match class {
                    ExecClass::SimpleAlu => FuClass::Simple,
                    ExecClass::ComplexAlu => FuClass::Complex,
                    ExecClass::Branch => FuClass::Branch,
                    ExecClass::Load => FuClass::Load,
                    ExecClass::Store => FuClass::Store,
                    ExecClass::Pal => FuClass::Simple,
                };
                self.sched.install(sched_slot, SchedEntry {
                    valid: true,
                    issued: false,
                    raw: p.raw,
                    pc: p.pc,
                    srcs: src_pregs,
                    src_needed,
                    dst_preg,
                    has_dst,
                    rob: rob_tag,
                    lsq: lsq_idx,
                    class: fu_class as u64,
                    pred_taken: p.pred_taken,
                    pred_target: p.pred_target,
                    wait_sq: wait_sq.0,
                    wait_sq_valid: wait_sq.1,
                    src_ecc,
                    dst_ecc,
                });
            }

            // Consuming the instruction clears only the valid bit (a
            // constant store, logged as a write); the payload goes stale
            // in place.
            self.flatch_log.write((flw::REN + i as u32) * flw::WORDS + flw::VALID);
            self.ren[i].valid = false;
        }
    }

    /// Advances the decode pipe: FQ → dec1 → dec2 → ren, each 4-wide,
    /// moving a group only when the next latch is empty (per-slot write
    /// enables — see [`advance_stage`]).
    pub(crate) fn decode_phase(&mut self) {
        advance_stage(&mut self.dec2, &mut self.ren, &mut self.flatch_log, flw::DEC2, flw::REN);
        advance_stage(&mut self.dec1, &mut self.dec2, &mut self.flatch_log, flw::DEC1, flw::DEC2);
        let mut dec1_free = true;
        for i in 0..sizes::DECODE_WIDTH {
            self.flatch_read_valid(flw::DEC1 + i as u32);
            if self.dec1[i].valid {
                dec1_free = false;
                break;
            }
        }
        if dec1_free {
            for i in 0..sizes::DECODE_WIDTH {
                match self.fq.pop() {
                    Some(p) => {
                        self.flatch_write_all(flw::DEC1 + i as u32);
                        self.dec1[i] = p;
                    }
                    None => break,
                }
            }
        }
    }

    /// Fetch: redirect handling, fetch-buffer shifting, instruction-cache
    /// access, branch prediction, and split-line group formation.
    pub(crate) fn fetch_phase(&mut self) {
        if self.redirect_valid {
            self.fetch_pc = self.redirect_pc & !3;
            self.redirect_valid = false;
        }

        // Oldest fetch buffer drains into the fetch queue when it fits.
        // Every slot's valid bit decides the drain, so all eight reads are
        // logged up front (they shadow the clearing writes below).
        let mut oldest_count = 0u64;
        for i in 0..sizes::FETCH_WIDTH {
            self.flatch_read_valid(flw::fstage(2, i));
            if self.fstages[2][i].valid {
                oldest_count += 1;
            }
        }
        if oldest_count > 0 && self.fq.free() >= oldest_count {
            let mut stage = std::mem::take(&mut self.fstages[2]);
            for (i, slot) in stage.iter_mut().enumerate() {
                if slot.valid {
                    // The push consumes the slot whole.
                    self.flatch_read_all(flw::fstage(2, i));
                    self.fq.push(std::mem::take(slot));
                } else {
                    // Idle slots are cleared with the group: a
                    // content-independent overwrite.
                    self.flatch_write_all(flw::fstage(2, i));
                }
                *slot = SlotPayload::default();
            }
            self.fstages[2] = stage;
        }
        // Stages shift forward when the next stage is free.
        {
            let (head, tail) = self.fstages.split_at_mut(2);
            advance_stage(
                &mut head[1],
                &mut tail[0],
                &mut self.flatch_log,
                flw::fstage(1, 0),
                flw::fstage(2, 0),
            );
        }
        {
            let (head, tail) = self.fstages.split_at_mut(1);
            advance_stage(
                &mut head[0],
                &mut tail[0],
                &mut self.flatch_log,
                flw::fstage(0, 0),
                flw::fstage(1, 0),
            );
        }
        for i in 0..sizes::FETCH_WIDTH {
            self.flatch_read_valid(flw::fstage(0, i));
            if self.fstages[0][i].valid {
                return; // back-pressure: no room for a new group
            }
        }
        if self.ifill_valid {
            return; // waiting on an instruction-cache fill
        }

        let mut pc = self.fetch_pc & !3;
        let line0 = pc & !(sizes::LINE_BYTES - 1);
        if !self.icache.access(pc) {
            self.stats.icache_misses += 1;
            self.ifill_valid = true;
            self.ifill_addr = line0;
            self.ifill_timer = sizes::MISS_LATENCY as u64;
            return;
        }

        let mut group: Vec<SlotPayload> = Vec::with_capacity(sizes::FETCH_WIDTH);
        let mut second_line_checked = false;
        for _ in 0..sizes::FETCH_WIDTH {
            let line = pc & !(sizes::LINE_BYTES - 1);
            if line != line0 {
                // Split-line fetch may cross into exactly one more line.
                if line != line0 + sizes::LINE_BYTES {
                    break;
                }
                if !second_line_checked {
                    second_line_checked = true;
                    if !self.icache.access(pc) {
                        self.ifill_valid = true;
                        self.ifill_addr = line;
                        self.ifill_timer = sizes::MISS_LATENCY as u64;
                        break;
                    }
                }
            }

            let fault = !self.itlb.covers(pc, 4);
            let raw = if fault { 0 } else { self.mem.read_u32(pc) };
            let insn = decode(raw);
            let ghr_snapshot = self.bpred.ghr();

            let mut taken = false;
            let mut target = 0u64;
            if !fault && insn.is_control() {
                match insn.mnemonic {
                    Mnemonic::Br | Mnemonic::Bsr => {
                        taken = true;
                        target = insn.branch_target(pc);
                    }
                    Mnemonic::Jmp | Mnemonic::Jsr => {
                        if let Some(t) = self.btb.lookup(pc) {
                            taken = true;
                            target = t;
                        }
                    }
                    Mnemonic::Ret => {
                        taken = true;
                        target = self.ras.pop();
                    }
                    _ => {
                        taken = self.bpred.predict(pc);
                        target = insn.branch_target(pc);
                        self.bpred.speculate(taken);
                    }
                }
                if insn.is_call() {
                    self.ras.push(pc.wrapping_add(4));
                }
            }

            group.push(SlotPayload {
                valid: true,
                raw: raw as u64,
                pc,
                pred_taken: taken,
                pred_target: target & !3,
                fetch_fault: fault,
                parity: self.config.insn_parity && parity32(raw),
                ghr_snapshot,
                ras_snapshot: self.ras.pointer(),
                fetch_cycle: self.cycles,
            });

            if taken {
                pc = target & !3;
                break;
            }
            pc = pc.wrapping_add(4);
        }

        for (i, slot) in group.into_iter().enumerate() {
            // A fresh fetch group overwrites the filled slots whole;
            // unfilled lanes keep their stale payloads.
            self.flatch_write_all(flw::fstage(0, i));
            self.fstages[0][i] = slot;
        }
        self.fetch_pc = pc;
    }
}

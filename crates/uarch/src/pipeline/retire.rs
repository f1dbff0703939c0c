//! The retire stage: in-order commit of up to 8 instructions per cycle,
//! architectural rename-map/free-list updates, store seniorization,
//! syscall execution, exception delivery, and the instruction-word parity
//! check of the protection suite.

use tfsim_arch::{RetireRecord, StoreRecord};
use tfsim_isa::{decode, syscall, Mnemonic, PalFunc, Reg};
use tfsim_protect::parity32;

use crate::config::sizes;
use crate::queues::{areg, ExcCode};

use super::{CycleReport, FlowEvent, Pipeline, RetireEvent};

impl Pipeline {
    pub(crate) fn retire_phase(&mut self, report: &mut CycleReport) {
        for _ in 0..sizes::RETIRE_WIDTH {
            if self.rob.is_empty() {
                break;
            }
            let head_tag = self.rob.head_tag();
            if !self.rob.entry(head_tag).completed {
                break;
            }

            // Instruction-word parity: a mismatch means the word was
            // corrupted in flight; flush before it can write architectural
            // state, then refetch from this instruction.
            if self.config.insn_parity {
                let e = self.rob.entry(head_tag);
                if parity32(e.raw as u32) != e.parity {
                    let target = e.pc;
                    self.full_flush(target);
                    report.protective_flush = true;
                    break;
                }
            }

            let exc = ExcCode::from_bits(self.rob.entry(head_tag).exc);
            if exc != ExcCode::None {
                self.excepted = Some(exc);
                report.events.push(RetireEvent::Exception(exc));
                break;
            }

            let insn = decode(self.rob.entry(head_tag).raw as u32);
            if insn.mnemonic == Mnemonic::CallPal {
                // Syscalls must observe all prior stores: wait for the
                // senior store buffer to drain first.
                let senior_pending = (0..sizes::STORE_QUEUE)
                    .any(|i| self.lsq.sq_valid(i) && self.lsq.sq_senior(i));
                if senior_pending {
                    break;
                }
                match insn.pal {
                    PalFunc::Halt => {
                        self.halted = Some(0);
                        report.events.push(RetireEvent::Halted { code: 0 });
                        return;
                    }
                    PalFunc::CallSys => {
                        if !self.retire_syscall(report) {
                            return;
                        }
                    }
                    PalFunc::Other(_) => {
                        self.excepted = Some(ExcCode::BadPal);
                        report.events.push(RetireEvent::Exception(ExcCode::BadPal));
                        return;
                    }
                }
            }

            let mut e = self.rob.entry(head_tag).clone();
            // Pointer-ECC repair point: the commit-side pointers.
            if self.config.pointer_ecc {
                e.dst_preg = self.ptr_repair(e.dst_preg, e.dst_ecc);
                e.old_preg = self.ptr_repair(e.old_preg, e.old_ecc);
            }

            // Store commit: hand the entry to the senior store buffer
            // (which survives pipeline flushes and drains to the cache).
            let mut store_rec = None;
            if e.is_store {
                let idx = (e.lsq as usize) % sizes::STORE_QUEUE;
                store_rec = Some(StoreRecord {
                    addr: self.lsq.sq_addr(idx),
                    value: self.lsq.sq_data(idx),
                    size: self.lsq.sq_size(idx),
                });
                self.lsq.set_sq_senior(idx, true);
            }

            // Commit the rename: the architectural map adopts the new
            // mapping; the displaced physical register becomes free in
            // both free lists. The architectural list's pop mirrors the
            // speculative pop rename performed for this instruction.
            let mut dst_rec = None;
            if e.has_dst {
                let _allocated = self.arch_fl.pop();
                self.arch_rat.write(e.dst_areg, e.dst_preg);
                self.arch_fl.push(e.old_preg);
                self.spec_fl.push(e.old_preg);
                dst_rec = Some((areg(e.dst_areg), self.regfile.read(e.dst_preg)));
            }

            if e.is_load {
                self.lsq.free_load_head();
            }

            // The committed flow: non-branch instructions advance by 4 by
            // wiring; only control transfers consume the stored target
            // (the stored next_pc bits of other entries are dead state).
            let next_pc = if e.is_branch { e.next_pc } else { e.pc.wrapping_add(4) };
            self.arch_pc = next_pc;
            self.rob.retire_head();
            let record = RetireRecord {
                seq: self.instret,
                pc: e.pc,
                next_pc,
                raw: e.raw as u32,
                dst: dst_rec.filter(|(r, _)| !r.is_zero()),
                store: store_rec,
            };
            self.instret += 1;
            report.retired += 1;
            if let Some(log) = self.flow_log.as_mut() {
                log.push(FlowEvent { fetch: e.fetch_cycle, commit: self.cycles });
            }
            report.events.push(RetireEvent::Retired(record));
        }
    }

    /// Executes a `callsys` at the head of the ROB (reading architectural
    /// register values through the architectural RAT). Returns `false`
    /// when the machine stopped.
    fn retire_syscall(&mut self, report: &mut CycleReport) -> bool {
        let v0 = self.arch_reg(Reg::V0);
        match v0 {
            syscall::EXIT => {
                let code = self.arch_reg(Reg::A0);
                self.halted = Some(code);
                report.events.push(RetireEvent::Halted { code });
                false
            }
            syscall::WRITE => {
                let buf = self.arch_reg(Reg::A1);
                let len = self.arch_reg(Reg::A2).min(1 << 20);
                for i in 0..len {
                    let b = self.mem.read_u8(buf.wrapping_add(i));
                    self.output.push(b);
                }
                true
            }
            _ => {
                self.excepted = Some(ExcCode::BadPal);
                report.events.push(RetireEvent::Exception(ExcCode::BadPal));
                false
            }
        }
    }

    /// Reads an architectural register through the architectural RAT.
    ///
    /// Meaningful between instructions (e.g. after a halt); mid-flight the
    /// value reflects the most recently *retired* writer.
    pub fn arch_reg(&mut self, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        let preg = self.arch_rat.read(r.number() as u64);
        self.regfile.read(preg)
    }

    /// Dumps all 32 architectural registers (committed state).
    pub fn arch_regs(&mut self) -> [u64; 32] {
        let mut out = [0u64; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.arch_reg(Reg::from_number(i as u8));
        }
        out
    }
}

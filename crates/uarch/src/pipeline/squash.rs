//! Squash and recovery machinery: branch-misprediction ROB walks,
//! memory-order violation squashes, and the full pipeline flush used by
//! exceptions and the protection mechanisms.

use crate::config::sizes;
use crate::exec::FuBank;
use crate::queues::{flw, SlotPayload};

use super::Pipeline;

impl Pipeline {
    /// Requests a fetch redirect (consumed by the next fetch phase).
    pub(crate) fn redirect(&mut self, pc: u64) {
        self.redirect_valid = true;
        self.redirect_pc = pc & !3;
    }

    /// Clears every instruction in the fetch buffers, fetch queue, and
    /// decode/rename pipe: each latch slot is logged as a whole-slot
    /// overwrite.
    pub(crate) fn clear_frontend(&mut self) {
        for slot in 0..flw::SLOTS {
            self.flatch_write_all(slot);
        }
        let latches = self.fstages.iter_mut().flatten();
        for slot in latches.chain(&mut self.dec1).chain(&mut self.dec2).chain(&mut self.ren) {
            *slot = SlotPayload::default();
        }
        self.fq.clear();
    }

    /// Squashes everything younger than `tag` (and `tag` itself when
    /// `inclusive`): clears the front end, walks the ROB tail back while
    /// rolling the speculative RAT and free list back, trims the LSQ, and
    /// clears matching scheduler entries and functional units.
    ///
    /// With `inclusive`, fetch is redirected at the squashed instruction's
    /// own PC (memory-order violation replay).
    pub(crate) fn squash_after(&mut self, tag: u64, inclusive: bool) {
        let cap = sizes::ROB as u64;
        let refetch_pc = inclusive.then(|| self.rob.entry(tag).pc);

        self.clear_frontend();

        // Walk the ROB from the tail toward `tag`.
        loop {
            if self.rob.is_empty() {
                break;
            }
            let youngest = (self.rob.tail + cap - 1) % cap;
            if !inclusive && youngest == tag % cap {
                break;
            }
            let stop_after = inclusive && youngest == tag % cap;
            let e = self.rob.pop_tail();
            if e.has_dst {
                // Return the allocated register to the head of the free
                // list (the RAT itself is rebuilt below).
                self.spec_fl.unpop(e.dst_preg);
            }
            if e.is_load {
                self.lsq.pop_load_tail();
            }
            if e.is_store {
                self.lsq.pop_store_tail();
            }
            if stop_after {
                break;
            }
        }

        // Clear scheduler entries and FU ops belonging to squashed
        // instructions (anything younger than the new tail).
        let cutoff = self.rob.age(tag);
        let keep = |age: u64| if inclusive { age < cutoff } else { age <= cutoff };
        for i in 0..sizes::SCHEDULER {
            if self.sched.valid(i) {
                let age = self.rob.age(self.sched.rob(i));
                if !keep(age) {
                    self.sched.clear_slot(i);
                }
            }
        }
        for slot in 0..FuBank::SLOTS {
            if self.fus.valid(slot) {
                let rob_tag = self.fus.rob(slot);
                if !keep(self.rob.age(rob_tag)) {
                    self.fus.clear_slot(slot);
                }
            }
        }

        // Rebuild the speculative RAT: copy the architectural map and
        // re-apply the mappings of the surviving in-flight instructions
        // (Alpha-21264-style recovery — this is what makes the
        // architectural RAT live, frequently read state, and hence one of
        // the paper's most vulnerable structures).
        self.spec_rat.copy_from(&mut self.arch_rat);
        let survivors = self.rob.len();
        for k in 0..survivors {
            let tag = (self.rob.head + k) % sizes::ROB as u64;
            let e = self.rob.entry(tag);
            if e.has_dst {
                let (areg, preg) = (e.dst_areg, e.dst_preg);
                self.spec_rat.write(areg, preg);
            }
        }

        // LFST references squashed SQ slots; speculative wakeup windows of
        // squashed loads are no longer trustworthy.
        self.storesets.clear_lfst();
        for b in self.spec_ready.iter_mut() {
            *b = false;
        }

        if let Some(pc) = refetch_pc {
            self.redirect(pc);
        }
    }

    /// Full pipeline flush: discard every unretired instruction and
    /// restore speculative rename state from the architectural copies.
    /// Senior stores keep draining. Fetch restarts at `refetch_pc`.
    pub(crate) fn full_flush(&mut self, refetch_pc: u64) {
        self.stats.full_flushes += 1;
        self.clear_frontend();
        while !self.rob.is_empty() {
            self.rob.pop_tail();
        }
        self.rob.clear();
        self.sched.clear();
        self.fus.clear();
        self.lsq.flush_keep_senior();
        self.spec_rat.copy_from(&mut self.arch_rat);
        self.spec_fl.copy_from(&mut self.arch_fl);
        self.regfile.all_ready();
        for b in self.spec_ready.iter_mut() {
            *b = false;
        }
        self.mhrs.clear();
        self.storesets.clear_lfst();
        self.redirect(refetch_pc);
    }
}

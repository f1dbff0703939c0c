//! The full-machine state walk: every latch bit and RAM cell of the
//! pipeline, in a fixed deterministic order, categorized per Table 1.
//!
//! The walk is bracketed into [`UnitId`] fingerprint units so fingerprint
//! engines can keep per-unit subhashes, and so injection telemetry can
//! attribute a flipped bit to the pipeline unit owning it
//! (`FlipBit` notes the innermost open bracket when its target bit goes
//! by). The brackets never affect bit numbering: census and injection
//! visitors see the identical field order whether or not they observe
//! `enter_unit`, so a trial's target index means the same thing with
//! tracing on or off.
//!
//! The latch-dense units that change almost every cycle (`Front` …
//! `ArchCtrl`) are hashed word by word on every walk. The *shadow units*
//! (predictors, BTB, RAS, cache tags, store sets) hold 89% of the machine's
//! words but are never injected, so each structure maintains its own
//! content digest (`UnitDigest`) inside the mutation methods that write
//! it, and the walk hands that digest over as the unit's subhash: a cached
//! engine reads it without visiting a word, while the flat `Fingerprint`
//! recomputes it from the fields visited here and, in debug builds,
//! asserts the two agree.

use tfsim_bitstate::{
    visit_bool, visit_pc, Category, FieldMeta, StateVisitor, StorageKind, UnitDigest, UnitId,
    VisitState,
};

use super::Pipeline;

impl VisitState for Pipeline {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let latch = StorageKind::Latch;
        let ctrl = FieldMeta::new(Category::Ctrl, latch);
        let parity_on = self.config.insn_parity;
        let ptr_ecc = self.config.pointer_ecc;

        // The latch units keep no digest: engines hash their words.
        if v.enter_unit(UnitId::Front, None) {
            // Fetch control.
            visit_pc(v, latch, &mut self.fetch_pc);
            visit_bool(v, FieldMeta::new(Category::Valid, latch), &mut self.redirect_valid);
            visit_pc(v, latch, &mut self.redirect_pc);
            visit_bool(v, FieldMeta::new(Category::Valid, latch), &mut self.ifill_valid);
            {
                // The fill address is line-aligned: 58 meaningful bits.
                let mut line = self.ifill_addr >> 6;
                v.field(FieldMeta::new(Category::Addr, latch), 58, &mut line);
                self.ifill_addr = line << 6;
            }
            v.field(ctrl, 4, &mut self.ifill_timer);

            // Fetch buffers (3 stages x 8 slots of pipeline latches).
            for stage in self.fstages.iter_mut() {
                for slot in stage.iter_mut() {
                    slot.visit(v, latch, parity_on);
                }
            }
            self.fq.visit(v, parity_on);

            // Decode/rename pipe latches.
            for slot in self.dec1.iter_mut() {
                slot.visit(v, latch, parity_on);
            }
            for slot in self.dec2.iter_mut() {
                slot.visit(v, latch, parity_on);
            }
            for slot in self.ren.iter_mut() {
                slot.visit(v, latch, parity_on);
            }
            v.exit_unit(UnitId::Front);
        }

        if v.enter_unit(UnitId::Rename, None) {
            self.spec_rat.visit(v);
            self.arch_rat.visit(v);
            self.spec_fl.visit(v);
            self.arch_fl.visit(v);
            v.exit_unit(UnitId::Rename);
        }

        if v.enter_unit(UnitId::Sched, None) {
            self.sched.visit(v, ptr_ecc);
            v.exit_unit(UnitId::Sched);
        }
        if v.enter_unit(UnitId::Rob, None) {
            self.rob.visit(v, parity_on, ptr_ecc);
            v.exit_unit(UnitId::Rob);
        }
        if v.enter_unit(UnitId::Lsq, None) {
            self.lsq.visit(v, ptr_ecc);
            v.exit_unit(UnitId::Lsq);
        }
        if v.enter_unit(UnitId::Fus, None) {
            self.fus.visit(v, ptr_ecc);
            v.exit_unit(UnitId::Fus);
        }

        if v.enter_unit(UnitId::Regfile, None) {
            self.regfile.visit(v);
            v.exit_unit(UnitId::Regfile);
        }

        // Each unit may appear at most once per walk, and the regfile sits
        // between the out-of-order-window units and these fields in the
        // (frozen) field order, so the speculative-ready bits and MHRs ride
        // in the ArchCtrl bracket.
        if v.enter_unit(UnitId::ArchCtrl, None) {
            for b in self.spec_ready.iter_mut() {
                visit_bool(v, ctrl, b);
            }
            self.mhrs.visit_state(v);

            // Architectural bookkeeping latches.
            visit_pc(v, latch, &mut self.arch_pc);
            if self.config.timeout_counter {
                v.field(ctrl, 10, &mut self.watchdog.count);
            }
            v.exit_unit(UnitId::ArchCtrl);
        }

        // Shadow state: prediction and cache tag arrays (fingerprinted for
        // the µArch Match comparison, excluded from injection), each with
        // its maintained content digest.
        let digest = |d: UnitDigest| Some(d.value());
        if v.enter_unit(UnitId::Bpred, digest(self.bpred.digest())) {
            self.bpred.visit_state(v);
            v.exit_unit(UnitId::Bpred);
        }
        if v.enter_unit(UnitId::Btb, digest(self.btb.digest())) {
            self.btb.visit_state(v);
            v.exit_unit(UnitId::Btb);
        }
        if v.enter_unit(UnitId::Ras, digest(self.ras.digest())) {
            self.ras.visit_state(v);
            v.exit_unit(UnitId::Ras);
        }
        if v.enter_unit(UnitId::Icache, digest(self.icache.digest())) {
            self.icache.visit_state(v);
            v.exit_unit(UnitId::Icache);
        }
        if v.enter_unit(UnitId::Dcache, digest(self.dcache.digest())) {
            self.dcache.visit_state(v);
            v.exit_unit(UnitId::Dcache);
        }
        if v.enter_unit(UnitId::StoreSets, digest(self.storesets.digest())) {
            self.storesets.visit_state(v);
            v.exit_unit(UnitId::StoreSets);
        }
    }
}

//! Branch prediction: hybrid (bimodal + local + global) direction
//! predictor, 1024-entry 4-way BTB, and an 8-entry return address stack
//! with pointer recovery — the paper's Figure 2 front end.
//!
//! Prediction state only affects *timing*, never correctness (every
//! prediction is verified at execute), so the paper excludes it from fault
//! injection. All state here is therefore registered as *shadow* state:
//! fingerprinted for the µArch Match comparison but never injected.

use tfsim_bitstate::{Category, FieldMeta, StateVisitor, StorageKind, UnitDigest, VisitState};

const BIMODAL_ENTRIES: usize = 4096;
const LOCAL_ENTRIES: usize = 1024;
const LOCAL_HIST_BITS: u32 = 10;
const GLOBAL_ENTRIES: usize = 4096;
const GHR_BITS: u32 = 12;

// Digest ordinals: each table's first word in the predictor's visit order.
const ORD_LOCAL_HIST: usize = BIMODAL_ENTRIES;
const ORD_LOCAL_PRED: usize = ORD_LOCAL_HIST + LOCAL_ENTRIES;
const ORD_GLOBAL_PRED: usize = ORD_LOCAL_PRED + (1 << LOCAL_HIST_BITS);
const ORD_CHOOSE_LG: usize = ORD_GLOBAL_PRED + GLOBAL_ENTRIES;
const ORD_CHOOSE_HB: usize = ORD_CHOOSE_LG + GLOBAL_ENTRIES;
const ORD_GHR: usize = ORD_CHOOSE_HB + GLOBAL_ENTRIES;

fn pc_index(pc: u64, entries: usize) -> usize {
    ((pc >> 2) as usize) & (entries - 1)
}

fn bump(counter: u64, taken: bool, max: u64) -> u64 {
    if taken {
        (counter + 1).min(max)
    } else {
        counter.saturating_sub(1)
    }
}

/// McFarling-style hybrid direction predictor: a bimodal table, a
/// two-level local predictor, a gshare global predictor, and two choosers
/// (local-vs-global, then hybrid-vs-bimodal).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<u64>,     // 2-bit counters
    local_hist: Vec<u64>,  // 10-bit histories
    local_pred: Vec<u64>,  // 3-bit counters indexed by local history
    global_pred: Vec<u64>, // 2-bit counters indexed by pc ^ ghr
    choose_lg: Vec<u64>,   // 2-bit: local (low) vs global (high)
    choose_hb: Vec<u64>,   // 2-bit: bimodal (low) vs hybrid (high)
    ghr: u64,
    digest: UnitDigest, // maintained content digest of everything above
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken initial state.
    pub fn new() -> BranchPredictor {
        let mut p = BranchPredictor {
            bimodal: vec![1; BIMODAL_ENTRIES],
            local_hist: vec![0; LOCAL_ENTRIES],
            local_pred: vec![3; 1 << LOCAL_HIST_BITS],
            global_pred: vec![1; GLOBAL_ENTRIES],
            choose_lg: vec![1; GLOBAL_ENTRIES],
            choose_hb: vec![2; GLOBAL_ENTRIES],
            ghr: 0,
            digest: UnitDigest::default(),
        };
        p.digest = UnitDigest::of(&mut p);
        p
    }

    /// The maintained content digest: the predictor's fingerprint subhash.
    pub fn digest(&self) -> UnitDigest {
        self.digest
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let b = self.bimodal[pc_index(pc, BIMODAL_ENTRIES)] >= 2;
        let lh = self.local_hist[pc_index(pc, LOCAL_ENTRIES)] as usize;
        let l = self.local_pred[lh] >= 4;
        let gi = self.global_index(pc);
        let g = self.global_pred[gi] >= 2;
        let hybrid = if self.choose_lg[gi] >= 2 { g } else { l };
        if self.choose_hb[pc_index(pc, GLOBAL_ENTRIES)] >= 2 {
            hybrid
        } else {
            b
        }
    }

    fn global_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.ghr) as usize) & (GLOBAL_ENTRIES - 1)
    }

    /// The current speculative global history (snapshot this at fetch so a
    /// squash can restore it).
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Restores the global history after a squash.
    pub fn restore_ghr(&mut self, ghr: u64) {
        self.digest.store(ORD_GHR, &mut self.ghr, ghr & ((1 << GHR_BITS) - 1));
    }

    /// Speculatively shifts a predicted direction into the global history
    /// (called at fetch for every conditional branch).
    pub fn speculate(&mut self, taken: bool) {
        let new = ((self.ghr << 1) | taken as u64) & ((1 << GHR_BITS) - 1);
        self.digest.store(ORD_GHR, &mut self.ghr, new);
    }

    /// Trains all components with the resolved outcome. `ghr_at_fetch` is
    /// the history snapshot taken when the branch was fetched (so the
    /// global component trains against the indices it predicted with).
    pub fn train(&mut self, pc: u64, taken: bool, ghr_at_fetch: u64) {
        let bi = pc_index(pc, BIMODAL_ENTRIES);
        let li = pc_index(pc, LOCAL_ENTRIES);
        let lh = self.local_hist[li] as usize;
        let gi = (((pc >> 2) ^ ghr_at_fetch) as usize) & (GLOBAL_ENTRIES - 1);

        let b_correct = (self.bimodal[bi] >= 2) == taken;
        let l_correct = (self.local_pred[lh] >= 4) == taken;
        let g_correct = (self.global_pred[gi] >= 2) == taken;
        let hybrid_correct = if self.choose_lg[gi] >= 2 { g_correct } else { l_correct };

        let d = &mut self.digest;
        // Choosers move toward the component that was right.
        if g_correct != l_correct {
            let new = bump(self.choose_lg[gi], g_correct, 3);
            d.store(ORD_CHOOSE_LG + gi, &mut self.choose_lg[gi], new);
        }
        if hybrid_correct != b_correct {
            let hi = pc_index(pc, GLOBAL_ENTRIES);
            let new = bump(self.choose_hb[hi], hybrid_correct, 3);
            d.store(ORD_CHOOSE_HB + hi, &mut self.choose_hb[hi], new);
        }

        let new = bump(self.bimodal[bi], taken, 3);
        d.store(bi, &mut self.bimodal[bi], new);
        let new = bump(self.local_pred[lh], taken, 7);
        d.store(ORD_LOCAL_PRED + lh, &mut self.local_pred[lh], new);
        let new = bump(self.global_pred[gi], taken, 3);
        d.store(ORD_GLOBAL_PRED + gi, &mut self.global_pred[gi], new);
        let new = ((self.local_hist[li] << 1) | taken as u64) & ((1 << LOCAL_HIST_BITS) - 1);
        d.store(ORD_LOCAL_HIST + li, &mut self.local_hist[li], new);
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new()
    }
}

impl VisitState for BranchPredictor {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let m = FieldMeta::shadow(Category::Ctrl, StorageKind::Ram);
        v.array(m, 2, &mut self.bimodal);
        v.array(m, LOCAL_HIST_BITS, &mut self.local_hist);
        v.array(m, 3, &mut self.local_pred);
        v.array(m, 2, &mut self.global_pred);
        v.array(m, 2, &mut self.choose_lg);
        v.array(m, 2, &mut self.choose_hb);
        v.field(FieldMeta::shadow(Category::Ctrl, StorageKind::Latch), GHR_BITS, &mut self.ghr);
    }
}

/// Branch target buffer: 1024 entries, 4-way set-associative, holding the
/// last seen target of taken control transfers (used for indirect jumps;
/// direct targets are decoded from the instruction bits at fetch).
#[derive(Debug, Clone)]
pub struct Btb {
    // Per way: valid, tag, target. 256 sets x 4 ways.
    valid: Vec<u64>,
    tags: Vec<u64>,
    targets: Vec<u64>,
    lru: Vec<u64>, // 2-bit round-robin pointer per set
    digest: UnitDigest, // maintained content digest of everything above
}

const BTB_SETS: usize = 256;
const BTB_WAYS: usize = 4;

// Digest ordinals: each array's first word in the BTB's visit order.
const ORD_BTB_TAGS: usize = BTB_SETS * BTB_WAYS;
const ORD_BTB_TARGETS: usize = 2 * BTB_SETS * BTB_WAYS;
const ORD_BTB_LRU: usize = 3 * BTB_SETS * BTB_WAYS;

impl Btb {
    /// Creates an empty BTB.
    pub fn new() -> Btb {
        let mut b = Btb {
            valid: vec![0; BTB_SETS * BTB_WAYS],
            tags: vec![0; BTB_SETS * BTB_WAYS],
            targets: vec![0; BTB_SETS * BTB_WAYS],
            lru: vec![0; BTB_SETS],
            digest: UnitDigest::default(),
        };
        b.digest = UnitDigest::of(&mut b);
        b
    }

    /// The maintained content digest: the BTB's fingerprint subhash.
    /// Re-recording an already-stored target leaves it unchanged.
    pub fn digest(&self) -> UnitDigest {
        self.digest
    }

    fn set_and_tag(pc: u64) -> (usize, u64) {
        let idx = (pc >> 2) as usize;
        ((idx & (BTB_SETS - 1)), (pc >> 10) & 0xffff_ffff)
    }

    /// Looks up the predicted target for `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let (set, tag) = Btb::set_and_tag(pc);
        for w in 0..BTB_WAYS {
            let i = set * BTB_WAYS + w;
            if self.valid[i] == 1 && self.tags[i] == tag {
                return Some(self.targets[i] << 2);
            }
        }
        None
    }

    /// Records the resolved target of the control transfer at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let (set, tag) = Btb::set_and_tag(pc);
        // Hit: update in place.
        for w in 0..BTB_WAYS {
            let i = set * BTB_WAYS + w;
            if self.valid[i] == 1 && self.tags[i] == tag {
                self.digest.store(ORD_BTB_TARGETS + i, &mut self.targets[i], target >> 2);
                return;
            }
        }
        // Miss: round-robin replacement (the LRU pointer always moves).
        let w = (self.lru[set] as usize) % BTB_WAYS;
        let i = set * BTB_WAYS + w;
        let d = &mut self.digest;
        d.store(i, &mut self.valid[i], 1);
        d.store(ORD_BTB_TAGS + i, &mut self.tags[i], tag);
        d.store(ORD_BTB_TARGETS + i, &mut self.targets[i], target >> 2);
        let lru = (self.lru[set] + 1) % BTB_WAYS as u64;
        d.store(ORD_BTB_LRU + set, &mut self.lru[set], lru);
    }
}

impl Default for Btb {
    fn default() -> Self {
        Btb::new()
    }
}

impl VisitState for Btb {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let m = FieldMeta::shadow(Category::Ctrl, StorageKind::Ram);
        v.array(m, 1, &mut self.valid);
        v.array(m, 32, &mut self.tags);
        v.array(FieldMeta::shadow(Category::Pc, StorageKind::Ram), 62, &mut self.targets);
        v.array(m, 2, &mut self.lru);
    }
}

/// 8-entry return address stack with pointer recovery: the top-of-stack
/// pointer is snapshotted at every fetched branch and restored on squash.
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<u64>, // 8 x 62-bit return addresses
    tos: u64,        // 3-bit pointer to the next free slot
    digest: UnitDigest, // maintained content digest of the stack and pointer
}

const RAS_ENTRIES: u64 = 8;

/// Digest ordinal of the pointer, which the RAS visits after its stack.
const ORD_RAS_TOS: usize = RAS_ENTRIES as usize;

impl Ras {
    /// Creates an empty stack.
    pub fn new() -> Ras {
        let mut r =
            Ras { stack: vec![0; RAS_ENTRIES as usize], tos: 0, digest: UnitDigest::default() };
        r.digest = UnitDigest::of(&mut r);
        r
    }

    /// The maintained content digest: the stack's fingerprint subhash.
    pub fn digest(&self) -> UnitDigest {
        self.digest
    }

    /// Pushes a return address (calls: `BSR`/`JSR`). Wraps on overflow, as
    /// a real circular RAS does.
    pub fn push(&mut self, return_addr: u64) {
        let slot = (self.tos % RAS_ENTRIES) as usize;
        self.digest.store(slot, &mut self.stack[slot], return_addr >> 2);
        let tos = (self.tos + 1) % RAS_ENTRIES;
        self.digest.store(ORD_RAS_TOS, &mut self.tos, tos);
    }

    /// Pops the predicted return target (`RET`).
    pub fn pop(&mut self) -> u64 {
        let tos = (self.tos + RAS_ENTRIES - 1) % RAS_ENTRIES;
        self.digest.store(ORD_RAS_TOS, &mut self.tos, tos);
        self.stack[(self.tos % RAS_ENTRIES) as usize] << 2
    }

    /// Snapshot of the pointer, taken per fetched branch.
    pub fn pointer(&self) -> u64 {
        self.tos
    }

    /// Pointer recovery after a squash.
    pub fn restore_pointer(&mut self, tos: u64) {
        self.digest.store(ORD_RAS_TOS, &mut self.tos, tos % RAS_ENTRIES);
    }
}

impl Default for Ras {
    fn default() -> Self {
        Ras::new()
    }
}

impl VisitState for Ras {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        v.array(FieldMeta::shadow(Category::Pc, StorageKind::Ram), 62, &mut self.stack);
        v.field(FieldMeta::shadow(Category::Qctrl, StorageKind::Latch), 3, &mut self.tos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_always_taken() {
        let mut p = BranchPredictor::new();
        let pc = 0x1_0040;
        for _ in 0..16 {
            let ghr = p.ghr();
            p.speculate(true);
            p.train(pc, true, ghr);
        }
        assert!(p.predict(pc), "always-taken branch must be predicted taken");
    }

    #[test]
    fn predictor_learns_alternating_pattern_via_local_history() {
        let mut p = BranchPredictor::new();
        let pc = 0x2_0080;
        let mut outcome = false;
        for _ in 0..200 {
            let ghr = p.ghr();
            p.speculate(outcome);
            p.train(pc, outcome, ghr);
            outcome = !outcome;
        }
        // After training, prediction should track the alternation.
        let mut correct = 0;
        for _ in 0..20 {
            if p.predict(pc) == outcome {
                correct += 1;
            }
            let ghr = p.ghr();
            p.speculate(outcome);
            p.train(pc, outcome, ghr);
            outcome = !outcome;
        }
        assert!(correct >= 15, "local history should capture alternation: {correct}/20");
    }

    #[test]
    fn ghr_restore_round_trip() {
        let mut p = BranchPredictor::new();
        let before = p.ghr();
        p.speculate(true);
        p.speculate(false);
        assert_ne!(p.ghr(), before);
        p.restore_ghr(before);
        assert_eq!(p.ghr(), before);
    }

    #[test]
    fn btb_lookup_and_replacement() {
        let mut b = Btb::new();
        assert_eq!(b.lookup(0x4000), None);
        b.update(0x4000, 0x9000);
        assert_eq!(b.lookup(0x4000), Some(0x9000));
        b.update(0x4000, 0xa000);
        assert_eq!(b.lookup(0x4000), Some(0xa000));
        // Fill a set past associativity: 5 pcs mapping to the same set
        // (same low bits, different tags).
        let set_stride = 256 * 4; // pc stride that keeps the same set index
        for k in 0..5u64 {
            b.update(0x4000 + k * set_stride, 0x1000 + k * 8);
        }
        let present: usize = (0..5u64)
            .filter(|k| b.lookup(0x4000 + k * set_stride) == Some(0x1000 + k * 8))
            .count();
        assert_eq!(present, 4, "exactly one way must have been evicted");
    }

    #[test]
    fn ras_predicts_call_return_pairs() {
        let mut r = Ras::new();
        r.push(0x1004);
        r.push(0x2004);
        assert_eq!(r.pop(), 0x2004);
        assert_eq!(r.pop(), 0x1004);
    }

    #[test]
    fn ras_pointer_recovery() {
        let mut r = Ras::new();
        r.push(0x1004);
        let snap = r.pointer();
        // Wrong path pushes/pops garbage.
        r.push(0xdead0);
        r.pop();
        r.pop();
        r.restore_pointer(snap);
        assert_eq!(r.pop(), 0x1004);
    }

    #[test]
    fn ras_wraps_like_hardware() {
        let mut r = Ras::new();
        for i in 0..10u64 {
            r.push(0x1000 + i * 4);
        }
        // The two oldest entries were overwritten; the newest survives.
        assert_eq!(r.pop(), 0x1000 + 9 * 4);
    }

    #[test]
    fn maintained_digests_equal_the_recomputed_ones() {
        use tfsim_bitstate::UnitDigest;
        let (mut p, mut b, mut r) = (BranchPredictor::new(), Btb::new(), Ras::new());
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = (x >> 20) & 0xf_fffc;
            let taken = x & 1 == 1;
            match x % 5 {
                0 => p.train(pc, taken, x >> 40),
                1 => p.speculate(taken),
                2 => p.restore_ghr(x >> 50),
                3 => b.update(pc, (x >> 8) & !3),
                _ => match x % 3 {
                    0 => r.push(pc),
                    1 => _ = r.pop(),
                    _ => r.restore_pointer(x >> 60),
                },
            }
        }
        assert_eq!(p.digest(), UnitDigest::of(&mut p));
        assert_eq!(b.digest(), UnitDigest::of(&mut b));
        assert_eq!(r.digest(), UnitDigest::of(&mut r));
        assert_ne!(p.digest(), BranchPredictor::new().digest());
    }

    #[test]
    fn shadow_state_is_not_injectable() {
        use tfsim_bitstate::{BitCount, Census, InjectionMask};
        let mut p = BranchPredictor::new();
        let mut count = BitCount::new(InjectionMask::LatchesAndRams);
        p.visit_state(&mut count);
        assert_eq!(count.count, 0, "predictor state must not be injectable");
        let mut census = Census::new();
        p.visit_state(&mut census);
        assert!(census.shadow_total() > 10_000, "predictor holds sizeable shadow state");
    }
}

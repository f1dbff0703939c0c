//! Memory dependence prediction using store sets (Chrysos & Emer), as
//! named in the paper's Figure 2.
//!
//! A load that once conflicted with a store is placed in that store's
//! *store set*; on later encounters the load waits until the most recent
//! store of its set has computed its address (after which store-to-load
//! forwarding provides the value or proves independence).
//!
//! Like the branch predictors, this state only affects timing — every
//! prediction is backed by the LSQ's violation detection — so it is
//! shadow (fingerprinted, not injectable) per the paper's exclusion of
//! prediction structures.

use tfsim_bitstate::{Category, FieldMeta, StateVisitor, StorageKind, UnitDigest, VisitState};

const SSIT_ENTRIES: usize = 1024;
const LFST_ENTRIES: usize = 64;

// Digest ordinals: each table's first word in the predictor's visit order.
const ORD_SSIT_ID: usize = SSIT_ENTRIES;
const ORD_LFST_VALID: usize = 2 * SSIT_ENTRIES;
const ORD_LFST_SQ: usize = 2 * SSIT_ENTRIES + LFST_ENTRIES;

fn ssit_index(pc: u64) -> usize {
    ((pc >> 2) as usize) & (SSIT_ENTRIES - 1)
}

/// The store-set predictor: a store-set ID table (SSIT) indexed by PC and
/// a last-fetched-store table (LFST) indexed by set ID.
#[derive(Debug, Clone)]
pub struct StoreSets {
    ssit_valid: Vec<u64>,
    ssit_id: Vec<u64>, // 6-bit set ids
    lfst_valid: Vec<u64>,
    lfst_sq: Vec<u64>, // store queue slot of the last fetched store
    digest: UnitDigest, // maintained content digest of the four tables
}

impl StoreSets {
    /// Creates an empty predictor.
    pub fn new() -> StoreSets {
        let mut ss = StoreSets {
            ssit_valid: vec![0; SSIT_ENTRIES],
            ssit_id: vec![0; SSIT_ENTRIES],
            lfst_valid: vec![0; LFST_ENTRIES],
            lfst_sq: vec![0; LFST_ENTRIES],
            digest: UnitDigest::default(),
        };
        ss.digest = UnitDigest::of(&mut ss);
        ss
    }

    /// The maintained content digest: the predictor's fingerprint subhash.
    /// Writes that restate the stored value (retraining an existing
    /// association, clearing an empty LFST) leave it unchanged.
    pub fn digest(&self) -> UnitDigest {
        self.digest
    }

    fn set_of(&self, pc: u64) -> Option<u64> {
        let i = ssit_index(pc);
        (self.ssit_valid[i] == 1).then(|| self.ssit_id[i] & 0x3f)
    }

    /// Called when a store dispatches into SQ slot `sq`. Returns the SQ
    /// slot of the previous store in the same set, which this store should
    /// (in a full implementation) order behind; we only track the table.
    pub fn store_dispatched(&mut self, pc: u64, sq: u64) -> Option<u64> {
        let set = self.set_of(pc)?;
        let set = set as usize;
        let prev = (self.lfst_valid[set] == 1).then(|| self.lfst_sq[set]);
        self.digest.store(ORD_LFST_VALID + set, &mut self.lfst_valid[set], 1);
        self.digest.store(ORD_LFST_SQ + set, &mut self.lfst_sq[set], sq & 0xf);
        prev
    }

    /// Called when a load dispatches. Returns the SQ slot the load must
    /// wait on (until that store's address is known), if its set predicts
    /// a dependence.
    pub fn load_dispatched(&self, pc: u64) -> Option<u64> {
        let set = self.set_of(pc)?;
        (self.lfst_valid[set as usize] == 1).then(|| self.lfst_sq[set as usize])
    }

    /// Called when the store in SQ slot `sq` computes its address (the
    /// dependence is now resolvable through forwarding): clears matching
    /// LFST entries.
    pub fn store_resolved(&mut self, sq: u64) {
        for i in 0..LFST_ENTRIES {
            if self.lfst_valid[i] == 1 && self.lfst_sq[i] == (sq & 0xf) {
                self.digest.store(ORD_LFST_VALID + i, &mut self.lfst_valid[i], 0);
            }
        }
    }

    /// Trains the predictor after a memory-order violation between the
    /// load at `load_pc` and the store at `store_pc`: both are merged into
    /// one store set.
    pub fn violation(&mut self, load_pc: u64, store_pc: u64) {
        let li = ssit_index(load_pc);
        let si = ssit_index(store_pc);
        let set = if self.ssit_valid[si] == 1 {
            self.ssit_id[si]
        } else if self.ssit_valid[li] == 1 {
            self.ssit_id[li]
        } else {
            // Allocate: hash the store PC into a set id.
            (store_pc >> 2) & 0x3f
        };
        for i in [li, si] {
            self.digest.store(i, &mut self.ssit_valid[i], 1);
            self.digest.store(ORD_SSIT_ID + i, &mut self.ssit_id[i], set & 0x3f);
        }
    }

    /// Clears the LFST (every squash invalidates its SQ slot references).
    pub fn clear_lfst(&mut self) {
        for (i, v) in self.lfst_valid.iter_mut().enumerate() {
            self.digest.store(ORD_LFST_VALID + i, v, 0);
        }
    }
}

impl Default for StoreSets {
    fn default() -> Self {
        StoreSets::new()
    }
}

impl VisitState for StoreSets {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let m = FieldMeta::shadow(Category::Ctrl, StorageKind::Ram);
        v.array(m, 1, &mut self.ssit_valid);
        v.array(m, 6, &mut self.ssit_id);
        v.array(m, 1, &mut self.lfst_valid);
        v.array(m, 4, &mut self.lfst_sq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_predictor_predicts_independence() {
        let mut ss = StoreSets::new();
        assert_eq!(ss.load_dispatched(0x1000), None);
        assert_eq!(ss.store_dispatched(0x2000, 3), None);
    }

    #[test]
    fn violation_trains_dependence() {
        let mut ss = StoreSets::new();
        ss.violation(0x1000, 0x2000);
        // The store now updates the LFST; the load sees it.
        ss.store_dispatched(0x2000, 5);
        assert_eq!(ss.load_dispatched(0x1000), Some(5));
        // Once the store's address resolves, the load no longer waits.
        ss.store_resolved(5);
        assert_eq!(ss.load_dispatched(0x1000), None);
    }

    #[test]
    fn two_stores_same_set_track_the_latest() {
        let mut ss = StoreSets::new();
        ss.violation(0x1000, 0x2000);
        ss.violation(0x1000, 0x3000); // merges 0x3000 into the same set
        ss.store_dispatched(0x2000, 1);
        let prev = ss.store_dispatched(0x3000, 2);
        assert_eq!(prev, Some(1), "second store sees the first in its set");
        assert_eq!(ss.load_dispatched(0x1000), Some(2));
    }

    #[test]
    fn clear_lfst_forgets_slots_but_not_sets() {
        let mut ss = StoreSets::new();
        ss.violation(0x1000, 0x2000);
        ss.store_dispatched(0x2000, 7);
        ss.clear_lfst();
        assert_eq!(ss.load_dispatched(0x1000), None);
        // The SSIT association persists.
        ss.store_dispatched(0x2000, 2);
        assert_eq!(ss.load_dispatched(0x1000), Some(2));
    }

    #[test]
    fn maintained_digest_equals_the_recomputed_one() {
        use tfsim_bitstate::UnitDigest;
        let mut ss = StoreSets::new();
        for k in 0..400u64 {
            let pc = 0x1_0000 + ((k * 0x1234) & 0xfffc);
            match k % 4 {
                0 => ss.violation(pc, pc ^ 0x40),
                1 => _ = ss.store_dispatched(pc ^ 0x40, k),
                2 => ss.store_resolved(k / 3),
                _ => {
                    if k % 7 == 0 {
                        ss.clear_lfst();
                    }
                }
            }
        }
        assert_eq!(ss.digest(), UnitDigest::of(&mut ss));
        assert_ne!(ss.digest(), StoreSets::new().digest());
    }

    #[test]
    fn predictor_state_is_shadow() {
        use tfsim_bitstate::{BitCount, InjectionMask};
        let mut ss = StoreSets::new();
        let mut count = BitCount::new(InjectionMask::LatchesAndRams);
        ss.visit_state(&mut count);
        assert_eq!(count.count, 0);
    }
}

//! Per-trial divergence timelines for the deep-trace mode.
//!
//! A [`DeepTrace`] is the compressed history of *which* structures held
//! faulty state over a trial's monitored window: a sequence of
//! `(cycle, unit bitmask)` samples recorded at the classifier's
//! microarchitectural checks, **change-only** — a sample is stored only
//! when the diverged-unit set differs from the previous sample's. A fault
//! that lands in one unit and stays there costs exactly one sample no
//! matter how many cycles it survives, so deep traces stay small even at
//! paper-scale monitoring horizons.
//!
//! The crate stays pipeline-agnostic: units are bit positions in a `u16`
//! (up to [`MAX_UNITS`] of them); the producer (`tfsim-inject`) maps its
//! `UnitId`s onto bits and back to labels when emitting
//! [`crate::Event::Propagation`] events.

/// Maximum number of distinct units a [`DeepTrace`] mask can carry.
pub const MAX_UNITS: usize = 16;

/// Change-only divergence timeline of one trial.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeepTrace {
    samples: Vec<(u64, u16)>,
}

impl DeepTrace {
    /// An empty timeline (trial never observed to diverge).
    pub fn new() -> Self {
        DeepTrace::default()
    }

    /// True when no divergence was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records the diverged-unit set observed at `cycle`.
    ///
    /// Change-only: the sample is dropped when `mask` equals the previous
    /// sample's mask, and a leading empty mask is never stored (before the
    /// first sample the set is implicitly empty). Samples at a repeated
    /// cycle overwrite the earlier one, so a refinement of the same check
    /// cycle never produces out-of-order entries. `cycle` must otherwise
    /// be non-decreasing.
    pub fn push(&mut self, cycle: u64, mask: u16) {
        match self.samples.last_mut() {
            None => {
                if mask != 0 {
                    self.samples.push((cycle, mask));
                }
            }
            Some(last) => {
                debug_assert!(cycle >= last.0, "deep-trace samples must be in cycle order");
                if last.0 == cycle {
                    last.1 = mask;
                    // Collapsing to the predecessor (or to the implicit
                    // leading empty set) keeps change-only form.
                    let n = self.samples.len();
                    let prev = if n >= 2 { self.samples[n - 2].1 } else { 0 };
                    if prev == mask {
                        self.samples.pop();
                    }
                } else if last.1 != mask {
                    self.samples.push((cycle, mask));
                }
            }
        }
    }

    /// The raw `(cycle, mask)` samples, in cycle order.
    pub fn samples(&self) -> &[(u64, u16)] {
        &self.samples
    }

    /// Expands the masks to label lists via `label_of` (bit index →
    /// label), producing the payload of an `Event::Propagation`.
    pub fn to_labels(&self, label_of: impl Fn(usize) -> String) -> Vec<(u64, Vec<String>)> {
        self.samples
            .iter()
            .map(|&(cycle, mask)| {
                let units =
                    (0..MAX_UNITS).filter(|i| mask & (1 << i) != 0).map(&label_of).collect();
                (cycle, units)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_change_only() {
        let mut t = DeepTrace::new();
        t.push(3, 0); // leading empty set: implicit, not stored
        assert!(t.is_empty());
        t.push(5, 0b01);
        t.push(6, 0b01); // unchanged: dropped
        t.push(9, 0b11);
        t.push(17, 0b11); // unchanged: dropped
        t.push(20, 0);
        assert_eq!(t.samples(), &[(5, 0b01), (9, 0b11), (20, 0)]);
    }

    #[test]
    fn same_cycle_refinement_overwrites() {
        let mut t = DeepTrace::new();
        t.push(5, 0b01);
        t.push(5, 0b11);
        assert_eq!(t.samples(), &[(5, 0b11)]);
        // Refining back to the previous mask collapses the sample away.
        t.push(9, 0b01);
        t.push(9, 0b11);
        assert_eq!(t.samples(), &[(5, 0b11)]);
        // Refining the only sample to empty removes it entirely.
        let mut u = DeepTrace::new();
        u.push(2, 0b1);
        u.push(2, 0);
        assert!(u.is_empty());
    }

    #[test]
    fn labels_expand_in_bit_order() {
        let mut t = DeepTrace::new();
        t.push(4, 0b101);
        let labels = t.to_labels(|i| format!("u{i}"));
        assert_eq!(labels, vec![(4, vec!["u0".to_string(), "u2".to_string()])]);
    }
}

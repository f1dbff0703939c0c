//! Log2-bucketed histograms of `u64` samples, for the latency
//! distributions a campaign report rebuilds from its trial events.

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A histogram of `u64` samples with logarithmic (base-2) buckets.
///
/// Bucket 0 holds the value 0; bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k)`. Every `u64` lands in exactly one bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { count: 0, sum: 0, buckets: [0; BUCKETS] }
    }

    /// Index of the bucket that `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive `(lo, hi)` value range covered by bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), (1 << k) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw per-bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Mean of the recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), or `None` if empty.
    ///
    /// Bucket resolution means the answer is exact only to within a factor
    /// of two — adequate for latency distributions spanning decades.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we are after, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Histogram::bucket_bounds(i).1);
            }
        }
        // Unreachable: counts sum to self.count >= rank.
        Some(u64::MAX)
    }

    /// Renders the non-empty buckets as an ASCII bar chart.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("{label} (n={}", self.count);
        if let Some(m) = self.mean() {
            out.push_str(&format!(", mean={m:.1}"));
        }
        out.push_str(")\n");
        if self.count == 0 {
            out.push_str("  (no samples)\n");
            return out;
        }
        let peak = *self.buckets.iter().max().expect("nonempty");
        let first = self.buckets.iter().position(|&n| n > 0).expect("count > 0");
        let last = self.buckets.iter().rposition(|&n| n > 0).expect("count > 0");
        for i in first..=last {
            let (lo, hi) = Histogram::bucket_bounds(i);
            let n = self.buckets[i];
            let bar = "#".repeat(((n * 40).div_ceil(peak.max(1))) as usize);
            out.push_str(&format!("  [{lo:>12} .. {hi:>12}] {n:>8} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_of(1 << 63), 64);
        assert_eq!(Histogram::bucket_of((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        let (lo, hi) = Histogram::bucket_bounds(0);
        assert_eq!((lo, hi), (0, 0));
        for k in 1..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(k);
            let (_, prev_hi) = Histogram::bucket_bounds(k - 1);
            assert_eq!(lo, prev_hi + 1, "bucket {k} not contiguous");
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_of(lo), k);
            assert_eq!(Histogram::bucket_of(hi), k);
        }
        assert_eq!(Histogram::bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn mean_and_quantile() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean().unwrap() - 21.2).abs() < 1e-9);
        // Median sample (rank 3) is 2, in bucket [2, 3].
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.0), Some(0));
        // Max sample 100 lands in [64, 127].
        assert_eq!(h.quantile(1.0), Some(127));
    }

    #[test]
    fn render_shows_only_occupied_range() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(6);
        h.record(40);
        let text = h.render("latency");
        assert!(text.contains("latency (n=3"));
        assert!(text.contains("[           4 ..            7]"));
        assert!(text.contains("[          32 ..           63]"));
        assert!(!text.contains("[           0 ..            0]"));
        assert_eq!(Histogram::new().render("empty"), "empty (n=0)\n  (no samples)\n");
    }
}

//! Log-bucketed (HDR-style) latency histograms with mergeable state.
//!
//! Values are unsigned nanoseconds. Buckets follow the classic
//! high-dynamic-range layout: values below `2^SUB_BITS` are recorded
//! exactly (one bucket per value), larger values land in one of
//! `2^SUB_BITS` linear sub-buckets per power of two, bounding the
//! relative quantization error at `2^-SUB_BITS` (≈3.1% here) across
//! the whole `u64` range. Recording is a handful of integer ops and
//! one array increment — no floats, no allocation, no locks — so a
//! recorder can live on the serving hot path. Histograms merge by
//! element-wise addition, which is exactly how per-worker thread-local
//! recorders are folded into one fleet-wide view after a run.

/// Linear sub-bucket resolution: `2^SUB_BITS` sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count covering every `u64` value.
pub(crate) const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Bucket index of a value (total order preserved between buckets).
#[inline]
fn bucket_index(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB_COUNT - 1);
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// Largest value that lands in bucket `i` (the bucket's upper edge,
/// used as the conservative percentile representative).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUB_COUNT {
        // Exact region plus the first octave, where index == value.
        i as u64
    } else {
        let octave = (i >> SUB_BITS) as u32; // ≥ 2
        let sub = (i & (SUB_COUNT - 1)) as u64;
        let shift = octave - 1;
        // The very top bucket's upper edge is 2^64 - 1: the shift drops
        // the carried-out bit and the wrapping subtraction lands on
        // `u64::MAX` exactly.
        ((SUB_COUNT as u64 + sub + 1) << shift).wrapping_sub(1)
    }
}

/// A mergeable log-bucketed histogram of `u64` samples (nanoseconds by
/// convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value (how a batch wave books one
    /// measured latency for every session it completed).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample recorded (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper edge of the bucket
    /// holding the `ceil(q·count)`-th smallest sample, clamped to the
    /// recorded maximum (so `percentile(1.0) == max()` exactly).
    /// Returns 0 for an empty histogram. Monotone in `q` by
    /// construction: bucket upper edges increase with bucket index.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self` (element-wise bucket addition). The
    /// result is sample-for-sample identical to having recorded both
    /// streams into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condensed view: count, min/mean/max and the three serving-SLO
    /// percentiles.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count,
            min_ns: self.min(),
            max_ns: self.max(),
            mean_ns: self.mean(),
            p50_ns: self.percentile(0.50),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
        }
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Point-in-time percentile summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample, ns.
    pub min_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
    /// Mean sample, ns.
    pub mean_ns: f64,
    /// Median, ns (bucket upper edge, ≤3.1% high).
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn every_bucket_boundary_round_trips() {
        // Exhaustive over all buckets: the lower and upper edge of
        // bucket i must index to i, and upper+1 must start bucket i+1.
        let mut prev_upper = None;
        for i in 0..NUM_BUCKETS {
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            if let Some(p) = prev_upper {
                let lo: u64 = p + 1; // previous upper + 1 == this lower
                assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            }
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), i + 1, "bucket {i} upper + 1");
            }
            prev_upper = Some(hi);
        }
        // The last bucket covers u64::MAX.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket upper edge overestimates a recorded value by at
        // most 2^-SUB_BITS of the value itself.
        for &v in &[100u64, 1_000, 12_345, 1 << 20, u64::MAX / 3] {
            let rep = bucket_upper(bucket_index(v));
            assert!(rep >= v);
            let err = (rep - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms, uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        // Within the 3.1% quantization bound of the true quantiles.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.04, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.04, "{p99}");
        assert_eq!(h.percentile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.snapshot();
        assert_eq!((s.count, s.p50_ns, s.p999_ns), (0, 0, 0));
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(777, 13);
        for _ in 0..13 {
            b.record(777);
        }
        assert_eq!(a, b);
    }
}

//! A mergeable HDR-style latency histogram with log-bucketed resolution.

use core::fmt;

/// Sub-bucket precision: each power-of-two range splits into `2^PRECISION`
/// linear sub-buckets, bounding quantile error at ~`2^-PRECISION` (≈6%).
const PRECISION: u32 = 4;
const SUB_BUCKETS: usize = 1 << PRECISION;
/// Values below `SUB_BUCKETS` are stored exactly; above, each of the
/// remaining 60 exponents contributes `SUB_BUCKETS` sub-buckets.
const BUCKETS: usize = (64 - PRECISION as usize + 1) * SUB_BUCKETS;

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = ((v >> (e - PRECISION)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (e - PRECISION + 1) as usize * SUB_BUCKETS + sub
}

/// Largest value that lands in `bucket` (the reported quantile value).
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < SUB_BUCKETS {
        return bucket as u64;
    }
    let e = (bucket / SUB_BUCKETS) as u32 + PRECISION - 1;
    let sub = (bucket % SUB_BUCKETS) as u64;
    let base = 1u64 << e;
    let width = 1u64 << (e - PRECISION);
    // `base - 1 +` rather than `- 1` last: the top bucket's upper bound is
    // u64::MAX and the naive order overflows.
    base - 1 + (sub + 1) * width
}

/// A latency histogram with logarithmic buckets and linear sub-buckets
/// (the HdrHistogram layout).
///
/// Values below 16 are exact; larger values are bucketed with at most
/// ~6% relative error, over the full `u64` range, in a fixed ~8KB of
/// storage. Histograms [`merge`](LatencyHistogram::merge) exactly: the
/// merged histogram equals one fed both sample streams, in any order —
/// which makes per-shard recording plus a final merge deterministic.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. The sum saturates instead of wrapping, which
    /// keeps [`merge`](LatencyHistogram::merge) order-independent even
    /// at the `u64` boundary.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, if any were recorded.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, if any were recorded.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// smallest bucket whose cumulative count reaches `⌈q·count⌉`.
    ///
    /// Deterministic, monotone in `q`, and never above
    /// [`max`](LatencyHistogram::max) nor below
    /// [`min`](LatencyHistogram::min). `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (the 50th percentile).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Folds another histogram's samples into this one. Associative and
    /// commutative: any merge order yields the identical histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for (i, &count) in h.buckets.iter().enumerate() {
            assert_eq!(count, u64::from(i < 16), "bucket {i}");
        }
        for i in 0..16 {
            assert_eq!(bucket_upper(i), i as u64);
        }
    }

    #[test]
    fn bucket_upper_bounds_its_range() {
        for v in [0, 1, 15, 16, 17, 255, 256, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "upper({i}) < {v}");
            // Relative error of the bucket upper bound is < 2^-PRECISION.
            if v >= SUB_BUCKETS as u64 {
                assert!(bucket_upper(i) - v <= v / 8, "bucket too wide at {v}");
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 7);
        }
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max().unwrap());
        assert!(h.quantile(0.0).unwrap() >= h.min().unwrap());
        assert_eq!(h.quantile(1.0).unwrap(), h.max().unwrap());
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [3, 900, 1 << 33] {
            a.record(v);
            both.record(v);
        }
        for v in [0, 17, 17, 255] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }
}

//! Log-linear latency histogram, shared by the data path, control plane,
//! and bench harnesses.

/// A log-linear latency histogram: 64 power-of-two decades × 16 linear
/// sub-buckets, covering 1 ns .. ~580 years with ≤6.25% relative error.
/// Fixed memory, O(1) allocation-free insert — safe to use on the data
/// path.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
    min: u64,
    sum: u64,
}

const SUB_BITS: u32 = 4; // 16 sub-buckets per decade
const SUB: usize = 1 << SUB_BITS;

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram { buckets: vec![0; 64 * SUB], count: 0, max: 0, min: u64::MAX, sum: 0 }
    }

    /// Bucket index for a value. Public so boundary behaviour is testable.
    #[inline]
    pub fn index(value_ns: u64) -> usize {
        let v = value_ns.max(1);
        let decade = 63 - v.leading_zeros();
        if decade < SUB_BITS {
            return v as usize;
        }
        let sub = (v >> (decade - SUB_BITS)) as usize & (SUB - 1);
        (decade as usize) * SUB + sub
    }

    /// Bucket lower bound for an index (inverse of [`Self::index`]).
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let decade = (idx / SUB) as u32;
        let sub = (idx % SUB) as u64;
        (1u64 << decade) + (sub << (decade - SUB_BITS))
    }

    /// Record one latency sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Record `count` samples of the same value — what a burst does with
    /// its amortized per-packet time — at the cost of one.
    #[inline]
    pub fn record_n(&mut self, ns: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.buckets[Self::index(ns)] += count;
        self.count += count;
        self.sum += ns * count;
        self.max = self.max.max(ns);
        self.min = self.min.min(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded sample.
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded sample.
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded samples.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in [0,1]) — returns the lower bound of the
    /// bucket containing that rank.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// The paper-style percentile summary used by the figure harnesses.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean_ns: self.mean_ns(),
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
            p999_ns: self.quantile_ns(0.999),
            max_ns: self.max_ns(),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time percentile digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl std::fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.0}ns p50={}ns p99={}ns p999={}ns max={}ns",
            self.count, self.mean_ns, self.p50_ns, self.p99_ns, self.p999_ns, self.max_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_roughly_correct() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        assert_eq!(h.count(), 10_000);
        let median = h.quantile_ns(0.5);
        assert!((4000..=6000).contains(&median), "median {median}");
        let p99 = h.quantile_ns(0.99);
        assert!((9000..=10_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.max_ns(), 10_000);
        assert_eq!(h.min_ns(), 1);
        assert!((h.mean_ns() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        for &v in &[1u64, 100, 10_000, 1_000_000, u32::MAX as u64] {
            h.record(v);
        }
        // Each recorded value should be within one sub-bucket of its floor.
        for &v in &[1u64, 100, 10_000, 1_000_000] {
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::index(v));
            assert!(floor <= v, "floor {floor} > value {v}");
            assert!((v - floor) as f64 <= v as f64 * 0.0626, "bucket too wide for {v}");
        }
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..100 {
            a.record(10 + i);
            b.record(100_000 + i);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!(a.quantile_ns(0.25) < 1000);
        assert!(a.quantile_ns(0.75) > 50_000);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (mut bulk, mut single) = (LatencyHistogram::new(), LatencyHistogram::new());
        for (v, k) in [(0u64, 3u64), (97, 1), (5_000, 32), (97, 0), (1_234_567, 7)] {
            bulk.record_n(v, k);
            for _ in 0..k {
                single.record(v);
            }
        }
        // Whole-struct equality covers buckets (hence every quantile),
        // count, sum (hence mean), min and max.
        assert_eq!(bulk, single);
        assert_eq!(bulk.count(), 43);
        assert_eq!((bulk.min_ns(), bulk.max_ns()), (0, 1_234_567));
        assert_eq!(bulk.quantile_ns(0.5), single.quantile_ns(0.5));
        assert_eq!(bulk.mean_ns(), single.mean_ns());
        // A zero-count record leaves even an empty histogram's min/max alone.
        let mut empty = LatencyHistogram::new();
        empty.record_n(9, 0);
        assert_eq!(empty, LatencyHistogram::new());
    }

    #[test]
    fn small_values_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // Values below 16 land in exact buckets (0 maps to bucket 1).
        assert_eq!(h.quantile_ns(1.0), 15);
    }

    #[test]
    fn summary_orders_percentiles() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100_000u64 {
            h.record(i);
        }
        let s = h.summary();
        assert!(s.p50_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn serde_roundtrip_preserves_population() {
        let mut h = LatencyHistogram::new();
        for i in [3u64, 17, 1000, 123_456_789] {
            h.record(i);
        }
        let text = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&text).unwrap();
        assert_eq!(back, h);
    }
}

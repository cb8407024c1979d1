//! Log-linear (HDR-style) latency histograms.
//!
//! Values (nanoseconds, but any `u64` works) are bucketed exactly below 64
//! and into 32 linear sub-buckets per power of two above, giving a
//! worst-case relative quantile error of `1/32 ≈ 3.2%` while covering the
//! full `u64` range in 1920 fixed buckets (~15 KiB per histogram).
//! Recording is one `fetch_add` per bucket plus exact count/sum/min/max
//! maintenance — safe from any thread through `&self`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Values below this are bucketed exactly.
const EXACT: u64 = (SUBS as u64) * 2;
/// Highest index: shift 58, sub-bucket 63 → 58*32 + 63 = 1919.
const BUCKETS: usize = 60 * SUBS;

fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let bits = 64 - v.leading_zeros(); // >= SUB_BITS + 2
    let shift = bits - (SUB_BITS + 1);
    (shift as usize) * SUBS + (v >> shift) as usize
}

/// The smallest value mapping to bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    if idx < EXACT as usize {
        return idx as u64;
    }
    let shift = idx / SUBS - 1;
    ((idx % SUBS + SUBS) as u64) << shift
}

/// A representative value for bucket `idx` (midpoint of its range).
fn bucket_mid(idx: usize) -> u64 {
    if idx < EXACT as usize {
        return idx as u64;
    }
    let shift = idx / SUBS - 1;
    bucket_low(idx) + (1u64 << shift) / 2
}

/// A concurrent log-linear histogram with exact count/sum/min/max.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (typically nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, within ~3.2% relative error
    /// (and clamped to the exact observed min/max). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank == n {
            return self.max();
        }
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_mid(idx).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Folds another histogram into this one: bucket counts, count and
    /// sum add; min/max tighten. Both sides may be recorded into
    /// concurrently — the merge is then a point-in-time-ish snapshot with
    /// the same per-bucket consistency as `snapshot()`.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The non-empty buckets as `(low, mid, count)` rows, lowest value
    /// first. This is the raw shape behind the `cx.histograms` system
    /// table; `low` is the smallest value mapping to the bucket and `mid`
    /// its representative midpoint.
    pub fn nonzero_buckets(&self) -> Vec<BucketCount> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| BucketCount {
                    low: bucket_low(idx),
                    mid: bucket_mid(idx),
                    count,
                })
            })
            .collect()
    }

    /// A point-in-time summary of this histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// One non-empty histogram bucket: the value range it covers and how
/// many observations landed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value mapping to this bucket.
    pub low: u64,
    /// Representative midpoint of the bucket's range.
    pub mid: u64,
    /// Number of observations in the bucket.
    pub count: u64,
}

/// A point-in-time histogram summary (all values in the recorded unit,
/// nanoseconds by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistSnapshot {
    /// Millisecond helper for reports: `p(0.5)`, `p(0.95)`, `p(0.99)`.
    pub fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0usize;
        let mut v = 1u64;
        loop {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotone at {v}");
            assert!(idx < BUCKETS);
            assert!(bucket_low(idx) <= v, "low({idx}) <= {v}");
            prev = idx;
            match v.checked_mul(3) {
                Some(tripled) => v = tripled / 2 + 1,
                None => break,
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(bucket_index(0), 0);
        // Exact region is exact.
        for v in 0..EXACT {
            assert_eq!(bucket_mid(bucket_index(v)), v);
        }
    }

    #[test]
    fn exact_stats() {
        let h = Histogram::new();
        for v in [5u64, 10, 15, 1_000_000, 42] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_000_072);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    /// Quantile accuracy vs exact sorted samples (the satellite-task
    /// regression test): deterministic pseudo-random samples spanning five
    /// orders of magnitude must agree with the exact empirical quantile
    /// within 5% relative error.
    #[test]
    fn quantile_accuracy_vs_exact() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let h = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            // Log-uniform-ish over [1µs, 100ms] in ns.
            let r = next() % 100_000;
            let v = 1_000 + r * r / 100; // up to ~1e8 ns
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let approx = h.quantile(q) as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.05,
                "q={q}: approx {approx} vs exact {exact} (rel {rel:.4})"
            );
        }
        // p100 is the exact max.
        assert_eq!(h.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [10u64, 100, 1_000] {
            a.record(v);
        }
        for v in [5u64, 50_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 51_115);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 50_000);
        // Quantiles track the merged population.
        let q = a.quantile(1.0);
        assert_eq!(q, 50_000);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 5);
    }

    #[test]
    fn nonzero_buckets_cover_all_observations() {
        let h = Histogram::new();
        for v in [3u64, 3, 700, 1_000_000] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 4);
        assert!(
            buckets.windows(2).all(|w| w[0].low < w[1].low),
            "sorted by low"
        );
        assert_eq!(buckets[0].low, 3);
        assert_eq!(buckets[0].count, 2);
        for b in &buckets {
            assert!(b.low <= b.mid);
        }
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }
}

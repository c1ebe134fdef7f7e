//! Latency histograms and percentile rules.
//!
//! Latencies go into a log-linear histogram of fixed size (128 buckets
//! per power of two, so a bucket is at most 0.8% wide), never into a
//! growing sample vector: a faster program records more samples, and
//! with a vector its peak memory would grow with its speed. Quantiles
//! interpolate linearly inside the bucket that holds the target rank.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Enough octaves for any `u64` nanosecond value.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Samples a percentile needs beyond it before it is reported (the
/// highest percentile with at least this many samples above its rank).
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// A fixed-size log-linear histogram of `u64` values (nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = ((v >> shift) as usize) & (SUB - 1);
    (shift as usize + 1) * SUB + mantissa
}

/// The half-open value range `[lo, hi)` of a bucket.
fn bounds_of(bucket: usize) -> (f64, f64) {
    if bucket < SUB {
        return (bucket as f64, bucket as f64 + 1.0);
    }
    let shift = (bucket / SUB - 1) as i32;
    let mantissa = (bucket % SUB) as f64;
    let width = 2f64.powi(shift);
    let lo = (SUB as f64 + mantissa) * width;
    (lo, lo + width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records the same value `n` times.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[bucket_of(v)] += n;
        self.total += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded values, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (0 < q < 1): the value below which a share `q`
    /// of the samples lies, interpolated inside its bucket. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (below + n) as f64 >= rank {
                // The bucket's samples sit at the midpoints of n equal
                // sub-intervals; interpolate between them by rank.
                let (lo, hi) = bounds_of(bucket);
                let frac = ((rank - below as f64 - 0.5) / n as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            below += n;
        }
        let last = self.counts.iter().rposition(|&n| n > 0).unwrap_or(0);
        bounds_of(last).1
    }
}

/// Slices a timed window is cut into. End-to-end figures come from the
/// best slice: on a shared host, whole seconds can run far slower
/// because of load outside the benchmark, while a slower program is
/// slower in every slice.
pub const WINDOW_SLICES: usize = 30;

/// One histogram per equal time slice of a window. A value lands in the
/// slice in which its unit of work completed.
#[derive(Debug, Clone)]
pub struct SlicedHistogram {
    start: Instant,
    slice: Duration,
    slices: Vec<Histogram>,
    /// When the last unit of each slice completed.
    last_end: Vec<Option<Instant>>,
}

impl SlicedHistogram {
    /// A window of length `window` from `start`, in [`WINDOW_SLICES`]
    /// slices.
    pub fn new(start: Instant, window: Duration) -> Self {
        SlicedHistogram {
            start,
            slice: window / WINDOW_SLICES as u32,
            slices: vec![Histogram::new(); WINDOW_SLICES],
            last_end: vec![None; WINDOW_SLICES],
        }
    }

    /// Records `n` units of value `v` that completed at `end`; units
    /// completing after the window count in its last slice.
    pub fn record_at(&mut self, end: Instant, v: u64, n: u64) {
        let offset = end.saturating_duration_since(self.start);
        let k =
            ((offset.as_nanos() / self.slice.as_nanos().max(1)) as usize).min(WINDOW_SLICES - 1);
        self.slices[k].record_n(v, n);
        self.last_end[k] = Some(end);
    }

    /// Units recorded over the whole window.
    pub fn count(&self) -> u64 {
        self.slices.iter().map(Histogram::count).sum()
    }

    /// The best (lowest) `q`-quantile over the non-empty slices, with
    /// the number of samples in that slice.
    pub fn best_quantile(&self, q: f64) -> (f64, u64) {
        self.slices
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| (h.quantile(q), h.count()))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((0.0, 0))
    }

    /// The best (lowest) mean over the non-empty slices, with the number
    /// of samples in that slice.
    pub fn best_mean(&self) -> (f64, u64) {
        self.slices
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| (h.mean(), h.count()))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((0.0, 0))
    }

    /// The best (highest) rate of units completed per second over the
    /// slices. A slice's time runs from the previous slice's last
    /// completion to its own, so the slices tile the window exactly.
    pub fn best_rate(&self) -> f64 {
        let mut previous = self.start;
        let mut best = 0.0f64;
        for (h, end) in self.slices.iter().zip(&self.last_end) {
            if let Some(end) = *end {
                let secs = end.saturating_duration_since(previous).as_secs_f64();
                if secs > 0.0 {
                    best = best.max(h.count() as f64 / secs);
                }
                previous = end;
            }
        }
        best
    }
}

/// Whether `count` samples support the `q`-quantile: at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond its rank.
pub fn supports(count: u64, q: f64) -> bool {
    // The epsilon keeps 100 × (1 − 0.9) from rounding down to 9.
    (count as f64 * (1.0 - q) + 1e-9).floor() >= MIN_TAIL_SAMPLES as f64
}

/// Exact `q`-quantile of sorted values by the same rank rule as
/// [`Histogram::quantile`] (the smallest value with at least a share
/// `q` of the samples at or below it). Used to check the histogram.
pub fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Median of a small sample (set-up times), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

//! Percentile, sample-count and slicing logic.

use rabit_perfbench::stats::{
    exact_quantile, median, supports, Histogram, SlicedHistogram, WINDOW_SLICES,
};
use rabit_util::Rng;
use std::time::{Duration, Instant};

#[test]
fn histogram_quantiles_match_exact_ones_within_a_bucket() {
    let mut rng = Rng::seed_from_u64(7);
    let mut values: Vec<u64> = (0..20_000)
        .map(|_| {
            // A long-tailed mix: most values near 6 µs, some near 100 µs.
            let base = if rng.random_bool(0.9) {
                6_000.0
            } else {
                100_000.0
            };
            (base * (1.0 + rng.random_f64())) as u64
        })
        .collect();
    let mut h = Histogram::new();
    for &v in &values {
        h.record(v);
    }
    values.sort_unstable();
    for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
        let exact = exact_quantile(&values, q);
        let got = h.quantile(q);
        assert!(
            (got - exact).abs() <= exact / 128.0 + 1.0,
            "q{q}: histogram {got}, exact {exact}"
        );
    }
    assert_eq!(h.count(), 20_000);
    let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
    assert!((h.mean() - mean).abs() < 1e-9 * mean);
}

#[test]
fn small_values_are_exact() {
    let mut h = Histogram::new();
    for v in 1..=100u64 {
        h.record(v);
    }
    // Rank 50 of 1..=100 is 50; interpolation stays inside [50, 51).
    let p50 = h.quantile(0.5);
    assert!((50.0..51.0).contains(&p50), "{p50}");
    assert_eq!(Histogram::new().quantile(0.5), 0.0, "empty reads 0");
}

#[test]
fn record_n_weights_a_value() {
    let mut weighted = Histogram::new();
    weighted.record_n(10_000, 9);
    weighted.record(50_000);
    let mut plain = Histogram::new();
    for _ in 0..9 {
        plain.record(10_000);
    }
    plain.record(50_000);
    assert_eq!(weighted.count(), 10);
    for q in [0.5, 0.9, 0.95] {
        assert_eq!(weighted.quantile(q), plain.quantile(q));
    }
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(supports(1_000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(supports(100, 0.9));
    assert!(!supports(99, 0.9));
    assert!(supports(20, 0.5));
    assert!(!supports(19, 0.5));
}

#[test]
fn exact_quantile_uses_the_rank_rule() {
    let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
    assert_eq!(exact_quantile(&v, 0.5), 5.0);
    assert_eq!(exact_quantile(&v, 0.9), 9.0);
    assert_eq!(exact_quantile(&v, 0.99), 10.0);
    assert_eq!(exact_quantile(&[], 0.5), 0.0);
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn best_slice_ignores_a_slow_stretch() {
    let start = Instant::now();
    let window = Duration::from_secs(WINDOW_SLICES as u64);
    let mut h = SlicedHistogram::new(start, window);
    for k in 0..WINDOW_SLICES as u64 {
        // Slices 0..3 run under outside load: every unit 60% slower, and
        // fewer units complete.
        let (latency, units) = if k < 3 {
            (16_000, 600)
        } else {
            (10_000, 1_000)
        };
        let end = start + Duration::from_secs(k + 1);
        h.record_at(end, latency, units);
    }
    let (p50, samples) = h.best_quantile(0.5);
    assert!((10_000.0..10_100.0).contains(&p50), "{p50}");
    assert_eq!(samples, 1_000, "the best slice's own sample count");
    assert_eq!(h.count(), 3 * 600 + (WINDOW_SLICES as u64 - 3) * 1_000);
    let (mean, _) = h.best_mean();
    assert_eq!(mean, 10_000.0);
    // Each slice spans one second, so the best rate is 1000 units/s.
    assert!((h.best_rate() - 1_000.0).abs() < 1e-6, "{}", h.best_rate());
}

#[test]
fn late_units_count_in_the_last_slice() {
    let start = Instant::now();
    let mut h = SlicedHistogram::new(start, Duration::from_secs(2));
    h.record_at(start + Duration::from_secs(5), 1_000, 1);
    let (p50, samples) = h.best_quantile(0.5);
    assert_eq!(samples, 1);
    assert!((1_000.0..1_008.0).contains(&p50));
}

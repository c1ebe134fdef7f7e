//! Exact segment–AABB distance.
//!
//! The conservative-advancement sweep trades narrow-phase intersection
//! tests for clearance *distance* queries, and the old 64-iteration
//! ternary search made each segment–box query cost ~128 point–box
//! evaluations. [`segment_aabb_distance`] replaces it with an **exact
//! closed form**: the squared distance along the segment is a convex
//! piecewise quadratic whose half-derivative is piecewise *linear* with at
//! most six breakpoints (the per-axis slab entry/exit parameters), so the
//! minimizing parameter comes from locating the derivative's sign change
//! and interpolating within one linear piece — roughly a hundred flops
//! instead of ~1500, with a short bisection fallback reserved for the
//! degenerate edge-graze bracket.

use crate::{Aabb, Segment};

/// Axes whose segment direction component is at most this value are treated
/// as static (constant coordinate). The threshold is far below any
/// representable lab geometry, but large enough that `1/d` and the slab
/// crossing parameters stay finite for every input.
const STATIC_AXIS: f64 = 1e-120;

/// Bisection steps used by the degenerate-bracket fallback of the
/// closed-form minimizer. The derivative is linear inside a bracket, so
/// interpolation is normally exact; bisection only runs when the
/// interpolated step leaves the bracket (an edge-graze bracket whose
/// endpoints are numerically indistinguishable).
const FALLBACK_BISECTIONS: usize = 16;

/// Exact minimum distance between a segment and an axis-aligned box
/// (0 when they touch or the segment passes through the box).
///
/// Closed form: writing the segment as `P(t) = A + tD`, the squared
/// point–box distance `f(t)` decomposes per axis into
/// `w_k · max(t_in_k − t, t − t_out_k, 0)²` for moving axes (with
/// `w_k = D_k²` and `t_in/t_out` the slab crossing parameters) plus a
/// constant gap for static axes. `f` is convex and its half-derivative
/// `h(t) = Σ w_k (max(t − t_out_k, 0) − max(t_in_k − t, 0))` is continuous,
/// nondecreasing, and piecewise linear with at most six breakpoints, so the
/// global minimizer on `[0, 1]` is an endpoint (when `h` does not change
/// sign) or the interpolated root of `h` inside one linear piece.
pub fn segment_aabb_distance(seg: &Segment, aabb: &Aabb) -> f64 {
    let a = [seg.a.x, seg.a.y, seg.a.z];
    let b = [seg.b.x, seg.b.y, seg.b.z];
    let lo = [aabb.min().x, aabb.min().y, aabb.min().z];
    let hi = [aabb.max().x, aabb.max().y, aabb.max().z];
    // Per-axis slab decomposition.
    let mut fixed = 0.0; // squared gap contributed by static axes
    let mut t_in = [f64::NEG_INFINITY; 3];
    let mut t_out = [f64::INFINITY; 3];
    let mut w = [0.0_f64; 3];
    let mut breaks = [0.0_f64; 6];
    let mut n_breaks = 0;
    for k in 0..3 {
        let d = b[k] - a[k];
        if d.abs() <= STATIC_AXIS {
            let gap = (lo[k] - a[k]).max(a[k] - hi[k]).max(0.0);
            fixed += gap * gap;
        } else {
            let inv = 1.0 / d;
            let t0 = (lo[k] - a[k]) * inv;
            let t1 = (hi[k] - a[k]) * inv;
            let (enter, exit) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            t_in[k] = enter;
            t_out[k] = exit;
            w[k] = d * d;
            if enter > 0.0 && enter < 1.0 {
                breaks[n_breaks] = enter;
                n_breaks += 1;
            }
            if exit > 0.0 && exit < 1.0 {
                breaks[n_breaks] = exit;
                n_breaks += 1;
            }
        }
    }
    // Branch-free objective and half-derivative (static axes contribute
    // zero weight, so their ±infinity sentinels vanish under max(_, 0)).
    let f = |t: f64| -> f64 {
        let mut s = fixed;
        for k in 0..3 {
            let g = (t_in[k] - t).max(t - t_out[k]).max(0.0);
            s += w[k] * g * g;
        }
        s
    };
    let h = |t: f64| -> f64 {
        let mut s = 0.0;
        for k in 0..3 {
            s += w[k] * ((t - t_out[k]).max(0.0) - (t_in[k] - t).max(0.0));
        }
        s
    };
    let h0 = h(0.0);
    if h0 >= 0.0 {
        return f(0.0).sqrt();
    }
    let h1 = h(1.0);
    if h1 <= 0.0 {
        return f(1.0).sqrt();
    }
    // h changes sign in (0, 1): scan the sorted breakpoints for the
    // bracketing linear piece and interpolate its root.
    breaks[..n_breaks].sort_unstable_by(f64::total_cmp);
    let (mut t_lo, mut h_lo) = (0.0, h0);
    for &t in &breaks[..n_breaks] {
        let ht = h(t);
        if ht >= 0.0 {
            return f(root_in_bracket(t_lo, h_lo, t, ht, &h)).sqrt();
        }
        (t_lo, h_lo) = (t, ht);
    }
    f(root_in_bracket(t_lo, h_lo, 1.0, h1, &h)).sqrt()
}

/// Root of the half-derivative inside a sign-change bracket
/// (`h(t_lo) < 0 <= h(t_hi)`). `h` is linear on the bracket, so
/// interpolation is exact; a short bisection covers the degenerate
/// edge-graze bracket where the interpolated step is not representable
/// inside it.
fn root_in_bracket(t_lo: f64, h_lo: f64, t_hi: f64, h_hi: f64, h: &impl Fn(f64) -> f64) -> f64 {
    debug_assert!(h_lo < 0.0 && h_hi >= 0.0);
    if h_hi == 0.0 {
        // An exact zero at the bracket's upper end (the common through-box
        // entry): the minimum is attained there, keep it bit-exact.
        return t_hi;
    }
    let slope = h_hi - h_lo;
    if slope > 0.0 {
        let t = t_lo + (t_hi - t_lo) * (-h_lo / slope);
        if t >= t_lo && t <= t_hi {
            return t;
        }
    }
    let (mut lo, mut hi) = (t_lo, t_hi);
    for _ in 0..FALLBACK_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        if h(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;

    fn brute_force(seg: &Segment, aabb: &Aabb, steps: usize) -> f64 {
        (0..=steps)
            .map(|i| aabb.distance_to_point(seg.point_at(i as f64 / steps as f64)))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn closed_form_matches_brute_force_on_fixed_cases() {
        let aabb = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let cases = [
            Segment::new(Vec3::new(-1.0, -1.0, 2.0), Vec3::new(2.0, 2.0, 2.0)),
            Segment::new(Vec3::new(2.5, 1.0, 1.0), Vec3::new(1.0, 2.5, 1.0)),
            Segment::new(Vec3::new(-0.5, 0.5, 0.5), Vec3::new(-0.1, 0.5, 0.5)),
            Segment::new(Vec3::new(0.3, 0.3, 1.4), Vec3::new(0.9, 1.8, 1.1)),
        ];
        for seg in &cases {
            let exact = segment_aabb_distance(seg, &aabb);
            let brute = brute_force(seg, &aabb, 20_000);
            assert!(exact <= brute + 1e-12, "exact {exact} above brute {brute}");
            assert!(
                brute - exact < 1e-7,
                "exact {exact} far below brute {brute}"
            );
        }
    }

    #[test]
    fn through_box_is_exactly_zero() {
        let aabb = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let through = Segment::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(2.0, 0.5, 0.5));
        assert_eq!(segment_aabb_distance(&through, &aabb), 0.0);
        let diagonal = Segment::new(Vec3::new(-0.5, -0.5, -0.5), Vec3::new(1.5, 1.5, 1.5));
        assert_eq!(segment_aabb_distance(&diagonal, &aabb), 0.0);
        let ends_inside = Segment::new(Vec3::new(3.0, 0.5, 0.5), Vec3::new(0.5, 0.5, 0.5));
        assert_eq!(segment_aabb_distance(&ends_inside, &aabb), 0.0);
        let starts_inside = Segment::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.5, 4.0, 0.5));
        assert_eq!(segment_aabb_distance(&starts_inside, &aabb), 0.0);
    }

    #[test]
    fn degenerate_segment_is_point_distance() {
        let aabb = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let p = Vec3::new(2.0, 0.5, 0.5);
        let seg = Segment::new(p, p);
        let d = segment_aabb_distance(&seg, &aabb);
        assert!((d - 1.0).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn edge_graze_is_tiny() {
        // Segment touching the top +x edge of the unit box tangentially.
        let aabb = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let seg = Segment::new(Vec3::new(1.0, -1.0, 1.0), Vec3::new(1.0, 2.0, 1.0));
        let d = segment_aabb_distance(&seg, &aabb);
        assert!(d.abs() < 1e-12, "edge graze distance {d}");
    }
}

//! Property suite for the closed-form segment–AABB distance.
//!
//! The closed form replaced a 64-iteration ternary search; this suite
//! keeps that reference alive *in the tests* and checks the closed form
//! against it on ≥10k random segment/box triples (plus adversarial
//! through-box and edge-graze families). Hand-rolled property loops on
//! the in-tree seeded PRNG, so failures reproduce exactly and the suite
//! needs no external dependency.

use rabit_geometry::distance::segment_aabb_distance;
use rabit_geometry::{Aabb, Segment, Vec3};
use rabit_util::Rng;

/// Random segment/box triples checked per property — the suite's
/// headline count.
const CASES: usize = 10_000;

/// Reference tolerance: the ternary search shrinks its bracket by 1/3
/// per iteration, so after 64 iterations its parameter error is ~5e-12
/// and, with Lipschitz constant bounded by the segment length (≤ ~35 in
/// the sampled coordinate range), its distance error is well under 1e-9.
const TOL: f64 = 1e-9;

fn coord(rng: &mut Rng) -> f64 {
    rng.random_range(-10.0..10.0)
}

fn vec3(rng: &mut Rng) -> Vec3 {
    Vec3::new(coord(rng), coord(rng), coord(rng))
}

fn aabb(rng: &mut Rng) -> Aabb {
    Aabb::new(vec3(rng), vec3(rng))
}

fn segment(rng: &mut Rng) -> Segment {
    Segment::new(vec3(rng), vec3(rng))
}

/// The pre-closed-form reference: 64-iteration ternary search on the
/// convex point–box distance along the segment, with both endpoints
/// folded in.
fn ternary_reference(seg: &Segment, aabb: &Aabb) -> f64 {
    let f = |t: f64| aabb.distance_to_point(seg.point_at(t));
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..64 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if f(m1) <= f(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    f(0.5 * (lo + hi)).min(f(0.0)).min(f(1.0))
}

fn assert_matches_reference(seg: &Segment, b: &Aabb, what: &str) {
    let exact = segment_aabb_distance(seg, b);
    let reference = ternary_reference(seg, b);
    assert!(
        (exact - reference).abs() <= TOL,
        "{what}: closed form {exact} vs ternary {reference} for seg \
         ({:?} -> {:?}) box ({:?}..{:?})",
        seg.a,
        seg.b,
        b.min(),
        b.max()
    );
}

#[test]
fn closed_form_matches_ternary_on_random_triples() {
    let mut rng = Rng::seed_from_u64(0x5eed_d157);
    for _ in 0..CASES {
        let b = aabb(&mut rng);
        let seg = segment(&mut rng);
        assert_matches_reference(&seg, &b, "random triple");
    }
}

#[test]
fn closed_form_matches_ternary_on_through_box_segments() {
    // Segments whose chord crosses the box interior: the minimum is an
    // exact 0 attained on an interval, the ternary search's worst case
    // and the closed form's slab-entry special case.
    let mut rng = Rng::seed_from_u64(0x7412_0b0e);
    for _ in 0..CASES / 4 {
        let b = aabb(&mut rng);
        let inside = Vec3::new(
            rng.random_range(b.min().x..b.max().x),
            rng.random_range(b.min().y..b.max().y),
            rng.random_range(b.min().z..b.max().z),
        );
        let dir = vec3(&mut rng);
        let seg = Segment::new(inside - dir, inside + dir);
        assert_matches_reference(&seg, &b, "through-box");
        assert_eq!(
            segment_aabb_distance(&seg, &b),
            0.0,
            "a segment through the interior has exactly zero distance"
        );
    }
}

#[test]
fn closed_form_matches_ternary_on_face_and_edge_grazes() {
    // Segments lying in a face plane (or its offset), sliding along the
    // box without entering it: the derivative's sign-change bracket can
    // degenerate to the edge itself.
    let mut rng = Rng::seed_from_u64(0xedce_6a2e);
    for i in 0..CASES / 4 {
        let b = aabb(&mut rng);
        let axis = i % 3;
        let offset = rng.random_range(0.0..2.0);
        let plane = match axis {
            0 => b.max().x + offset,
            1 => b.max().y + offset,
            _ => b.max().z + offset,
        };
        let mut a = vec3(&mut rng);
        let mut c = vec3(&mut rng);
        match axis {
            0 => {
                a.x = plane;
                c.x = plane;
            }
            1 => {
                a.y = plane;
                c.y = plane;
            }
            _ => {
                a.z = plane;
                c.z = plane;
            }
        }
        let seg = Segment::new(a, c);
        assert_matches_reference(&seg, &b, "face graze");
        assert!(
            segment_aabb_distance(&seg, &b) >= offset - TOL,
            "graze distance can't undercut the plane offset"
        );
    }
}

#[test]
fn closed_form_matches_ternary_on_degenerate_segments() {
    // Zero-length and single-static-axis segments exercise the
    // static-axis path of the slab decomposition.
    let mut rng = Rng::seed_from_u64(0xde6e_4e7a);
    for i in 0..CASES / 4 {
        let b = aabb(&mut rng);
        let p = vec3(&mut rng);
        let seg = if i % 2 == 0 {
            Segment::new(p, p)
        } else {
            let mut q = p;
            match i % 6 {
                1 => q.x = coord(&mut rng),
                3 => q.y = coord(&mut rng),
                _ => q.z = coord(&mut rng),
            }
            Segment::new(p, q)
        };
        assert_matches_reference(&seg, &b, "degenerate segment");
    }
}

//! Collision and distance queries between lab shapes.
//!
//! The Extended Simulator polls the robot arm's trajectory and compares it
//! with device cuboids (paper §III). Each poll reduces to the queries in
//! this module: capsule-vs-cuboid for arm links against devices, and
//! capsule-vs-capsule for arm-against-arm checks on the testbed.

use crate::{Aabb, Capsule, Segment, Sphere, Vec3};

/// Minimum distance between a segment and an axis-aligned box
/// (0 when they touch or the segment passes through the box).
///
/// Delegates to the exact closed-form minimizer in [`crate::distance`],
/// which replaced the former 64-iteration ternary search: the convex
/// point–box objective's derivative is piecewise linear along the segment,
/// so the minimizing parameter is solved directly instead of searched for.
pub fn segment_aabb_distance(seg: &Segment, aabb: &Aabb) -> f64 {
    crate::distance::segment_aabb_distance(seg, aabb)
}

/// Distance between a capsule surface and an axis-aligned box
/// (negative when they interpenetrate).
pub fn capsule_aabb_distance(cap: &Capsule, aabb: &Aabb) -> f64 {
    segment_aabb_distance(&cap.segment, aabb) - cap.radius
}

/// Returns `true` if a capsule overlaps or touches an axis-aligned box.
pub fn capsule_intersects_aabb(cap: &Capsule, aabb: &Aabb) -> bool {
    capsule_aabb_distance(cap, aabb) <= 0.0
}

/// Distance between a sphere surface and a capsule surface
/// (negative when they interpenetrate).
pub fn sphere_capsule_distance(sphere: &Sphere, cap: &Capsule) -> f64 {
    cap.segment.distance_to_point(sphere.center) - cap.radius - sphere.radius
}

/// Swept-point check: does the straight path from `from` to `to` pass
/// within `clearance` of the box? This is the query RABIT falls back to
/// when no simulator is attached — "only the target location is checked
/// for potential collisions" uses `clearance = 0` on the single point.
pub fn path_hits_aabb(from: Vec3, to: Vec3, aabb: &Aabb, clearance: f64) -> bool {
    segment_aabb_distance(&Segment::new(from, to), aabb) <= clearance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn segment_through_box_has_zero_distance() {
        let seg = Segment::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(2.0, 0.5, 0.5));
        assert_eq!(segment_aabb_distance(&seg, &unit_box()), 0.0);
    }

    #[test]
    fn segment_endpoint_inside_box() {
        let seg = Segment::new(Vec3::splat(0.5), Vec3::new(5.0, 5.0, 5.0));
        assert_eq!(segment_aabb_distance(&seg, &unit_box()), 0.0);
    }

    #[test]
    fn segment_parallel_above_box() {
        let seg = Segment::new(Vec3::new(0.0, 0.5, 2.0), Vec3::new(1.0, 0.5, 2.0));
        assert!((segment_aabb_distance(&seg, &unit_box()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segment_diagonal_near_corner() {
        // Segment passing near the (1,1,1) corner at distance sqrt(3)*0.5 along
        // the diagonal direction... verify against an explicit construction:
        // points on the plane x+y+z = 4.5 closest to corner (1,1,1).
        let seg = Segment::new(Vec3::new(2.5, 1.0, 1.0), Vec3::new(1.0, 2.5, 1.0));
        // Closest point on segment to the corner (1,1,1) is the midpoint
        // (1.75, 1.75, 1.0); distance = sqrt(0.75^2 * 2).
        let expect = (2.0 * 0.75_f64 * 0.75).sqrt();
        assert!((segment_aabb_distance(&seg, &unit_box()) - expect).abs() < 1e-6);
    }

    #[test]
    fn face_gap_fast_path_is_exact() {
        // Segments hovering over (or beside) a slab, footprint-contained:
        // the closed-form face gap must equal the affine minimum exactly
        // and agree with a brute-force scan along the segment.
        let slab = Aabb::new(Vec3::new(-2.0, -2.0, -0.3), Vec3::new(2.0, 2.0, 0.0));
        let cases = [
            // Tilted above the slab: minimum at the lower endpoint.
            (
                Segment::new(Vec3::new(0.1, 0.4, 0.25), Vec3::new(-0.6, 1.2, 0.07)),
                0.07,
            ),
            // Level above.
            (
                Segment::new(Vec3::new(-1.0, 0.0, 0.5), Vec3::new(1.0, 0.5, 0.5)),
                0.5,
            ),
            // Beyond the +x face of a small box (checked below).
        ];
        for (seg, expect) in &cases {
            let d = segment_aabb_distance(seg, &slab);
            assert!((d - expect).abs() < 1e-12, "got {d}, expected {expect}");
            // Brute-force lower bound check.
            let brute = (0..=1000)
                .map(|i| slab.distance_to_point(seg.point_at(i as f64 / 1000.0)))
                .fold(f64::INFINITY, f64::min);
            assert!(
                d <= brute + 1e-12,
                "closed form {d} above brute force {brute}"
            );
        }
        let small = unit_box();
        let side = Segment::new(Vec3::new(1.4, 0.2, 0.3), Vec3::new(1.9, 0.8, 0.7));
        assert!((segment_aabb_distance(&side, &small) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn capsule_box_interpenetration_is_negative() {
        let cap = Capsule::new(Vec3::new(0.5, 0.5, 1.05), Vec3::new(0.5, 0.5, 2.0), 0.1);
        let d = capsule_aabb_distance(&cap, &unit_box());
        assert!(d < 0.0, "expected penetration, got {d}");
        assert!(capsule_intersects_aabb(&cap, &unit_box()));
    }

    #[test]
    fn capsule_box_clearance() {
        let cap = Capsule::new(Vec3::new(0.5, 0.5, 1.5), Vec3::new(0.5, 0.5, 2.0), 0.1);
        let d = capsule_aabb_distance(&cap, &unit_box());
        assert!((d - 0.4).abs() < 1e-9);
        assert!(!capsule_intersects_aabb(&cap, &unit_box()));
    }

    #[test]
    fn held_object_changes_collision_outcome() {
        // The Bug-D scenario in miniature: a wrist passing 0.05 over the
        // platform clears it alone, but not when holding a vial that hangs
        // 0.08 below the gripper (modelled as radius inflation).
        let platform = Aabb::new(Vec3::new(-1.0, -1.0, -0.2), Vec3::new(1.0, 1.0, 0.0));
        let wrist = Capsule::new(Vec3::new(-0.5, 0.0, 0.08), Vec3::new(0.5, 0.0, 0.08), 0.02);
        assert!(!capsule_intersects_aabb(&wrist, &platform));
        let with_vial = wrist.inflated(0.07);
        assert!(capsule_intersects_aabb(&with_vial, &platform));
    }

    #[test]
    fn sphere_queries() {
        let far = Sphere::new(Vec3::new(0.5, 0.5, 3.0), 0.5);
        let cap = Capsule::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 0.1);
        // Closest segment point to the far sphere center is (0,0,1):
        // ‖(0.5,0.5,2)‖ − 0.1 − 0.5 = √4.5 − 0.6.
        let expect = 4.5_f64.sqrt() - 0.6;
        assert!((sphere_capsule_distance(&far, &cap) - expect).abs() < 1e-9);
    }

    #[test]
    fn path_clearance_check() {
        let b = unit_box();
        // A path flying 0.5 above the box with 0.4 clearance requirement: ok.
        assert!(!path_hits_aabb(
            Vec3::new(-1.0, 0.5, 1.5),
            Vec3::new(2.0, 0.5, 1.5),
            &b,
            0.4
        ));
        // Same path with 0.6 required clearance: violation.
        assert!(path_hits_aabb(
            Vec3::new(-1.0, 0.5, 1.5),
            Vec3::new(2.0, 0.5, 1.5),
            &b,
            0.6
        ));
    }
}

//! Segments, capsules, and spheres: the shapes of robot links and held
//! objects.

use crate::{Vec3, EPSILON};

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec3,
    /// End point.
    pub b: Vec3,
}

impl Segment {
    /// Creates a segment between `a` and `b` (degenerate segments with
    /// `a == b` are allowed and behave like points).
    pub const fn new(a: Vec3, b: Vec3) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        (self.b - self.a).norm()
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Vec3 {
        self.a.lerp(self.b, t)
    }

    /// Closest point on the segment to `p`, returned with its parameter `t`.
    pub fn closest_point_to(&self, p: Vec3) -> (Vec3, f64) {
        let ab = self.b - self.a;
        let len2 = ab.norm_squared();
        if len2 <= EPSILON * EPSILON {
            return (self.a, 0.0);
        }
        let t = ((p - self.a).dot(ab) / len2).clamp(0.0, 1.0);
        (self.point_at(t), t)
    }

    /// Distance from the segment to a point.
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        (self.closest_point_to(p).0 - p).norm()
    }

    /// Closest pair of points between two segments, returned as
    /// `(point_on_self, point_on_other)`.
    ///
    /// Implements the standard clamped quadratic minimization
    /// (Ericson, *Real-Time Collision Detection*, §5.1.9).
    pub fn closest_points(&self, other: &Segment) -> (Vec3, Vec3) {
        let d1 = self.b - self.a;
        let d2 = other.b - other.a;
        let r = self.a - other.a;
        let a = d1.norm_squared();
        let e = d2.norm_squared();
        let f = d2.dot(r);

        let (s, t);
        if a <= EPSILON && e <= EPSILON {
            // Both segments degenerate to points.
            return (self.a, other.a);
        }
        if a <= EPSILON {
            s = 0.0;
            t = (f / e).clamp(0.0, 1.0);
        } else {
            let c = d1.dot(r);
            if e <= EPSILON {
                t = 0.0;
                s = (-c / a).clamp(0.0, 1.0);
            } else {
                let b = d1.dot(d2);
                let denom = a * e - b * b;
                let mut s_val = if denom.abs() > EPSILON {
                    ((b * f - c * e) / denom).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let mut t_val = (b * s_val + f) / e;
                if t_val < 0.0 {
                    t_val = 0.0;
                    s_val = (-c / a).clamp(0.0, 1.0);
                } else if t_val > 1.0 {
                    t_val = 1.0;
                    s_val = ((b - c) / a).clamp(0.0, 1.0);
                }
                s = s_val;
                t = t_val;
            }
        }
        (self.point_at(s), other.point_at(t))
    }

    /// Minimum distance between two segments.
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        let (p, q) = self.closest_points(other);
        (p - q).norm()
    }
}

/// A capsule: a segment with a radius. Robot-arm links and grippers are
/// modelled as capsules; a held vial extends the wrist capsule (the paper's
/// Bug-D fix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capsule {
    /// Central segment (the link axis).
    pub segment: Segment,
    /// Radius around the segment.
    pub radius: f64,
}

impl Capsule {
    /// Creates a capsule from segment endpoints and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn new(a: Vec3, b: Vec3, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "capsule radius must be finite and non-negative, got {radius}"
        );
        Capsule {
            segment: Segment::new(a, b),
            radius,
        }
    }

    /// Returns a capsule with the radius grown by `margin` (used for the
    /// held-object geometry extension).
    ///
    /// # Panics
    ///
    /// Panics if the resulting radius would be negative.
    pub fn inflated(&self, margin: f64) -> Capsule {
        Capsule::new(self.segment.a, self.segment.b, self.radius + margin)
    }

    /// Returns `true` if `p` lies inside (or on) the capsule surface.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.segment.distance_to_point(p) <= self.radius
    }

    /// Distance between the *surfaces* of two capsules (negative when they
    /// interpenetrate).
    pub fn distance_to_capsule(&self, other: &Capsule) -> f64 {
        self.segment.distance_to_segment(&other.segment) - self.radius - other.radius
    }

    /// Returns `true` if the two capsules overlap or touch.
    pub fn intersects_capsule(&self, other: &Capsule) -> bool {
        self.distance_to_capsule(other) <= 0.0
    }

    /// The tight axis-aligned bound of the capsule (endpoints inflated by
    /// the radius) — the probe shape for bounding-box prefilters.
    pub fn bounding_box(&self) -> crate::Aabb {
        let r = Vec3::splat(self.radius);
        crate::Aabb::new(
            self.segment.a.min(self.segment.b) - r,
            self.segment.a.max(self.segment.b) + r,
        )
    }
}

/// A sphere, used for simple held objects and end-effector proximity zones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Center.
    pub center: Vec3,
    /// Radius.
    pub radius: f64,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn new(center: Vec3, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "sphere radius must be finite and non-negative, got {radius}"
        );
        Sphere { center, radius }
    }

    /// Returns `true` if `p` lies inside or on the sphere.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.center.distance(p) <= self.radius
    }

    /// Returns `true` if the two spheres overlap or touch.
    pub fn intersects_sphere(&self, other: &Sphere) -> bool {
        self.center.distance(other.center) <= self.radius + other.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_length_and_interpolation() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0));
        assert_eq!(s.length(), 2.0);
        assert_eq!(s.point_at(0.25), Vec3::new(0.0, 0.0, 0.5));
    }

    #[test]
    fn closest_point_on_segment() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        // Projection inside the segment.
        let (p, t) = s.closest_point_to(Vec3::new(0.5, 1.0, 0.0));
        assert_eq!(p, Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(t, 0.5);
        // Projection clamped to the endpoints.
        let (p, t) = s.closest_point_to(Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(p, Vec3::ZERO);
        assert_eq!(t, 0.0);
        let (p, t) = s.closest_point_to(Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(p, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(t, 1.0);
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = Segment::new(Vec3::splat(1.0), Vec3::splat(1.0));
        assert_eq!(s.closest_point_to(Vec3::ZERO).0, Vec3::splat(1.0));
        assert!((s.distance_to_point(Vec3::ZERO) - 3.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn segment_segment_distance_parallel() {
        let a = Segment::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let b = Segment::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(1.0, 1.0, 0.0));
        assert!((a.distance_to_segment(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_segment_distance_crossing() {
        // Skew segments crossing at right angles with 1.0 vertical gap.
        let a = Segment::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let b = Segment::new(Vec3::new(0.0, -1.0, 1.0), Vec3::new(0.0, 1.0, 1.0));
        assert!((a.distance_to_segment(&b) - 1.0).abs() < 1e-12);
        // Actually intersecting segments have distance 0.
        let c = Segment::new(Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        assert!(a.distance_to_segment(&c) < 1e-12);
    }

    #[test]
    fn segment_segment_distance_endpoint_cases() {
        let a = Segment::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let b = Segment::new(Vec3::new(3.0, 0.0, 0.0), Vec3::new(4.0, 0.0, 0.0));
        assert!((a.distance_to_segment(&b) - 2.0).abs() < 1e-12);
        // Degenerate vs regular.
        let p = Segment::new(Vec3::new(0.5, 2.0, 0.0), Vec3::new(0.5, 2.0, 0.0));
        assert!((a.distance_to_segment(&p) - 2.0).abs() < 1e-12);
        // Degenerate vs degenerate.
        let q = Segment::new(Vec3::ZERO, Vec3::ZERO);
        let r = Segment::new(Vec3::new(0.0, 3.0, 4.0), Vec3::new(0.0, 3.0, 4.0));
        assert!((q.distance_to_segment(&r) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn capsule_containment_and_intersection() {
        let c = Capsule::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 0.1);
        assert!(c.contains_point(Vec3::new(0.05, 0.0, 0.5)));
        assert!(!c.contains_point(Vec3::new(0.2, 0.0, 0.5)));
        let d = Capsule::new(Vec3::new(0.15, 0.0, 0.0), Vec3::new(0.15, 0.0, 1.0), 0.1);
        assert!(c.intersects_capsule(&d));
        let e = Capsule::new(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 1.0), 0.1);
        assert!(!c.intersects_capsule(&e));
        assert!((c.distance_to_capsule(&e) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn capsule_inflation_models_held_object() {
        // Wrist capsule; holding a vial of radius 0.014 m extends it.
        let wrist = Capsule::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 0.1), 0.03);
        let with_vial = wrist.inflated(0.014);
        let p = Vec3::new(0.04, 0.0, 0.05);
        assert!(!wrist.contains_point(p));
        assert!(with_vial.contains_point(p));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capsule_radius_panics() {
        let _ = Capsule::new(Vec3::ZERO, Vec3::X, -0.1);
    }

    #[test]
    fn spheres() {
        let a = Sphere::new(Vec3::ZERO, 1.0);
        let b = Sphere::new(Vec3::new(1.5, 0.0, 0.0), 0.4);
        assert!(a.contains_point(Vec3::new(0.5, 0.5, 0.5)));
        assert!(!a.intersects_sphere(&b));
        let c = Sphere::new(Vec3::new(1.2, 0.0, 0.0), 0.4);
        assert!(a.intersects_sphere(&c));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sphere_radius_panics() {
        let _ = Sphere::new(Vec3::ZERO, f64::NEG_INFINITY);
    }
}

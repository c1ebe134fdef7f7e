//! Axis-aligned bounding boxes (the paper's "3D cuboid objects").

use crate::{Vec3, EPSILON};

/// An axis-aligned box, RABIT's canonical device shape.
///
/// The paper models "each device on the experiment deck as a 3D cuboid
/// object" (Fig. 3). The pilot-study participant noted this is a
/// simplification (a centrifuge resembles a hemisphere); RABIT errs on the
/// side of safety by using a bounding cuboid.
///
/// # Example
///
/// ```
/// use rabit_geometry::{Aabb, Vec3};
///
/// let hotplate = Aabb::new(Vec3::new(0.3, 0.3, 0.0), Vec3::new(0.5, 0.5, 0.15));
/// assert!(hotplate.contains_point(Vec3::new(0.4, 0.4, 0.1)));
/// assert!(!hotplate.contains_point(Vec3::new(0.4, 0.4, 0.2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners. Corners may be given in any
    /// order; they are normalized so `min ≤ max` component-wise.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box from its center and half-extents.
    ///
    /// # Panics
    ///
    /// Panics if any half-extent is negative.
    pub fn from_center_half_extents(center: Vec3, half: Vec3) -> Self {
        assert!(
            half.x >= 0.0 && half.y >= 0.0 && half.z >= 0.0,
            "half-extents must be non-negative, got {half}"
        );
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Half-extents along each axis.
    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }

    /// Full size along each axis.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume of the box.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if the two boxes overlap (touching counts).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The closest point inside the box to `p` (is `p` itself when
    /// `p` is inside).
    #[inline]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        p.clamp(self.min, self.max)
    }

    /// Euclidean distance from `p` to the box (0 when inside).
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        (p - self.closest_point(p)).norm()
    }

    /// Euclidean gap between two boxes (0 when they overlap or touch).
    ///
    /// A lower bound on the distance between any shapes the boxes
    /// enclose, which makes it a cheap prefilter before exact
    /// narrow-phase distance evaluations.
    pub fn distance_to(&self, other: &Aabb) -> f64 {
        let gap = |lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64| (lo_b - hi_a).max(lo_a - hi_b);
        let dx = gap(self.min.x, self.max.x, other.min.x, other.max.x).max(0.0);
        let dy = gap(self.min.y, self.max.y, other.min.y, other.max.y).max(0.0);
        let dz = gap(self.min.z, self.max.z, other.min.z, other.max.z).max(0.0);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Returns this box grown by `margin` on every side.
    ///
    /// The held-object extension from the paper (§IV, category 4 — after
    /// Bug D, RABIT was "modified to account that a robot arm's dimensions
    /// may change if it is holding an object") is implemented by inflating
    /// link/box geometry by the held object's extent.
    ///
    /// # Panics
    ///
    /// Panics if `margin` would make the box inside-out
    /// (i.e. `margin < -min(half_extents)`).
    pub fn inflated(&self, margin: f64) -> Aabb {
        let half = self.half_extents() + Vec3::splat(margin);
        assert!(
            half.x >= 0.0 && half.y >= 0.0 && half.z >= 0.0,
            "inflation margin {margin} makes the box inside-out"
        );
        Aabb::from_center_half_extents(self.center(), half)
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Intersects a parametric ray/segment `origin + t * dir`, `t ∈ [0, t_max]`,
    /// with the box (slab method). Returns the entry parameter `t` if the
    /// segment hits the box.
    pub fn intersect_segment(&self, origin: Vec3, dir: Vec3, t_max: f64) -> Option<f64> {
        let mut t_enter: f64 = 0.0;
        let mut t_exit: f64 = t_max;
        for axis in 0..3 {
            let o = origin[axis];
            let d = dir[axis];
            let (lo, hi) = (self.min[axis], self.max[axis]);
            if d.abs() < EPSILON {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (mut t0, mut t1) = ((lo - o) * inv, (hi - o) * inv);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_enter = t_enter.max(t0);
                t_exit = t_exit.min(t1);
                if t_enter > t_exit {
                    return None;
                }
            }
        }
        Some(t_enter)
    }

    /// The eight corner points of the box.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }
}

impl rabit_util::ToJson for Aabb {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::obj([
            ("min", rabit_util::ToJson::to_json(&self.min)),
            ("max", rabit_util::ToJson::to_json(&self.max)),
        ])
    }
}

impl rabit_util::FromJson for Aabb {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        Ok(Aabb::new(
            rabit_util::json::field(json, "min")?,
            rabit_util::json::field(json, "max")?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn box_to_box_distance() {
        let a = unit_box();
        // Overlapping and touching boxes have zero gap.
        assert_eq!(a.distance_to(&a), 0.0);
        let touching = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert_eq!(a.distance_to(&touching), 0.0);
        // Axis-aligned gap.
        let along_x = Aabb::new(Vec3::new(3.0, 0.0, 0.0), Vec3::new(4.0, 1.0, 1.0));
        assert!((a.distance_to(&along_x) - 2.0).abs() < 1e-12);
        // Diagonal gap of (1, 1, 1) between nearest corners.
        let diagonal = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!((a.distance_to(&diagonal) - 3.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.distance_to(&diagonal), diagonal.distance_to(&a));
    }

    #[test]
    fn corner_order_is_normalized() {
        let a = Aabb::new(Vec3::splat(1.0), Vec3::ZERO);
        assert_eq!(a.min(), Vec3::ZERO);
        assert_eq!(a.max(), Vec3::splat(1.0));
    }

    #[test]
    fn center_and_extents() {
        let a = Aabb::from_center_half_extents(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(a.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(a.half_extents(), Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(a.size(), Vec3::new(1.0, 2.0, 3.0));
        assert!((a.volume() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_half_extents_panic() {
        let _ = Aabb::from_center_half_extents(Vec3::ZERO, Vec3::new(-0.1, 0.1, 0.1));
    }

    #[test]
    fn point_containment() {
        let b = unit_box();
        assert!(b.contains_point(Vec3::splat(0.5)));
        assert!(b.contains_point(Vec3::ZERO)); // boundary
        assert!(!b.contains_point(Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn box_intersection() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        let c = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching faces count as intersecting.
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn closest_point_and_distance() {
        let b = unit_box();
        assert_eq!(b.closest_point(Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(
            b.closest_point(Vec3::new(2.0, 0.5, 0.5)),
            Vec3::new(1.0, 0.5, 0.5)
        );
        assert!((b.distance_to_point(Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-12);
        assert_eq!(b.distance_to_point(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn inflation_grows_box() {
        let b = unit_box().inflated(0.1);
        assert!((b.min() - Vec3::splat(-0.1)).norm() < 1e-12);
        assert!((b.max() - Vec3::splat(1.1)).norm() < 1e-12);
        // Deflation is allowed while it keeps the box valid.
        let s = unit_box().inflated(-0.25);
        assert!((s.size() - Vec3::splat(0.5)).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inside-out")]
    fn over_deflation_panics() {
        let _ = unit_box().inflated(-0.6);
    }

    #[test]
    fn union_covers_both() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert_eq!(u.min(), Vec3::ZERO);
        assert_eq!(u.max(), Vec3::splat(3.0));
    }

    #[test]
    fn segment_intersection_hits_and_misses() {
        let b = unit_box();
        // Straight through the middle along X.
        let t = b
            .intersect_segment(Vec3::new(-1.0, 0.5, 0.5), Vec3::X, 3.0)
            .unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        // Starting inside: entry at t = 0.
        let t = b.intersect_segment(Vec3::splat(0.5), Vec3::X, 3.0).unwrap();
        assert_eq!(t, 0.0);
        // Parallel miss.
        assert!(b
            .intersect_segment(Vec3::new(-1.0, 2.0, 0.5), Vec3::X, 3.0)
            .is_none());
        // Too short to reach.
        assert!(b
            .intersect_segment(Vec3::new(-1.0, 0.5, 0.5), Vec3::X, 0.5)
            .is_none());
    }

    #[test]
    fn corners_are_all_distinct_and_contained() {
        let b = unit_box();
        let cs = b.corners();
        for (i, c) in cs.iter().enumerate() {
            assert!(b.contains_point(*c));
            for other in cs.iter().skip(i + 1) {
                assert_ne!(c, other);
            }
        }
    }
}

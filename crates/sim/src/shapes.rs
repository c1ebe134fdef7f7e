//! Non-cuboid obstacle shapes — the paper's first open challenge.
//!
//! "Real-life, software-controlled devices come in different shapes and
//! sizes, so we need to expand our device descriptions to easily handle
//! objects other than cuboids" (§V-C). Participant P noted that "a
//! centrifuge resembles a hemisphere more than a cuboid and the
//! thermoshaker has a bump at the top" (§V-A).
//!
//! [`ObstacleShape`] extends the simulator's world with exactly those
//! cases: hemispheres, spheres, vertical cylinders, and composites (a box
//! with a bump on top), while keeping the cuboid as the default.

use rabit_geometry::{collide, Aabb, Capsule, Segment, Sphere, Vec3};

/// A vertical cylinder (axis along +z), the shape of stirrers and
/// ultrasonic nozzles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerticalCylinder {
    /// Center of the base circle.
    pub base: Vec3,
    /// Height above the base.
    pub height: f64,
    /// Radius.
    pub radius: f64,
}

impl VerticalCylinder {
    /// Creates a vertical cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `height` or `radius` is not strictly positive.
    pub fn new(base: Vec3, height: f64, radius: f64) -> Self {
        assert!(
            height > 0.0 && radius > 0.0,
            "cylinder needs positive dimensions"
        );
        VerticalCylinder {
            base,
            height,
            radius,
        }
    }

    /// The cylinder's central axis as a capsule of radius `radius` — a
    /// capsule over-approximates the cylinder by its end caps only, which
    /// is the safe direction for collision checking.
    fn as_capsule(&self) -> Capsule {
        Capsule::new(
            self.base,
            self.base + Vec3::new(0.0, 0.0, self.height),
            self.radius,
        )
    }
}

/// An obstacle shape in the simulated world.
#[derive(Debug, Clone, PartialEq)]
pub enum ObstacleShape {
    /// The paper's default: an axis-aligned cuboid.
    Cuboid(Aabb),
    /// A hemisphere sitting dome-up on the deck (the centrifuge).
    /// Conservatively checked as the full sphere clipped to z ≥ base z
    /// via its bounding test — see [`ObstacleShape::intersects_capsule`].
    Hemisphere {
        /// Center of the flat base circle.
        base_center: Vec3,
        /// Radius of the dome.
        radius: f64,
    },
    /// A full sphere (levitated/handled objects).
    Sphere(Sphere),
    /// A vertical cylinder.
    Cylinder(VerticalCylinder),
    /// A union of shapes — e.g. "the thermoshaker has a bump at the top":
    /// a cuboid body plus a hemisphere bump.
    Composite(Vec<ObstacleShape>),
}

impl ObstacleShape {
    /// A cuboid body with a hemispheric bump centred on its top face —
    /// P's thermoshaker.
    pub fn box_with_bump(body: Aabb, bump_radius: f64) -> Self {
        let top = Vec3::new(body.center().x, body.center().y, body.max().z);
        ObstacleShape::Composite(vec![
            ObstacleShape::Cuboid(body),
            ObstacleShape::Hemisphere {
                base_center: top,
                radius: bump_radius,
            },
        ])
    }

    /// Returns `true` if `capsule` touches this shape.
    pub fn intersects_capsule(&self, capsule: &Capsule) -> bool {
        match self {
            ObstacleShape::Cuboid(aabb) => collide::capsule_intersects_aabb(capsule, aabb),
            ObstacleShape::Hemisphere {
                base_center,
                radius,
            } => {
                // Sphere test, then reject hits that lie entirely below
                // the base plane (the dome's flat side faces down).
                let sphere = Sphere::new(*base_center, *radius);
                if collide::sphere_capsule_distance(&sphere, capsule) > 0.0 {
                    return false;
                }
                // The closest point of the capsule axis to the dome centre
                // decides which half the contact is in.
                let (closest, _) = capsule.segment.closest_point_to(*base_center);
                closest.z + capsule.radius >= base_center.z
            }
            ObstacleShape::Sphere(sphere) => {
                collide::sphere_capsule_distance(sphere, capsule) <= 0.0
            }
            ObstacleShape::Cylinder(cyl) => capsule.intersects_capsule(&cyl.as_capsule()),
            ObstacleShape::Composite(parts) => parts.iter().any(|p| p.intersects_capsule(capsule)),
        }
    }

    /// Signed clearance between `capsule` and the *collision volume* this
    /// shape's [`ObstacleShape::intersects_capsule`] tests: a positive
    /// return guarantees no intersection, and — the property the
    /// conservative-advancement sweep rests on — any displaced capsule
    /// whose every point stays within `d < distance` of `capsule` still
    /// cannot intersect.
    ///
    /// Each arm of the match is a sound underestimate of the distance to
    /// the corresponding narrow-phase volume: the cuboid uses the same
    /// capsule–AABB minimisation as the hit test (which can overshoot the
    /// true minimum by ~1e-11, so consumers must keep a small positive
    /// margin); the hemisphere returns the distance to the *full* sphere,
    /// strictly below the distance to the dome; the cylinder measures
    /// against the same axis capsule the hit test over-approximates with;
    /// composites take the minimum over their parts. An empty composite has
    /// infinite clearance.
    pub fn distance_to_capsule(&self, capsule: &Capsule) -> f64 {
        match self {
            ObstacleShape::Cuboid(aabb) => collide::capsule_aabb_distance(capsule, aabb),
            ObstacleShape::Hemisphere {
                base_center,
                radius,
            } => collide::sphere_capsule_distance(&Sphere::new(*base_center, *radius), capsule),
            ObstacleShape::Sphere(sphere) => collide::sphere_capsule_distance(sphere, capsule),
            ObstacleShape::Cylinder(cyl) => capsule.distance_to_capsule(&cyl.as_capsule()),
            ObstacleShape::Composite(parts) => parts
                .iter()
                .map(|p| p.distance_to_capsule(capsule))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// A conservative axis-aligned bound (used for world queries and
    /// debugging displays).
    pub fn bounding_box(&self) -> Aabb {
        match self {
            ObstacleShape::Cuboid(aabb) => *aabb,
            ObstacleShape::Hemisphere {
                base_center,
                radius,
            } => Aabb::new(
                *base_center - Vec3::new(*radius, *radius, 0.0),
                *base_center + Vec3::new(*radius, *radius, *radius),
            ),
            ObstacleShape::Sphere(s) => {
                Aabb::from_center_half_extents(s.center, Vec3::splat(s.radius))
            }
            // Bound of the *collision* volume: the narrow phase checks the
            // axis capsule, whose rounded caps bulge past the flat cylinder
            // ends by `radius`. The bound must cover those caps, or a
            // prefilter over the bounds would prune real contacts.
            ObstacleShape::Cylinder(c) => c.as_capsule().bounding_box(),
            ObstacleShape::Composite(parts) => {
                let mut it = parts.iter().map(ObstacleShape::bounding_box);
                let first = it
                    .next()
                    .unwrap_or_else(|| Aabb::new(Vec3::ZERO, Vec3::ZERO));
                it.fold(first, |acc, b| acc.union(&b))
            }
        }
    }
}

/// One primitive of a shape's distance decomposition, as consumed by the
/// world's distance index. Each primitive mirrors the corresponding arm of
/// [`ObstacleShape::distance_to_capsule`] exactly — hemispheres decompose
/// to their *full* bounding sphere (the same sound underestimate the
/// shape-level path uses) — so a minimum over a shape's primitives
/// reproduces the shape-level clearance bit for bit. `bound` is the part's
/// prefilter bound, matching [`ObstacleShape::bounding_box`] so the
/// primitive-level prefilter prunes no differently than the obstacle-level
/// one.
#[derive(Debug, Clone)]
pub(crate) enum DistancePrim {
    /// An axis-aligned cuboid.
    Box(Aabb),
    /// A capsule volume (the cylinder's axis capsule).
    Capsule {
        /// The capsule's axis segment.
        segment: Segment,
        /// The capsule's radius.
        radius: f64,
        /// Prefilter bound of the part.
        bound: Aabb,
    },
    /// A sphere (spheres, and hemispheres via their bounding sphere).
    Sphere {
        /// The sphere's center.
        center: Vec3,
        /// The sphere's radius.
        radius: f64,
        /// Prefilter bound of the part.
        bound: Aabb,
    },
}

impl DistancePrim {
    /// The primitive's prefilter bound.
    pub(crate) fn bound(&self) -> Aabb {
        match self {
            DistancePrim::Box(aabb) => *aabb,
            DistancePrim::Capsule { bound, .. } | DistancePrim::Sphere { bound, .. } => *bound,
        }
    }

    /// Signed surface distance from `capsule` to this primitive (negative
    /// on interpenetration). The query capsule's radius is subtracted
    /// before the primitive's, the operation order of
    /// [`ObstacleShape::distance_to_capsule`], so both agree bit for bit.
    pub(crate) fn distance_to_capsule(&self, capsule: &Capsule) -> f64 {
        match self {
            DistancePrim::Box(aabb) => collide::capsule_aabb_distance(capsule, aabb),
            DistancePrim::Capsule {
                segment, radius, ..
            } => (capsule.segment.distance_to_segment(segment) - capsule.radius) - radius,
            DistancePrim::Sphere { center, radius, .. } => {
                (capsule.segment.distance_to_point(*center) - capsule.radius) - radius
            }
        }
    }
}

impl ObstacleShape {
    /// Visits the distance primitives of this shape in deterministic
    /// (composite-declaration) order.
    pub(crate) fn for_each_distance_prim(&self, f: &mut impl FnMut(DistancePrim)) {
        match self {
            ObstacleShape::Cuboid(aabb) => f(DistancePrim::Box(*aabb)),
            ObstacleShape::Hemisphere {
                base_center,
                radius,
            } => f(DistancePrim::Sphere {
                center: *base_center,
                radius: *radius,
                bound: self.bounding_box(),
            }),
            ObstacleShape::Sphere(s) => f(DistancePrim::Sphere {
                center: s.center,
                radius: s.radius,
                bound: self.bounding_box(),
            }),
            ObstacleShape::Cylinder(cyl) => {
                let capsule = cyl.as_capsule();
                f(DistancePrim::Capsule {
                    segment: capsule.segment,
                    radius: capsule.radius,
                    bound: capsule.bounding_box(),
                })
            }
            ObstacleShape::Composite(parts) => {
                for part in parts {
                    part.for_each_distance_prim(f);
                }
            }
        }
    }
}

impl From<Aabb> for ObstacleShape {
    fn from(aabb: Aabb) -> Self {
        ObstacleShape::Cuboid(aabb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capsule_at(p: Vec3) -> Capsule {
        Capsule::new(p, p + Vec3::new(0.0, 0.0, 0.05), 0.02)
    }

    #[test]
    fn cuboid_matches_aabb_behaviour() {
        let shape: ObstacleShape = Aabb::new(Vec3::ZERO, Vec3::splat(0.2)).into();
        assert!(shape.intersects_capsule(&capsule_at(Vec3::splat(0.1))));
        assert!(!shape.intersects_capsule(&capsule_at(Vec3::splat(0.5))));
        assert_eq!(
            shape.bounding_box(),
            Aabb::new(Vec3::ZERO, Vec3::splat(0.2))
        );
    }

    #[test]
    fn hemisphere_hits_dome_not_underside() {
        // Centrifuge dome: base at z = 0.0, radius 0.15.
        let dome = ObstacleShape::Hemisphere {
            base_center: Vec3::new(0.0, 0.0, 0.0),
            radius: 0.15,
        };
        // Grazing the dome top.
        assert!(dome.intersects_capsule(&capsule_at(Vec3::new(0.0, 0.0, 0.14))));
        // Beside the dome at dome height: within sphere radius? 0.1 away
        // horizontally at z=0.05 → inside the sphere → hit.
        assert!(dome.intersects_capsule(&capsule_at(Vec3::new(0.1, 0.0, 0.05))));
        // Below the base plane: the flat underside is not a surface the
        // arm can hit from below in this model.
        let below = Capsule::new(Vec3::new(0.0, 0.0, -0.30), Vec3::new(0.0, 0.0, -0.10), 0.02);
        assert!(!dome.intersects_capsule(&below));
        // Clearly outside.
        assert!(!dome.intersects_capsule(&capsule_at(Vec3::new(0.5, 0.0, 0.05))));
    }

    #[test]
    fn hemisphere_tighter_than_equivalent_cuboid() {
        // The point of non-cuboid shapes: corners of the bounding box are
        // free space for a hemisphere.
        let dome = ObstacleShape::Hemisphere {
            base_center: Vec3::ZERO,
            radius: 0.15,
        };
        let bounding = ObstacleShape::Cuboid(dome.bounding_box());
        // A capsule at the top corner of the bounding box.
        let corner = capsule_at(Vec3::new(0.12, 0.12, 0.12));
        assert!(
            bounding.intersects_capsule(&corner),
            "cuboid over-approximates"
        );
        assert!(!dome.intersects_capsule(&corner), "hemisphere does not");
    }

    #[test]
    fn cylinder_checks() {
        let cyl =
            ObstacleShape::Cylinder(VerticalCylinder::new(Vec3::new(0.3, 0.0, 0.0), 0.25, 0.04));
        assert!(cyl.intersects_capsule(&capsule_at(Vec3::new(0.33, 0.0, 0.1))));
        assert!(!cyl.intersects_capsule(&capsule_at(Vec3::new(0.45, 0.0, 0.1))));
        let bb = cyl.bounding_box();
        assert!(bb.contains_point(Vec3::new(0.3, 0.0, 0.25)));
    }

    #[test]
    fn composite_box_with_bump() {
        // P's thermoshaker: 0.2×0.2×0.15 body with a 0.05 bump on top.
        let body = Aabb::new(Vec3::new(-0.1, -0.1, 0.0), Vec3::new(0.1, 0.1, 0.15));
        let shape = ObstacleShape::box_with_bump(body, 0.05);
        // Body hit.
        assert!(shape.intersects_capsule(&capsule_at(Vec3::new(0.0, 0.0, 0.1))));
        // Bump hit (above the body top, inside the dome).
        assert!(shape.intersects_capsule(&capsule_at(Vec3::new(0.0, 0.0, 0.17))));
        // Above the bump: free.
        assert!(!shape.intersects_capsule(&capsule_at(Vec3::new(0.0, 0.0, 0.25))));
        // Beside the bump at bump height (outside the dome, outside the
        // body): free — a cuboid tall enough to cover the bump would have
        // blocked this.
        assert!(!shape.intersects_capsule(&capsule_at(Vec3::new(0.09, 0.09, 0.18))));
        // Bounding box covers both parts.
        let bb = shape.bounding_box();
        assert!(bb.contains_point(Vec3::new(0.0, 0.0, 0.19)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn degenerate_cylinder_rejected() {
        let _ = VerticalCylinder::new(Vec3::ZERO, 0.0, 0.1);
    }

    #[test]
    fn empty_composite_has_degenerate_bound() {
        let shape = ObstacleShape::Composite(vec![]);
        assert!(!shape.intersects_capsule(&capsule_at(Vec3::ZERO)));
        assert_eq!(shape.bounding_box().volume(), 0.0);
    }

    /// The clearance query must never report positive distance for a
    /// capsule the narrow phase calls a hit, and a reported distance `d > 0`
    /// must survive shrinking: moving the capsule by less than `d` (here,
    /// inflating it by less than `d`) cannot create a hit.
    #[test]
    fn distance_is_consistent_with_intersection() {
        let shapes = [
            ObstacleShape::Cuboid(Aabb::new(Vec3::ZERO, Vec3::splat(0.2))),
            ObstacleShape::Hemisphere {
                base_center: Vec3::new(0.3, 0.0, 0.0),
                radius: 0.15,
            },
            ObstacleShape::Sphere(Sphere::new(Vec3::new(0.0, 0.4, 0.2), 0.1)),
            ObstacleShape::Cylinder(VerticalCylinder::new(Vec3::new(-0.3, 0.1, 0.0), 0.25, 0.04)),
            ObstacleShape::box_with_bump(
                Aabb::new(Vec3::new(-0.1, -0.5, 0.0), Vec3::new(0.1, -0.3, 0.15)),
                0.05,
            ),
        ];
        let mut k = 0u32;
        for shape in &shapes {
            for x in -4..=4 {
                for y in -4..=4 {
                    for z in 0..=4 {
                        k += 1;
                        let p = Vec3::new(x as f64 * 0.15, y as f64 * 0.15, z as f64 * 0.1);
                        let cap = Capsule::new(p, p + Vec3::new(0.05, 0.0, 0.08), 0.02);
                        let d = shape.distance_to_capsule(&cap);
                        if shape.intersects_capsule(&cap) {
                            assert!(d <= 1e-9, "hit but distance {d} at {p} (case {k})");
                        }
                        if d > 1e-6 {
                            // Growing the capsule by anything less than d
                            // (minus a safety epsilon) must stay clear.
                            let grown = cap.inflated(d - 1e-9);
                            assert!(
                                !shape.intersects_capsule(&grown),
                                "distance {d} at {p} not conservative (case {k})"
                            );
                        }
                    }
                }
            }
        }
        // Empty composite: infinite clearance.
        assert_eq!(
            ObstacleShape::Composite(vec![]).distance_to_capsule(&capsule_at(Vec3::ZERO)),
            f64::INFINITY
        );
    }

    #[test]
    fn sphere_shape() {
        let s = ObstacleShape::Sphere(Sphere::new(Vec3::new(0.0, 0.0, 0.3), 0.1));
        assert!(s.intersects_capsule(&capsule_at(Vec3::new(0.0, 0.0, 0.25))));
        assert!(!s.intersects_capsule(&capsule_at(Vec3::new(0.3, 0.0, 0.3))));
    }
}

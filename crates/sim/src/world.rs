//! The simulated world: named obstacles.
//!
//! The Extended Simulator models "each device on the experiment deck as a
//! 3D cuboid object" (paper §III, Fig. 3), plus the mounting platform and
//! walls that URSim itself "does not account for". The open-challenge
//! shape extension ([`ObstacleShape`]) additionally supports hemispheres,
//! cylinders, and composites for devices that "do not comply with RABIT's
//! cuboid specification" (§V-A).

use crate::shapes::{DistancePrim, ObstacleShape};
use rabit_devices::DeviceId;
use rabit_geometry::{Aabb, Capsule, Vec3};

/// A named obstacle (historically a cuboid; any [`ObstacleShape`] today).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedBox {
    /// Obstacle name (device id, `"platform"`, `"wall_north"`, …). A
    /// collision report shares it instead of copying it.
    pub name: DeviceId,
    /// The obstacle's shape.
    pub shape: ObstacleShape,
}

impl NamedBox {
    /// Creates a named cuboid obstacle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, as [`DeviceId::new`] does. Obstacle
    /// names are program constants: no configuration path builds a world.
    pub fn new(name: impl Into<DeviceId>, volume: Aabb) -> Self {
        NamedBox::with_shape(name, ObstacleShape::Cuboid(volume))
    }

    /// Creates a named obstacle of any shape.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty (see [`NamedBox::new`]).
    pub fn with_shape(name: impl Into<DeviceId>, shape: ObstacleShape) -> Self {
        NamedBox {
            name: name.into(),
            shape,
        }
    }

    /// A conservative axis-aligned bound of the shape.
    pub fn bounding_box(&self) -> Aabb {
        self.shape.bounding_box()
    }
}

/// The static world the simulator checks trajectories against.
///
/// Obstacles keep their insertion order, and [`SimWorld::first_hit`]
/// reports the *first inserted* obstacle that is hit. Decks are small (7
/// to 11 obstacles in every shipped world), so the queries scan every
/// obstacle or distance primitive in order behind a bounding-box overlap
/// test; the bounds are rebuilt eagerly on every mutation, so queries
/// stay `&self` and two worlds with equal obstacle lists compare equal.
#[derive(Debug, Clone, Default)]
pub struct SimWorld {
    obstacles: Vec<NamedBox>,
    /// Per-obstacle bounding boxes: the first-hit prefilter.
    bounds: Vec<Aabb>,
    /// Primitive-level distance decomposition driving the clearance
    /// queries. Rebuilt alongside `bounds`.
    dist: DistanceIndex,
    /// Monotonic mutation counter: bumped on every obstacle change, so
    /// downstream caches (the simulator's verdict cache) can key on it
    /// and invalidate without diffing obstacle lists.
    epoch: u64,
}

/// The distance decomposition of the obstacle set: every shape flattened
/// into box, capsule and sphere primitives in obstacle order.
#[derive(Debug, Clone, Default)]
struct DistanceIndex {
    prims: Vec<DistancePrim>,
    /// Primitive id → owning obstacle index.
    owners: Vec<u32>,
    /// Per-primitive bounds (matching the owning part's
    /// [`ObstacleShape::bounding_box`] contribution).
    bounds: Vec<Aabb>,
}

impl PartialEq for SimWorld {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the obstacle list only: the bounds are a pure
        // function of it, and the epoch is a mutation counter, not part
        // of the world's observable geometry.
        self.obstacles == other.obstacles
    }
}

impl SimWorld {
    /// An empty world.
    pub fn new() -> Self {
        SimWorld::default()
    }

    /// Adds a cuboid obstacle (builder style).
    pub fn with_obstacle(mut self, name: impl Into<DeviceId>, volume: Aabb) -> Self {
        self.add_obstacle(name, volume);
        self
    }

    /// Adds an obstacle of any shape (builder style) — hemispheric
    /// centrifuges, bumped thermoshakers, cylindrical nozzles.
    pub fn with_shaped_obstacle(mut self, name: impl Into<DeviceId>, shape: ObstacleShape) -> Self {
        self.obstacles.push(NamedBox::with_shape(name, shape));
        self.reindex();
        self
    }

    /// Adds the mounting platform: a slab below `z = 0` spanning
    /// `extent` metres in x/y around the origin. URSim "does not account
    /// for collisions when the robot arm moves through its mounting
    /// platform" — the Extended Simulator does.
    pub fn with_platform(self, extent: f64) -> Self {
        self.with_obstacle(
            "platform",
            Aabb::new(
                Vec3::new(-extent, -extent, -0.2),
                Vec3::new(extent, extent, 0.0),
            ),
        )
    }

    /// Adds four walls enclosing a square workspace of half-width
    /// `half` metres and height `height`.
    pub fn with_walls(self, half: f64, height: f64) -> Self {
        let t = 0.05; // wall thickness
        self.with_obstacle(
            "wall_north",
            Aabb::new(
                Vec3::new(-half, half, 0.0),
                Vec3::new(half, half + t, height),
            ),
        )
        .with_obstacle(
            "wall_south",
            Aabb::new(
                Vec3::new(-half, -half - t, 0.0),
                Vec3::new(half, -half, height),
            ),
        )
        .with_obstacle(
            "wall_east",
            Aabb::new(
                Vec3::new(half, -half, 0.0),
                Vec3::new(half + t, half, height),
            ),
        )
        .with_obstacle(
            "wall_west",
            Aabb::new(
                Vec3::new(-half - t, -half, 0.0),
                Vec3::new(-half, half, height),
            ),
        )
    }

    /// Adds an obstacle.
    pub fn add_obstacle(&mut self, name: impl Into<DeviceId>, volume: Aabb) {
        self.obstacles.push(NamedBox::new(name, volume));
        self.reindex();
    }

    /// Removes all obstacles with the given name; returns how many were
    /// removed.
    pub fn remove_obstacle(&mut self, name: &str) -> usize {
        let before = self.obstacles.len();
        self.obstacles.retain(|o| o.name.as_str() != name);
        if self.obstacles.len() != before {
            self.reindex();
        }
        before - self.obstacles.len()
    }

    /// The obstacles.
    pub fn obstacles(&self) -> &[NamedBox] {
        &self.obstacles
    }

    /// The world's mutation epoch. Every obstacle addition or removal
    /// bumps it; two calls returning the same epoch on the same world
    /// guarantee the obstacle set has not changed in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rebuilds the obstacle bounds and the primitive-level distance
    /// decomposition after a mutation.
    fn reindex(&mut self) {
        self.epoch += 1;
        self.bounds.clear();
        self.bounds
            .extend(self.obstacles.iter().map(NamedBox::bounding_box));
        let di = &mut self.dist;
        di.prims.clear();
        di.owners.clear();
        di.bounds.clear();
        for (i, o) in self.obstacles.iter().enumerate() {
            o.shape.for_each_distance_prim(&mut |prim| {
                di.owners.push(i as u32);
                di.bounds.push(prim.bound());
                di.prims.push(prim);
            });
        }
    }

    /// Resolves `exclude` names into an [`ExclusionMask`] over the current
    /// obstacle indices. Build it once per trajectory and pass it to the
    /// queries: the sweep's inner loops then test one bit per obstacle
    /// instead of comparing name strings per obstacle per sample.
    pub fn exclusion_mask(&self, exclude: &[&str]) -> ExclusionMask {
        let mut mask = ExclusionMask::default();
        self.fill_exclusion_mask(exclude, &mut mask);
        mask
    }

    /// As [`SimWorld::exclusion_mask`], reusing a caller-owned mask (no
    /// allocation in steady state; none at all for an empty `exclude`).
    pub fn fill_exclusion_mask(&self, exclude: &[&str], mask: &mut ExclusionMask) {
        mask.epoch = self.epoch;
        mask.any = false;
        mask.bits.clear();
        if exclude.is_empty() {
            return;
        }
        mask.bits.resize(self.obstacles.len().div_ceil(64), 0);
        for (i, o) in self.obstacles.iter().enumerate() {
            if exclude.contains(&o.name.as_str()) {
                mask.bits[i / 64] |= 1 << (i % 64);
                mask.any = true;
            }
        }
    }

    /// The first obstacle, in insertion order, that any of `capsules`
    /// intersects, skipping obstacles in `mask`, plus the number of
    /// obstacles given the narrow-phase test.
    ///
    /// Only obstacles whose bounding box overlaps the union of the
    /// capsules' boxes are tested. The hit reports *which* capsule struck
    /// the obstacle and an approximate contact point — the data a
    /// structured [`CollisionReport`] needs: the point on the hitting
    /// capsule's axis closest to the obstacle's bounding-box center
    /// (exact penetration geometry is not needed for an alert; the
    /// operator needs "link 4, above the hotplate").
    ///
    /// [`CollisionReport`]: rabit_core::CollisionReport
    pub fn first_hit(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
    ) -> (Option<HitDetail<'_>>, u64) {
        debug_assert_eq!(mask.epoch, self.epoch, "stale exclusion mask");
        let Some(probe) = union_bound(capsules) else {
            return (None, 0);
        };
        let mut tested = 0;
        for (i, (o, bound)) in self.obstacles.iter().zip(&self.bounds).enumerate() {
            if !bound.intersects(&probe) || mask.excludes(i) {
                continue;
            }
            tested += 1;
            if let Some(c) = capsules.iter().position(|c| o.shape.intersects_capsule(c)) {
                return (Some(self.detail_for(capsules, o, c)), tested);
            }
        }
        (None, tested)
    }

    /// Clearances for a whole capsule chain: fills `out[l]` with a sound
    /// lower bound on the distance from `capsules[l]` to the nearest
    /// obstacle not in `mask`, clamped to `caps[l]` (the largest
    /// clearance the caller can exploit). Returns the number of exact
    /// distance evaluations performed.
    ///
    /// Distance primitives are taken in order. One whose bound misses the
    /// capsule's box inflated by its cap is provably farther than the cap
    /// away and is skipped, so clamping keeps the result sound. One whose
    /// box-to-box gap ([`Aabb::distance_to`], a lower bound on the exact
    /// distance) cannot lower the running clearance is skipped as well.
    /// A capsule's scan stops once its clearance is non-positive (it
    /// touches something — no skip budget either way).
    ///
    /// Clearance is computed with the same distance arithmetic the narrow
    /// phase uses for intersection, so `out[l] > 0.0` *proves*
    /// [`SimWorld::first_hit`] would find no hit for `capsules[l]`: any
    /// intersecting obstacle overlaps the capsule's box, whatever the cap,
    /// and would have driven the clearance to zero or below. The adaptive
    /// sweep kernel relies on this to elide narrow-phase scans on provably
    /// clear samples.
    pub fn clearances_into(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
        caps: &[f64],
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(capsules.len(), caps.len(), "one cap per capsule");
        assert_eq!(capsules.len(), out.len(), "one slot per capsule");
        debug_assert_eq!(mask.epoch, self.epoch, "stale exclusion mask");
        let di = &self.dist;
        let mut evals = 0;
        for ((capsule, &cap), slot) in capsules.iter().zip(caps).zip(out.iter_mut()) {
            // A non-positive cap is its own clearance.
            let mut clearance = cap;
            if cap > 0.0 {
                let capsule_bb = capsule.bounding_box();
                let probe = capsule_bb.inflated(cap);
                for (p, bound) in di.bounds.iter().enumerate() {
                    if !bound.intersects(&probe)
                        || mask.excludes(di.owners[p] as usize)
                        || bound.distance_to(&capsule_bb) >= clearance
                    {
                        continue;
                    }
                    evals += 1;
                    clearance = clearance.min(di.prims[p].distance_to_capsule(capsule));
                    if clearance <= 0.0 {
                        break;
                    }
                }
            }
            *slot = clearance;
        }
        evals
    }

    fn detail_for<'a>(
        &self,
        capsules: &[Capsule],
        obstacle: &'a NamedBox,
        capsule_index: usize,
    ) -> HitDetail<'a> {
        let contact = capsules[capsule_index]
            .segment
            .closest_point_to(obstacle.bounding_box().center())
            .0;
        HitDetail {
            obstacle,
            capsule_index,
            contact,
        }
    }
}

/// The union of the capsules' bounding boxes (the first-hit probe), or
/// `None` for an empty capsule set.
fn union_bound(capsules: &[Capsule]) -> Option<Aabb> {
    let mut probe: Option<Aabb> = None;
    for c in capsules {
        let b = c.bounding_box();
        probe = Some(probe.map_or(b, |p| p.union(&b)));
    }
    probe
}

/// A bitset of excluded obstacle indices, resolved once from exclusion
/// names by [`SimWorld::exclusion_mask`]. The queries test one bit per
/// candidate instead of comparing name strings per obstacle per
/// trajectory sample. The mask is stamped with the world epoch it was
/// resolved against; queries debug-assert the stamp so a stale mask
/// cannot silently misattribute obstacle indices after a mutation.
#[derive(Debug, Clone, Default)]
pub struct ExclusionMask {
    bits: Vec<u64>,
    epoch: u64,
    any: bool,
}

impl ExclusionMask {
    /// Whether the obstacle at `index` is excluded.
    #[inline]
    pub fn excludes(&self, index: usize) -> bool {
        self.any && (self.bits[index / 64] >> (index % 64)) & 1 != 0
    }

    /// The world epoch this mask was resolved against
    /// (see [`SimWorld::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A narrow-phase hit with link-level detail: the obstacle, which of the
/// query capsules struck it, and an approximate contact point.
#[derive(Debug, Clone, PartialEq)]
pub struct HitDetail<'a> {
    /// The obstacle that was hit.
    pub obstacle: &'a NamedBox,
    /// Index of the hitting capsule within the query slice.
    pub capsule_index: usize,
    /// Approximate contact point (on the capsule's axis, nearest the
    /// obstacle's bounding-box center).
    pub contact: Vec3,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name of the first obstacle hit, skipping those in `exclude`.
    fn hit_name(w: &SimWorld, capsules: &[Capsule], exclude: &[&str]) -> Option<String> {
        let (hit, _) = w.first_hit(capsules, &w.exclusion_mask(exclude));
        hit.map(|h| h.obstacle.name.to_string())
    }

    #[test]
    fn builders_accumulate_obstacles() {
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_walls(1.0, 0.8)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        assert_eq!(w.obstacles().len(), 6);
        assert!(w.obstacles().iter().any(|o| o.name.as_str() == "platform"));
        assert!(w.obstacles().iter().any(|o| o.name.as_str() == "wall_east"));
    }

    #[test]
    fn first_hit_finds_and_excludes() {
        let w = SimWorld::new()
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)))
            .with_obstacle(
                "grid",
                Aabb::new(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.7, 0.2, 0.1)),
            );
        let inside_doser = vec![Capsule::new(
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.1, 0.1, 0.3),
            0.02,
        )];
        assert_eq!(hit_name(&w, &inside_doser, &[]).as_deref(), Some("doser"));
        assert_eq!(hit_name(&w, &inside_doser, &["doser"]), None);
        let free = vec![Capsule::new(
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(1.2, 1.0, 1.0),
            0.02,
        )];
        assert_eq!(hit_name(&w, &free, &[]), None);
        // Empty capsule set: no probe, no hit, nothing tested.
        let (none, tested) = w.first_hit(&[], &w.exclusion_mask(&[]));
        assert!(none.is_none());
        assert_eq!(tested, 0);
    }

    #[test]
    fn platform_catches_low_capsules() {
        let w = SimWorld::new().with_platform(1.0);
        let low = vec![Capsule::new(
            Vec3::new(0.2, 0.2, 0.05),
            Vec3::new(0.3, 0.2, -0.01),
            0.02,
        )];
        assert_eq!(hit_name(&w, &low, &[]).as_deref(), Some("platform"));
    }

    #[test]
    fn shaped_obstacles_participate_in_first_hit() {
        use crate::shapes::ObstacleShape;
        // A hemispheric centrifuge: its bounding-box corners are free.
        let w = SimWorld::new().with_shaped_obstacle(
            "centrifuge",
            ObstacleShape::Hemisphere {
                base_center: Vec3::new(0.3, 0.3, 0.0),
                radius: 0.15,
            },
        );
        let over_dome = vec![Capsule::new(
            Vec3::new(0.3, 0.3, 0.10),
            Vec3::new(0.3, 0.3, 0.20),
            0.02,
        )];
        assert_eq!(hit_name(&w, &over_dome, &[]).as_deref(), Some("centrifuge"));
        // At the bounding-box corner height: free for a hemisphere.
        let corner = vec![Capsule::new(
            Vec3::new(0.42, 0.42, 0.12),
            Vec3::new(0.42, 0.42, 0.2),
            0.02,
        )];
        assert_eq!(hit_name(&w, &corner, &[]), None);
        // The obstacle's bounding box is available for inspection.
        assert!(w.obstacles()[0]
            .bounding_box()
            .contains_point(Vec3::new(0.3, 0.3, 0.1)));
    }

    #[test]
    fn detailed_hit_reports_capsule_and_contact() {
        let w = SimWorld::new().with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        let capsules = vec![
            // Capsule 0 is clear of the box.
            Capsule::new(Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.2, 1.0, 1.0), 0.02),
            // Capsule 1 passes through it.
            Capsule::new(Vec3::new(0.1, 0.1, -0.1), Vec3::new(0.1, 0.1, 0.3), 0.02),
        ];
        let (hit, _) = w.first_hit(&capsules, &w.exclusion_mask(&[]));
        let hit = hit.expect("capsule 1 intersects the doser");
        assert_eq!(hit.obstacle.name.as_str(), "doser");
        assert_eq!(hit.capsule_index, 1);
        // Contact is on capsule 1's axis, nearest the box center.
        assert!(hit.contact.distance(Vec3::new(0.1, 0.1, 0.1)) < 1e-9);
    }

    #[test]
    fn clearance_is_a_sound_capped_lower_bound() {
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        let clearance = |capsule: &Capsule, exclude: &[&str], cap: f64| {
            let mut out = [0.0];
            let evals = w.clearances_into(
                std::slice::from_ref(capsule),
                &w.exclusion_mask(exclude),
                &[cap],
                &mut out,
            );
            (out[0], evals)
        };
        // A capsule surface 0.33 above the doser top, 0.53 above the platform.
        let cap = Capsule::new(Vec3::new(0.1, 0.1, 0.55), Vec3::new(0.1, 0.1, 0.6), 0.02);
        let (d, evals) = clearance(&cap, &[], 1.0);
        assert!(evals >= 1);
        assert!((d - 0.33).abs() < 1e-9, "clearance to doser top, got {d}");
        // Excluding the doser leaves the platform.
        let (d, _) = clearance(&cap, &["doser"], 1.0);
        assert!((d - 0.53).abs() < 1e-9, "clearance to platform, got {d}");
        // The cap clamps (and prunes): a tiny cap returns the cap itself.
        let (d, evals) = clearance(&cap, &[], 0.05);
        assert_eq!(d, 0.05);
        assert_eq!(evals, 0, "everything prunes at cap 0.05");
        // Touching/penetrating: non-positive clearance.
        let touching = Capsule::new(Vec3::new(0.1, 0.1, 0.15), Vec3::new(0.1, 0.1, 0.3), 0.02);
        let (d, _) = clearance(&touching, &[], 1.0);
        assert!(d <= 0.0);
    }

    #[test]
    fn batched_clearances_match_per_capsule_queries() {
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)))
            .with_obstacle(
                "grid",
                Aabb::new(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.7, 0.2, 0.1)),
            );
        let mask = w.exclusion_mask(&["doser"]);
        // The reference: the minimum shape distance over every
        // non-excluded obstacle, clamped to the cap.
        let brute_force = |capsule: &Capsule, cap: f64| {
            w.obstacles()
                .iter()
                .filter(|o| o.name.as_str() != "doser")
                .map(|o| o.shape.distance_to_capsule(capsule))
                .fold(cap, f64::min)
        };
        // A descending pair of capsules: one over the doser, one touching
        // the grid at the end. Batched clearances must agree with the
        // reference at every step, including the touching case.
        for k in 0..30 {
            let z = 0.5 - k as f64 * 0.015;
            let caps = vec![
                Capsule::new(Vec3::new(0.1, 0.1, z), Vec3::new(0.1, 0.1, z + 0.1), 0.02),
                Capsule::new(
                    Vec3::new(0.6, 0.1, z - 0.3),
                    Vec3::new(0.6, 0.1, z - 0.2),
                    0.02,
                ),
            ];
            let budgets = [0.4, 0.25];
            let mut out = [0.0; 2];
            w.clearances_into(&caps, &mask, &budgets, &mut out);
            for l in 0..2 {
                let want = brute_force(&caps[l], budgets[l]);
                assert!(
                    out[l] == want || (out[l] <= 0.0 && want <= 0.0),
                    "step {k} capsule {l}: batched {} vs brute force {want}",
                    out[l]
                );
            }
        }
        // Non-positive caps are clamped without a distance evaluation.
        let caps = vec![Capsule::new(
            Vec3::new(0.1, 0.1, 0.4),
            Vec3::new(0.1, 0.1, 0.5),
            0.02,
        )];
        let mut out = [1.0];
        let evals = w.clearances_into(&caps, &w.exclusion_mask(&[]), &[-0.2], &mut out);
        assert_eq!(evals, 0);
        assert_eq!(out[0], -0.2);
    }

    #[test]
    fn removal() {
        let mut w = SimWorld::new().with_platform(1.0);
        assert_eq!(w.remove_obstacle("platform"), 1);
        assert_eq!(w.remove_obstacle("platform"), 0);
        assert!(w.obstacles().is_empty());
    }
}

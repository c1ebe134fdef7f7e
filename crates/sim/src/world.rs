//! The simulated world: named obstacles.
//!
//! The Extended Simulator models "each device on the experiment deck as a
//! 3D cuboid object" (paper §III, Fig. 3), plus the mounting platform and
//! walls that URSim itself "does not account for". The open-challenge
//! shape extension ([`ObstacleShape`]) additionally supports hemispheres,
//! cylinders, and composites for devices that "do not comply with RABIT's
//! cuboid specification" (§V-A).

use crate::shapes::{DistancePrim, ObstacleShape};
use rabit_geometry::broadphase::{Bvh, PacketLists, QueryCache};
use rabit_geometry::{Aabb, Capsule, Vec3};

/// A named obstacle (historically a cuboid; any [`ObstacleShape`] today).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedBox {
    /// Obstacle name (device id, `"platform"`, `"wall_north"`, …).
    pub name: String,
    /// The obstacle's shape.
    pub shape: ObstacleShape,
}

impl NamedBox {
    /// Creates a named cuboid obstacle.
    pub fn new(name: impl Into<String>, volume: Aabb) -> Self {
        NamedBox {
            name: name.into(),
            shape: ObstacleShape::Cuboid(volume),
        }
    }

    /// Creates a named obstacle of any shape.
    pub fn with_shape(name: impl Into<String>, shape: ObstacleShape) -> Self {
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
/// Obstacles keep their insertion order — [`SimWorld::first_hit`] reports
/// the *first inserted* obstacle that is hit, whether or not the
/// broad-phase index is used. The index (a flat AABB BVH over the
/// obstacles' bounding boxes) is rebuilt eagerly on every mutation, so
/// queries stay `&self` and two worlds with equal obstacle lists compare
/// equal.
#[derive(Debug, Clone, Default)]
pub struct SimWorld {
    obstacles: Vec<NamedBox>,
    index: Bvh,
    /// Primitive-level distance index (primitives + their own BVH) driving
    /// the clearance queries. Rebuilt alongside `index`.
    dist: DistanceIndex,
    /// Monotonic mutation counter: bumped on every obstacle change, so
    /// downstream caches (the simulator's verdict cache) can key on it
    /// and invalidate without diffing obstacle lists.
    epoch: u64,
}

/// The distance decomposition of the obstacle set: every shape flattened
/// into box, capsule and sphere primitives in obstacle order, plus a BVH
/// over the per-primitive broad-phase bounds.
#[derive(Debug, Clone, Default)]
struct DistanceIndex {
    prims: Vec<DistancePrim>,
    /// Primitive id → owning obstacle index.
    owners: Vec<u32>,
    /// Per-primitive broad-phase bounds (matching the owning part's
    /// [`ObstacleShape::bounding_box`] contribution).
    bounds: Vec<Aabb>,
    bvh: Bvh,
}

impl PartialEq for SimWorld {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the obstacle list only: the index is a pure
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
    pub fn with_obstacle(mut self, name: impl Into<String>, volume: Aabb) -> Self {
        self.add_obstacle(name, volume);
        self
    }

    /// Adds an obstacle of any shape (builder style) — hemispheric
    /// centrifuges, bumped thermoshakers, cylindrical nozzles.
    pub fn with_shaped_obstacle(mut self, name: impl Into<String>, shape: ObstacleShape) -> Self {
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
    pub fn add_obstacle(&mut self, name: impl Into<String>, volume: Aabb) {
        self.obstacles.push(NamedBox::new(name, volume));
        self.reindex();
    }

    /// Removes all obstacles with the given name; returns how many were
    /// removed.
    pub fn remove_obstacle(&mut self, name: &str) -> usize {
        let before = self.obstacles.len();
        self.obstacles.retain(|o| o.name != name);
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

    /// Rebuilds the broad-phase index and the primitive-level distance
    /// index after a mutation.
    fn reindex(&mut self) {
        self.epoch += 1;
        let bounds: Vec<Aabb> = self.obstacles.iter().map(|o| o.bounding_box()).collect();
        self.index = Bvh::build(&bounds);
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
        di.bvh = Bvh::build(&di.bounds);
    }

    /// Resolves `exclude` names into an [`ExclusionMask`] over the current
    /// obstacle indices. Build it once per trajectory and pass it to the
    /// `*_masked` query variants: the sweep's inner loops then test one
    /// bit per obstacle instead of comparing name strings per obstacle per
    /// sample.
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

    /// The first obstacle any of the given capsules intersects, ignoring
    /// obstacles named in `exclude`. Uses the broad-phase index.
    pub fn first_hit(&self, capsules: &[Capsule], exclude: &[&str]) -> Option<&NamedBox> {
        self.first_hit_counting(capsules, exclude, true).0
    }

    /// As [`SimWorld::first_hit`], but testing every obstacle linearly —
    /// the reference path the differential tests compare the pruned path
    /// against.
    pub fn first_hit_exhaustive(
        &self,
        capsules: &[Capsule],
        exclude: &[&str],
    ) -> Option<&NamedBox> {
        self.first_hit_counting(capsules, exclude, false).0
    }

    /// The first hit plus the number of narrow-phase obstacle tests it
    /// cost. `broad_phase` selects BVH pruning or the exhaustive scan;
    /// both return the identical obstacle (candidates are scanned in
    /// ascending insertion order).
    pub fn first_hit_counting(
        &self,
        capsules: &[Capsule],
        exclude: &[&str],
        broad_phase: bool,
    ) -> (Option<&NamedBox>, u64) {
        let mut scratch = Vec::new();
        let (hit, tested) =
            self.first_hit_detailed_with(capsules, exclude, broad_phase, &mut scratch);
        (hit.map(|h| h.obstacle), tested)
    }

    /// As [`SimWorld::first_hit_counting`], additionally reporting *which*
    /// capsule hit and an approximate contact point — the data a
    /// structured [`CollisionReport`] needs. The contact point is the
    /// point on the hitting capsule's axis closest to the obstacle's
    /// bounding-box center (exact penetration geometry is not needed for
    /// an alert; the operator needs "link 4, above the hotplate"). The
    /// broad-phase query reuses the caller-owned `scratch` buffer.
    ///
    /// [`CollisionReport`]: rabit_core::CollisionReport
    pub fn first_hit_detailed_with(
        &self,
        capsules: &[Capsule],
        exclude: &[&str],
        broad_phase: bool,
        scratch: &mut Vec<usize>,
    ) -> (Option<HitDetail<'_>>, u64) {
        let mask = self.exclusion_mask(exclude);
        if broad_phase {
            self.first_hit_detailed_masked(capsules, &mask, scratch)
        } else {
            self.narrow_scan(capsules, &mask, 0..self.obstacles.len())
        }
    }

    /// As [`SimWorld::first_hit_detailed_with`] with BVH pruning,
    /// resolving exclusions through a prebuilt [`ExclusionMask`] instead
    /// of comparing name strings per obstacle. The dense sweep builds the
    /// mask once per trajectory and reuses it for every sample.
    pub fn first_hit_detailed_masked(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
        scratch: &mut Vec<usize>,
    ) -> (Option<HitDetail<'_>>, u64) {
        debug_assert_eq!(mask.epoch, self.epoch, "stale exclusion mask");
        let Some(probe) = union_bound(capsules) else {
            return (None, 0);
        };
        self.index.query_into(&probe, scratch);
        self.narrow_scan(capsules, mask, scratch.iter().copied())
    }

    /// As [`SimWorld::first_hit_detailed_with`] with broad-phase pruning,
    /// but the BVH query runs through a temporal-coherence [`QueryCache`]
    /// (see [`Bvh::query_into_cached`]): consecutive calls with nearly
    /// identical capsule sets — adjacent trajectory samples — are answered
    /// from the previous query's candidate superset without walking the
    /// tree. The hit (and the narrow-phase test count) is identical to the
    /// uncached broad-phase path.
    ///
    /// The cache is only valid against the current obstacle set: callers
    /// must [`QueryCache::clear`] it whenever [`SimWorld::epoch`] changes.
    pub fn first_hit_detailed_cached(
        &self,
        capsules: &[Capsule],
        exclude: &[&str],
        slack: f64,
        cache: &mut QueryCache,
        scratch: &mut Vec<usize>,
    ) -> (Option<HitDetail<'_>>, u64) {
        let mask = self.exclusion_mask(exclude);
        self.first_hit_cached_masked(capsules, &mask, slack, cache, scratch)
    }

    /// As [`SimWorld::first_hit_detailed_cached`] with exclusions resolved
    /// through a prebuilt [`ExclusionMask`].
    pub fn first_hit_cached_masked(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
        slack: f64,
        cache: &mut QueryCache,
        scratch: &mut Vec<usize>,
    ) -> (Option<HitDetail<'_>>, u64) {
        debug_assert_eq!(mask.epoch, self.epoch, "stale exclusion mask");
        let Some(probe) = union_bound(capsules) else {
            return (None, 0);
        };
        self.index.query_into_cached(&probe, slack, cache, scratch);
        self.narrow_scan(capsules, mask, scratch.iter().copied())
    }

    /// The narrow phase over candidate obstacle indices (ascending): the
    /// first non-excluded obstacle any capsule intersects, plus the
    /// number of obstacles tested.
    fn narrow_scan(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
        candidates: impl IntoIterator<Item = usize>,
    ) -> (Option<HitDetail<'_>>, u64) {
        let mut tested = 0;
        let hit = candidates
            .into_iter()
            .filter(|&i| !mask.excludes(i))
            .map(|i| &self.obstacles[i])
            .find_map(|o| {
                tested += 1;
                capsules
                    .iter()
                    .position(|c| o.shape.intersects_capsule(c))
                    .map(|i| (o, i))
            });
        (hit.map(|(o, i)| self.detail_for(capsules, o, i)), tested)
    }

    /// Clearance of a single capsule: a sound lower bound on the distance
    /// from `capsule` to the nearest non-excluded obstacle, clamped to
    /// `cap` (the largest clearance the caller can exploit). Returns the
    /// clearance and the number of per-obstacle distance evaluations
    /// performed.
    ///
    /// Obstacles are pruned through the broad-phase index with the
    /// capsule's bound inflated by `cap`: anything outside that probe is
    /// provably farther than `cap` away, so clamping keeps the result
    /// sound. The scan stops early once the clearance is non-positive
    /// (the capsule touches something — no skip budget either way).
    pub fn clearance_with(
        &self,
        capsule: &Capsule,
        exclude: &[&str],
        cap: f64,
        scratch: &mut Vec<usize>,
    ) -> (f64, u64) {
        if cap <= 0.0 {
            return (cap.min(0.0), 0);
        }
        let mask = self.exclusion_mask(exclude);
        let probe = capsule.bounding_box().inflated(cap);
        self.dist.bvh.query_into(&probe, scratch);
        self.prim_clearance(capsule, &mask, cap, scratch)
    }

    /// The shared clearance kernel: min distance from `capsule` to the
    /// candidate primitives (prim ids from the distance-index BVH),
    /// clamped to `cap`, skipping masked owners.
    ///
    /// Each candidate is prefiltered with the cheap box-to-box gap
    /// between its broad-phase bound and the capsule's: the gap is a
    /// lower bound on the exact distance, so a candidate whose gap
    /// cannot lower the running clearance is dropped without an exact
    /// evaluation — and since its exact distance is at least the
    /// running minimum, the returned clearance is identical to a full
    /// scan. This matters because candidate lists come from temporal-
    /// coherence caches and are supersets of the current probe's true
    /// candidates.
    ///
    /// Returns `(clearance, exact_evals)` and stops at the first
    /// primitive that drives the clearance non-positive.
    fn prim_clearance(
        &self,
        capsule: &Capsule,
        mask: &ExclusionMask,
        cap: f64,
        candidates: &[usize],
    ) -> (f64, u64) {
        let di = &self.dist;
        let probe_bb = capsule.bounding_box();
        let mut clearance = cap;
        let mut evals = 0;
        for &p in candidates {
            if mask.excludes(di.owners[p] as usize)
                || di.bounds[p].distance_to(&probe_bb) >= clearance
            {
                continue;
            }
            evals += 1;
            clearance = clearance.min(di.prims[p].distance_to_capsule(capsule));
            if clearance <= 0.0 {
                break;
            }
        }
        (clearance, evals)
    }

    /// Batched clearance for a whole capsule chain: fills `out[l]` with a
    /// sound lower bound on the distance from `capsules[l]` to the
    /// nearest non-excluded obstacle, clamped to `caps[l]`. Returns the
    /// number of exact distance evaluations performed.
    ///
    /// One broad-phase query serves every capsule: the probe is the union
    /// of each capsule's bound inflated by its cap, routed through the
    /// temporal-coherence `cache` with `slack` so consecutive trajectory
    /// samples reuse the previous candidate superset without walking the
    /// tree. Candidates are then prefiltered per capsule with the cheap
    /// box-to-box gap ([`Aabb::distance_to`]) before paying for an exact
    /// shape distance.
    ///
    /// Clearance is computed with the same distance arithmetic the narrow
    /// phase uses for intersection, so `out[l] > 0.0` *proves* the narrow
    /// phase would find no hit for `capsules[l]`: any intersecting
    /// obstacle overlaps the capsule's bound (candidates always include
    /// it, whatever the cap) and would have driven the clearance to zero
    /// or below. The adaptive sweep kernel relies on this to elide
    /// narrow-phase scans on provably clear samples.
    ///
    /// Like [`QueryCache`] users elsewhere, callers must clear the cache
    /// whenever [`SimWorld::epoch`] changes.
    #[allow(clippy::too_many_arguments)]
    pub fn clearances_into(
        &self,
        capsules: &[Capsule],
        exclude: &[&str],
        caps: &[f64],
        slack: f64,
        cache: &mut QueryCache,
        scratch: &mut ClearanceScratch,
        out: &mut [f64],
    ) -> u64 {
        let mask = self.exclusion_mask(exclude);
        self.clearances_into_masked(capsules, &mask, caps, slack, cache, scratch, out)
    }

    /// As [`SimWorld::clearances_into`], resolving exclusions through a
    /// prebuilt [`ExclusionMask`].
    #[allow(clippy::too_many_arguments)]
    pub fn clearances_into_masked(
        &self,
        capsules: &[Capsule],
        mask: &ExclusionMask,
        caps: &[f64],
        slack: f64,
        cache: &mut QueryCache,
        scratch: &mut ClearanceScratch,
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(capsules.len(), caps.len(), "one cap per capsule");
        assert_eq!(capsules.len(), out.len(), "one slot per capsule");
        debug_assert_eq!(mask.epoch, self.epoch, "stale exclusion mask");
        scratch.probes.clear();
        scratch.slots.clear();
        for (l, (c, &cap)) in capsules.iter().zip(caps).enumerate() {
            if cap <= 0.0 {
                out[l] = cap.min(0.0);
                continue;
            }
            scratch.probes.push(c.bounding_box().inflated(cap));
            scratch.slots.push(l);
        }
        if scratch.probes.is_empty() {
            return 0;
        }
        self.dist
            .bvh
            .query_packet_cached(&scratch.probes, slack, cache, &mut scratch.lists);
        let mut evals = 0;
        for (p, &l) in scratch.slots.iter().enumerate() {
            let (clearance, e) =
                self.prim_clearance(&capsules[l], mask, caps[l], scratch.lists.list(p));
            out[l] = clearance;
            evals += e;
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

/// The union of the capsules' bounding boxes (the broad-phase probe), or
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
/// names by [`SimWorld::exclusion_mask`]. The `*_masked` query variants
/// test one bit per candidate instead of comparing name strings per
/// obstacle per trajectory sample. The mask is stamped with the world
/// epoch it was resolved against; queries debug-assert the stamp so a
/// stale mask cannot silently misattribute obstacle indices after a
/// mutation.
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

/// Reusable buffers for [`SimWorld::clearances_into`]: the per-capsule
/// broad-phase probes, the packet-position → output-slot mapping, and the
/// per-probe candidate lists. One instance per sweep keeps the batched
/// clearance path allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct ClearanceScratch {
    probes: Vec<Aabb>,
    slots: Vec<usize>,
    lists: PacketLists,
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

    #[test]
    fn builders_accumulate_obstacles() {
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_walls(1.0, 0.8)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        assert_eq!(w.obstacles().len(), 6);
        assert!(w.obstacles().iter().any(|o| o.name == "platform"));
        assert!(w.obstacles().iter().any(|o| o.name == "wall_east"));
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
        assert_eq!(w.first_hit(&inside_doser, &[]).unwrap().name, "doser");
        assert!(w.first_hit(&inside_doser, &["doser"]).is_none());
        let free = vec![Capsule::new(
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(1.2, 1.0, 1.0),
            0.02,
        )];
        assert!(w.first_hit(&free, &[]).is_none());
    }

    #[test]
    fn platform_catches_low_capsules() {
        let w = SimWorld::new().with_platform(1.0);
        let low = vec![Capsule::new(
            Vec3::new(0.2, 0.2, 0.05),
            Vec3::new(0.3, 0.2, -0.01),
            0.02,
        )];
        assert_eq!(w.first_hit(&low, &[]).unwrap().name, "platform");
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
        assert_eq!(w.first_hit(&over_dome, &[]).unwrap().name, "centrifuge");
        // At the bounding-box corner height: free for a hemisphere.
        let corner = vec![Capsule::new(
            Vec3::new(0.42, 0.42, 0.12),
            Vec3::new(0.42, 0.42, 0.2),
            0.02,
        )];
        assert!(w.first_hit(&corner, &[]).is_none());
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
        for broad in [true, false] {
            let mut scratch = Vec::new();
            let (hit, _) = w.first_hit_detailed_with(&capsules, &[], broad, &mut scratch);
            let hit = hit.expect("capsule 1 intersects the doser");
            assert_eq!(hit.obstacle.name, "doser");
            assert_eq!(hit.capsule_index, 1);
            // Contact is on capsule 1's axis, nearest the box center.
            assert!(hit.contact.distance(Vec3::new(0.1, 0.1, 0.1)) < 1e-9);
        }
    }

    #[test]
    fn clearance_is_a_sound_capped_lower_bound() {
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        let mut scratch = Vec::new();
        // A capsule surface 0.33 above the doser top, 0.53 above the platform.
        let cap = Capsule::new(Vec3::new(0.1, 0.1, 0.55), Vec3::new(0.1, 0.1, 0.6), 0.02);
        let (d, evals) = w.clearance_with(&cap, &[], 1.0, &mut scratch);
        assert!(evals >= 1);
        assert!((d - 0.33).abs() < 1e-9, "clearance to doser top, got {d}");
        // Excluding the doser leaves the platform.
        let (d, _) = w.clearance_with(&cap, &["doser"], 1.0, &mut scratch);
        assert!((d - 0.53).abs() < 1e-9, "clearance to platform, got {d}");
        // The cap clamps (and prunes): a tiny cap returns the cap itself.
        let (d, evals) = w.clearance_with(&cap, &[], 0.05, &mut scratch);
        assert_eq!(d, 0.05);
        assert_eq!(evals, 0, "everything prunes at cap 0.05");
        // Touching/penetrating: non-positive clearance.
        let touching = Capsule::new(Vec3::new(0.1, 0.1, 0.15), Vec3::new(0.1, 0.1, 0.3), 0.02);
        let (d, _) = w.clearance_with(&touching, &[], 1.0, &mut scratch);
        assert!(d <= 0.0);
    }

    #[test]
    fn batched_clearances_match_per_capsule_queries() {
        use rabit_geometry::broadphase::QueryCache;
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)))
            .with_obstacle(
                "grid",
                Aabb::new(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.7, 0.2, 0.1)),
            );
        let mut cache = QueryCache::new();
        let mut s1 = ClearanceScratch::default();
        let mut s2 = Vec::new();
        // A descending pair of capsules: one over the doser, one touching
        // the grid at the end. Batched clearances must agree with the
        // per-capsule query at every step, including the touching case
        // and a zero-cap slot.
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
            w.clearances_into(
                &caps,
                &["doser"],
                &budgets,
                0.1,
                &mut cache,
                &mut s1,
                &mut out,
            );
            for l in 0..2 {
                let (want, _) = w.clearance_with(&caps[l], &["doser"], budgets[l], &mut s2);
                assert!(
                    (out[l] - want).abs() < 1e-12,
                    "step {k} capsule {l}: batched {} vs direct {want}",
                    out[l]
                );
            }
        }
        assert!(cache.hits() > 0, "coherent sweep should reuse the superset");
        // Non-positive caps are clamped without touching the index.
        let caps = vec![Capsule::new(
            Vec3::new(0.1, 0.1, 0.4),
            Vec3::new(0.1, 0.1, 0.5),
            0.02,
        )];
        let mut out = [1.0];
        let evals = w.clearances_into(&caps, &[], &[-0.2], 0.1, &mut cache, &mut s1, &mut out);
        assert_eq!(evals, 0);
        assert_eq!(out[0], -0.2);
    }

    #[test]
    fn cached_first_hit_matches_uncached() {
        use rabit_geometry::broadphase::QueryCache;
        let w = SimWorld::new()
            .with_platform(1.0)
            .with_walls(1.0, 0.8)
            .with_obstacle("doser", Aabb::new(Vec3::ZERO, Vec3::splat(0.2)));
        let mut cache = QueryCache::new();
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        // A descending sweep that eventually hits the doser.
        for k in 0..40 {
            let z = 0.6 - k as f64 * 0.012;
            let caps = vec![Capsule::new(
                Vec3::new(0.1, 0.1, z),
                Vec3::new(0.1, 0.1, z + 0.1),
                0.02,
            )];
            let (cached, tc) = w.first_hit_detailed_cached(&caps, &[], 0.1, &mut cache, &mut s1);
            let (fresh, tf) = w.first_hit_detailed_with(&caps, &[], true, &mut s2);
            assert_eq!(cached, fresh, "step {k}");
            assert_eq!(tc, tf, "step {k} narrow-phase count");
        }
        assert!(cache.hits() > 0, "coherent sweep should reuse the superset");
        // Empty capsule set: no probe, no hit.
        let (none, t) = w.first_hit_detailed_cached(&[], &[], 0.1, &mut cache, &mut s1);
        assert!(none.is_none());
        assert_eq!(t, 0);
    }

    #[test]
    fn removal() {
        let mut w = SimWorld::new().with_platform(1.0);
        assert_eq!(w.remove_obstacle("platform"), 1);
        assert_eq!(w.remove_obstacle("platform"), 0);
        assert!(w.obstacles().is_empty());
    }
}

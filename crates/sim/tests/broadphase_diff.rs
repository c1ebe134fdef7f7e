//! Differential test: `SimWorld::first_hit`, which tests only obstacles
//! whose bounding box overlaps the probe, must agree with an exhaustive
//! scan pose for pose — over 100+ seeded random worlds, probes, and
//! exclusion lists — while testing fewer obstacles.

use rabit_geometry::{Aabb, Capsule, Sphere, Vec3};
use rabit_sim::{ObstacleShape, SimWorld, VerticalCylinder};
use rabit_util::Rng;

const WORLDS: usize = 120;
const PROBES_PER_WORLD: usize = 24;

fn point(rng: &mut Rng) -> Vec3 {
    Vec3::new(
        rng.random_range(-1.2..1.2),
        rng.random_range(-1.2..1.2),
        rng.random_range(-0.2..1.0),
    )
}

fn shape(rng: &mut Rng) -> ObstacleShape {
    let c = point(rng);
    match rng.random_range(0..10u32) {
        // Mostly cuboids — the paper's device model.
        0..=6 => ObstacleShape::Cuboid(Aabb::from_center_half_extents(
            c,
            Vec3::new(
                rng.random_range(0.02..0.25),
                rng.random_range(0.02..0.25),
                rng.random_range(0.02..0.25),
            ),
        )),
        7 => ObstacleShape::Hemisphere {
            base_center: c,
            radius: rng.random_range(0.03..0.2),
        },
        8 => ObstacleShape::Sphere(Sphere::new(c, rng.random_range(0.03..0.2))),
        _ => ObstacleShape::Cylinder(VerticalCylinder {
            base: c,
            radius: rng.random_range(0.03..0.15),
            height: rng.random_range(0.05..0.4),
        }),
    }
}

fn world(rng: &mut Rng) -> SimWorld {
    let n = rng.random_range(2..64usize);
    let mut w = SimWorld::new();
    for i in 0..n {
        w = w.with_shaped_obstacle(format!("dev{i}"), shape(rng));
    }
    w
}

/// The reference: every non-excluded obstacle in insertion order, given
/// the narrow-phase test with no prefilter. Returns the first hit's
/// obstacle name and capsule index, and the number of obstacles tested.
fn exhaustive_first_hit(
    w: &SimWorld,
    caps: &[Capsule],
    exclude: &[&str],
) -> (Option<(String, usize)>, u64) {
    let mut tested = 0;
    for o in w.obstacles() {
        if exclude.contains(&o.name.as_str()) {
            continue;
        }
        tested += 1;
        if let Some(c) = caps.iter().position(|c| o.shape.intersects_capsule(c)) {
            return (Some((o.name.to_string(), c)), tested);
        }
    }
    (None, tested)
}

/// `first_hit`'s obstacle name and capsule index, and its test count.
fn pruned_first_hit(
    w: &SimWorld,
    caps: &[Capsule],
    exclude: &[&str],
) -> (Option<(String, usize)>, u64) {
    let (hit, tested) = w.first_hit(caps, &w.exclusion_mask(exclude));
    (
        hit.map(|h| (h.obstacle.name.to_string(), h.capsule_index)),
        tested,
    )
}

/// A probe: one to four capsules, like a sampled arm pose.
fn capsules(rng: &mut Rng) -> Vec<Capsule> {
    let n = rng.random_range(1..5usize);
    (0..n)
        .map(|_| Capsule::new(point(rng), point(rng), rng.random_range(0.005..0.08)))
        .collect()
}

#[test]
fn pruned_verdicts_match_exhaustive_pose_for_pose() {
    let mut rng = Rng::seed_from_u64(0xB40AD);
    let mut pruned_tests = 0u64;
    let mut exhaustive_tests = 0u64;
    let mut hits = 0usize;
    for wi in 0..WORLDS {
        let w = world(&mut rng);
        for pi in 0..PROBES_PER_WORLD {
            let caps = capsules(&mut rng);
            // Sometimes exclude a couple of obstacles, as entering a
            // device does.
            let excluded: Vec<String> = if rng.random_bool(0.3) {
                let k = rng.random_range(1..3usize);
                (0..k)
                    .map(|_| format!("dev{}", rng.random_range(0..w.obstacles().len())))
                    .collect()
            } else {
                Vec::new()
            };
            let exclude: Vec<&str> = excluded.iter().map(String::as_str).collect();

            let (fast, nf) = pruned_first_hit(&w, &caps, &exclude);
            let (slow, ns) = exhaustive_first_hit(&w, &caps, &exclude);
            pruned_tests += nf;
            exhaustive_tests += ns;
            assert_eq!(
                fast, slow,
                "world {wi} probe {pi}: pruned and exhaustive disagree"
            );
            if fast.is_some() {
                hits += 1;
            }
        }
    }
    // The scenario mix must actually exercise both outcomes.
    assert!(
        hits > 100,
        "only {hits} colliding probes — scenario too easy"
    );
    assert!(
        hits < WORLDS * PROBES_PER_WORLD,
        "every probe collided — scenario too dense"
    );
    // And the prefilter must genuinely prune.
    assert!(
        pruned_tests * 2 < exhaustive_tests,
        "prefilter tested {pruned_tests} vs exhaustive {exhaustive_tests}: no pruning"
    );
}

#[test]
fn pruned_and_exhaustive_agree_after_world_mutation() {
    // The obstacle bounds must track add/remove mutations.
    let mut rng = Rng::seed_from_u64(0xB40AD + 1);
    let mut w = world(&mut rng);
    for step in 0..200 {
        match rng.random_range(0..3u32) {
            0 => {
                let c = point(&mut rng);
                w.add_obstacle(
                    format!("extra{step}"),
                    Aabb::from_center_half_extents(c, Vec3::splat(rng.random_range(0.02..0.2))),
                );
            }
            1 => {
                let names: Vec<String> = w.obstacles().iter().map(|o| o.name.to_string()).collect();
                if !names.is_empty() {
                    let victim = &names[rng.random_range(0..names.len())];
                    w.remove_obstacle(victim);
                }
            }
            _ => {}
        }
        let caps = capsules(&mut rng);
        assert_eq!(
            pruned_first_hit(&w, &caps, &[]).0,
            exhaustive_first_hit(&w, &caps, &[]).0,
            "step {step}"
        );
    }
}

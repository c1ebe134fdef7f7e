//! Real compute cost of the geometric queries behind the Extended
//! Simulator's trajectory polling.

use rabit_bench::timing::{bench, group};
use rabit_geometry::{collide, Aabb, Capsule, Segment, Vec3};
use rabit_kinematics::presets;
use std::hint::black_box;

fn main() {
    let aabb = Aabb::new(Vec3::new(0.0, 0.3, 0.0), Vec3::new(0.2, 0.5, 0.3));
    let capsule = Capsule::new(Vec3::new(0.5, 0.0, 0.3), Vec3::new(0.4, 0.2, 0.2), 0.03);
    let seg_a = Segment::new(Vec3::ZERO, Vec3::new(1.0, 0.2, 0.1));
    let seg_b = Segment::new(Vec3::new(0.5, -0.5, 0.0), Vec3::new(0.5, 0.5, 0.3));

    group("collide");
    bench("capsule_aabb_distance", || {
        collide::capsule_aabb_distance(black_box(&capsule), &aabb)
    });
    bench("segment_segment_distance", || {
        seg_a.distance_to_segment(black_box(&seg_b))
    });
    bench("aabb_contains_point", || {
        aabb.contains_point(black_box(Vec3::new(0.1, 0.4, 0.1)))
    });

    // A full per-pose collision check: 7 capsules against 7 obstacles —
    // one polling step of the Extended Simulator.
    let arm = presets::ur3e();
    let q = arm.home_configuration();
    let obstacles: Vec<Aabb> = (0..7)
        .map(|i| {
            let x = -0.6 + 0.2 * i as f64;
            Aabb::new(Vec3::new(x, 0.3, 0.0), Vec3::new(x + 0.15, 0.45, 0.2))
        })
        .collect();
    group("sim_poll");
    bench("one_pose_vs_deck", || {
        let capsules = arm.link_capsules(black_box(&q), None);
        let mut hits = 0;
        for o in &obstacles {
            for cap in &capsules[1..] {
                if collide::capsule_intersects_aabb(cap, o) {
                    hits += 1;
                }
            }
        }
        hits
    });
}

//! Property-based tests over kinematics invariants.
//!
//! Hand-rolled property loops over the in-tree seeded PRNG — each
//! property runs `CASES` deterministic cases.

use rabit_kinematics::trajectory::Trajectory;
use rabit_kinematics::{presets, ArmModel, HeldObject, JointConfig};
use rabit_util::Rng;

const CASES: usize = 256;

fn any_arm(rng: &mut Rng) -> ArmModel {
    match rng.random_range(0..3u32) {
        0 => presets::ur3e(),
        1 => presets::viperx300(),
        _ => presets::ned2(),
    }
}

#[test]
fn tool_never_exceeds_max_reach() {
    let mut rng = Rng::seed_from_u64(201);
    for _ in 0..CASES {
        let arm = any_arm(&mut rng);
        // A random config drawn uniformly within the joint limits.
        let mut q = JointConfig::ZERO;
        for i in 0..6 {
            let l = arm.limits()[i];
            q = q.with_angle(i, rng.random_range(l.min..l.max));
        }
        let d = arm
            .tool_position(&q)
            .distance(arm.chain().base().translation);
        assert!(
            d <= arm.max_reach() + 1e-9,
            "{}: {d} > {}",
            arm.name(),
            arm.max_reach()
        );
    }
}

#[test]
fn capsules_chain_continuously() {
    let mut rng = Rng::seed_from_u64(202);
    for _ in 0..CASES {
        let arm = any_arm(&mut rng);
        let caps = arm.link_capsules(&arm.home_configuration(), None);
        assert_eq!(caps.len(), 7);
        for w in caps.windows(2) {
            assert!((w[0].segment.b - w[1].segment.a).norm() < 1e-9);
        }
    }
}

#[test]
fn held_object_never_shrinks_the_arm() {
    let mut rng = Rng::seed_from_u64(203);
    for _ in 0..CASES {
        let arm = any_arm(&mut rng);
        let held = HeldObject::new(rng.random_range(0.001..0.05), rng.random_range(0.0..0.15));
        let q = arm.home_configuration();
        let bare = arm.lowest_point(&q, None);
        let with = arm.lowest_point(&q, Some(&held));
        assert!(with <= bare + 1e-9);
    }
}

#[test]
fn trajectory_sampling_brackets_endpoints() {
    let mut rng = Rng::seed_from_u64(204);
    for _ in 0..CASES {
        let n = rng.random_range(2..50usize);
        let arm = presets::ur3e();
        let t = Trajectory::linear(arm.home_configuration(), arm.sleep_configuration());
        let s = t.sample(n);
        assert_eq!(s.len(), n);
        assert!(s[0].max_joint_delta(&t.start()) < 1e-12);
        assert!(s[n - 1].max_joint_delta(&t.end()) < 1e-12);
        // Monotone progress: each sample moves away from the start.
        let mut last = -1.0;
        for c in &s {
            let d = t.start().distance(c);
            assert!(d >= last - 1e-9);
            last = d;
        }
    }
}

#[test]
fn config_at_is_continuous() {
    let mut rng = Rng::seed_from_u64(205);
    for _ in 0..CASES {
        let t1 = rng.random_range(0.0..5.0);
        let dt = rng.random_range(0.0..0.01);
        let arm = presets::viperx300();
        let traj = Trajectory::linear(arm.home_configuration(), arm.sleep_configuration());
        let a = traj.config_at(t1);
        let b = traj.config_at(t1 + dt);
        // With DEFAULT_JOINT_SPEED = 1 rad/s, joints can't jump more than dt.
        assert!(a.max_joint_delta(&b) <= dt + 1e-9);
    }
}

#[test]
fn lerp_stays_within_segment_bounds() {
    let mut rng = Rng::seed_from_u64(206);
    for _ in 0..CASES {
        let t = rng.random_range(0.0..1.0);
        let a = JointConfig::new([0.0, -1.0, 2.0, 0.5, -0.5, 0.0]);
        let b = JointConfig::new([1.0, 1.0, -2.0, 0.5, 0.5, 3.0]);
        let c = a.lerp(&b, t);
        for i in 0..6 {
            let (lo, hi) = (a.angle(i).min(b.angle(i)), a.angle(i).max(b.angle(i)));
            assert!(c.angle(i) >= lo - 1e-12 && c.angle(i) <= hi + 1e-12);
        }
    }
}

#[test]
fn ik_then_fk_roundtrip_for_reachable_grid() {
    // Deterministic integration check across the three arms.
    use rabit_geometry::Vec3;
    use rabit_kinematics::ik::solve_position;
    for arm in [presets::ur3e(), presets::viperx300()] {
        let seed = arm.home_configuration();
        let start = arm.tool_position(&seed);
        for dx in [-0.05, 0.0, 0.05] {
            for dz in [-0.05, 0.05] {
                let target = start + Vec3::new(dx, 0.02, dz);
                let q = solve_position(&arm, &seed, target)
                    .unwrap_or_else(|e| panic!("{}: {e}", arm.name()));
                assert!(arm.tool_position(&q).distance(target) < 1e-3);
            }
        }
    }
}

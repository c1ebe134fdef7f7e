//! Differential test: the adaptive conservative-advancement sweep must
//! be invisible. Two [`ExtendedSimulator`]s — dense sampling and the
//! adaptive kernel — driven with identical command streams over
//! identical worlds, must return bit-identical verdicts — including the
//! full [`CollisionReport`] payload (obstacle, link, contact point, and
//! the triggering sample's fraction) — and mirror the same arm pose at
//! every step. The adaptive kernel may only differ in *how much work*
//! it does: it must partition the same polling grid between checked
//! and skipped samples.
//!
//! [`CollisionReport`]: rabit_core::CollisionReport

use rabit_core::{SweepStats, TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{ActionKind, Command, DeviceId, DeviceState, LabState, StateKey};
use rabit_geometry::{Aabb, Sphere, Vec3};
use rabit_kinematics::presets;
use rabit_sim::{ExtendedSimulator, ObstacleShape, SimConfig, SimWorld, VerticalCylinder};
use rabit_util::Rng;

const WORLDS: usize = 120;
const COMMANDS_PER_WORLD: usize = 3;

fn sim(world: SimWorld, dense_sampling: bool) -> ExtendedSimulator {
    ExtendedSimulator::new(
        world,
        SimConfig {
            gui: false,
            // No verdict cache: every command must really sweep.
            verdict_cache: false,
            dense_sampling,
            ..SimConfig::default()
        },
    )
    .with_arm("ur3e", presets::ur3e())
}

fn state() -> LabState {
    let mut s = LabState::new();
    s.insert(
        "ur3e",
        DeviceState::new().with(StateKey::Holding, None::<DeviceId>),
    );
    s
}

fn shape(rng: &mut Rng, c: Vec3) -> ObstacleShape {
    match rng.random_range(0..10u32) {
        // Mostly cuboids — the paper's device model.
        0..=6 => ObstacleShape::Cuboid(Aabb::from_center_half_extents(
            c,
            Vec3::new(
                rng.random_range(0.02..0.12),
                rng.random_range(0.02..0.12),
                rng.random_range(0.02..0.12),
            ),
        )),
        7 => ObstacleShape::Hemisphere {
            base_center: c,
            radius: rng.random_range(0.03..0.15),
        },
        8 => ObstacleShape::Sphere(Sphere::new(c, rng.random_range(0.03..0.15))),
        _ => ObstacleShape::Cylinder(VerticalCylinder {
            base: c,
            radius: rng.random_range(0.03..0.1),
            height: rng.random_range(0.05..0.3),
        }),
    }
}

/// A cluttered deck: obstacles scattered through the arm's workspace
/// shell so trajectories graze, clear, and strike them in roughly equal
/// measure.
fn random_world(rng: &mut Rng) -> SimWorld {
    let mut w = SimWorld::new();
    let n = rng.random_range(1..7usize);
    for i in 0..n {
        let c = Vec3::new(
            rng.random_range(-0.6..0.6),
            rng.random_range(-0.6..0.6),
            rng.random_range(0.0..0.6),
        );
        w = w.with_shaped_obstacle(format!("dev{i}"), shape(rng, c));
    }
    w
}

fn random_command(rng: &mut Rng) -> Command {
    match rng.random_range(0..8u32) {
        0 => Command::new("ur3e", ActionKind::MoveHome),
        1 => Command::new("ur3e", ActionKind::MoveToSleep),
        _ => {
            // Targets in the reachable shell, biased toward the clutter.
            let r = rng.random_range(0.2..0.5);
            let theta = rng.random_range(0.0..std::f64::consts::TAU);
            let target = Vec3::new(
                r * theta.cos(),
                r * theta.sin(),
                rng.random_range(0.05..0.5),
            );
            Command::new("ur3e", ActionKind::MoveToLocation { target })
        }
    }
}

/// Drives the same command stream through a dense and an adaptive
/// simulator over clones of the same world, asserting bit-identical
/// verdicts and mirrored poses at every step. Returns the per-kernel
/// work counters in (dense, adaptive) order plus the verdict mix
/// observed.
fn drive_pair(
    world: SimWorld,
    commands: &[Command],
    label: &str,
) -> ([SweepStats; 2], usize, usize) {
    let st = state();
    let mut dense = sim(world.clone(), true);
    let mut adaptive = sim(world, false);
    let (mut safe, mut collisions) = (0, 0);
    for (k, cmd) in commands.iter().enumerate() {
        let vd = dense.validate(cmd, &st);
        let va = adaptive.validate(cmd, &st);
        assert_eq!(va, vd, "{label}, command {k}: {cmd:?}");
        match &vd {
            TrajectoryVerdict::Safe => safe += 1,
            TrajectoryVerdict::Collision(_) => collisions += 1,
            _ => {}
        }
        let pose = dense.arm_configuration(&"ur3e".into());
        assert_eq!(
            adaptive.arm_configuration(&"ur3e".into()),
            pose,
            "{label}, command {k}: adaptive pose diverged"
        );
    }
    (
        [dense.sweep_stats(), adaptive.sweep_stats()],
        safe,
        collisions,
    )
}

#[test]
fn adaptive_matches_dense_over_many_random_worlds() {
    let mut rng = Rng::seed_from_u64(0xADA_517);
    let (mut safe, mut collisions) = (0usize, 0usize);
    let mut totals = [SweepStats::default(); 2];
    for w in 0..WORLDS {
        let commands: Vec<Command> = (0..COMMANDS_PER_WORLD)
            .map(|_| random_command(&mut rng))
            .collect();
        let (runs, s, c) = drive_pair(random_world(&mut rng), &commands, &format!("world {w}"));
        let [dense, adaptive] = runs;
        assert_eq!(dense.samples_skipped, 0, "dense sampling must not skip");
        assert_eq!(
            adaptive.samples_checked + adaptive.samples_skipped,
            dense.samples_checked,
            "world {w}: adaptive kernel must partition the same polling grid"
        );
        for (total, r) in totals.iter_mut().zip(&runs) {
            total.merge(r);
        }
        safe += s;
        collisions += c;
    }
    // The suite must actually exercise both outcomes and real skipping,
    // otherwise agreement is vacuous.
    assert!(safe > 20, "only {safe} safe verdicts across the suite");
    assert!(
        collisions > 20,
        "only {collisions} collision verdicts across the suite"
    );
    let [dense, adaptive] = totals;
    assert!(
        adaptive.samples_skipped * 2 > adaptive.samples_checked,
        "adaptive kernel barely skipped: {} skipped vs {} checked ({} dense)",
        adaptive.samples_skipped,
        adaptive.samples_checked,
        dense.samples_checked
    );
}

#[test]
fn near_graze_boundary_is_bit_identical() {
    // Slide a slab through the swept volume of one fixed move in 1 mm
    // steps, from clearly colliding to clearly free. Every position —
    // including the grazing transition — must agree bit for bit across
    // both kernels, and the scan must actually cross the safe/collision
    // boundary.
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let target = home_tool + Vec3::new(0.0, 0.25, 0.0);
    let mid = home_tool.lerp(target, 0.5);
    let (mut safe, mut collisions) = (0, 0);
    for step in 0..120 {
        // The slab's top face scans from 7 cm below the mid-path tool
        // point to 5 cm above it, one millimetre at a time.
        let top = mid.z - 0.07 + step as f64 * 0.001;
        let world = SimWorld::new().with_obstacle(
            "slab",
            Aabb::from_center_half_extents(
                Vec3::new(mid.x, mid.y, top - 0.05),
                Vec3::new(0.3, 0.3, 0.05),
            ),
        );
        let cmd = Command::new("ur3e", ActionKind::MoveToLocation { target });
        let (_, s, c) = drive_pair(world, std::slice::from_ref(&cmd), &format!("step {step}"));
        safe += s;
        collisions += c;
    }
    assert!(safe > 0, "the scan never cleared the slab");
    assert!(collisions > 0, "the scan never struck the slab");
}

#[test]
fn mid_run_world_mutation_is_seen_by_all_kernels() {
    // An obstacle added to the world between two commands is seen by the
    // next validation: both kernels report a collision with it on the
    // return path, and they agree on the verdict.
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let away = home_tool + Vec3::new(-0.05, 0.18, 0.08);
    let st = state();
    let mut dense = sim(SimWorld::new(), true);
    let mut adaptive = sim(SimWorld::new(), false);

    let go = Command::new("ur3e", ActionKind::MoveToLocation { target: away });
    assert_eq!(dense.validate(&go, &st), TrajectoryVerdict::Safe);
    assert_eq!(adaptive.validate(&go, &st), TrajectoryVerdict::Safe);

    // Drop a crate onto the midpoint of the return path.
    let obstacle =
        Aabb::from_center_half_extents(home_tool.lerp(away, 0.5), Vec3::new(0.06, 0.06, 0.06));
    dense.world_mut().add_obstacle("dropped_crate", obstacle);
    adaptive.world_mut().add_obstacle("dropped_crate", obstacle);

    let back = Command::new("ur3e", ActionKind::MoveToLocation { target: home_tool });
    let vd = dense.validate(&back, &st);
    let va = adaptive.validate(&back, &st);
    assert_eq!(va, vd, "post-mutation verdicts diverged");
    match vd {
        TrajectoryVerdict::Collision(report) => {
            assert_eq!(report.device.as_str(), "dropped_crate");
        }
        other => panic!("expected a collision with the dropped crate, got {other:?}"),
    }
}

//! Differential test: the verdict cache must be invisible. A cached
//! [`ExtendedSimulator`] and an uncached one, driven with identical
//! command streams over identical (mutating) worlds, must return the
//! same verdict and mirror the same arm poses at every step — while the
//! cached one actually serves a meaningful share of hits. The streams
//! interleave two arms on one simulator, and each arm keeps its own memo.

use rabit_core::{TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{ActionKind, Command, DeviceId, DeviceState, LabState, StateKey};
use rabit_geometry::{Aabb, Pose, Vec3};
use rabit_kinematics::{presets, ArmModel};
use rabit_sim::{ExtendedSimulator, SimConfig, SimWorld};
use rabit_util::Rng;

const WORLDS: usize = 6;
const COMMANDS_PER_WORLD: usize = 96; // 6 × 96 = 576 ≥ 256 paired validations

/// The simulated arms: a UR3e at the origin and a Ned2 mounted beside it.
fn arms() -> [(&'static str, ArmModel); 2] {
    [
        ("ur3e", presets::ur3e()),
        (
            "ned2",
            presets::ned2().with_base(Pose::from_translation(Vec3::new(0.3, 0.0, 0.0))),
        ),
    ]
}

fn sim(world: SimWorld, verdict_cache: bool) -> ExtendedSimulator {
    let mut sim = ExtendedSimulator::new(
        world,
        SimConfig {
            gui: false,
            verdict_cache,
            ..SimConfig::default()
        },
    );
    for (id, model) in arms() {
        sim.add_arm(id, model);
    }
    sim
}

/// Every arm's holding state: a vial when `holding`, nothing otherwise.
fn state(holding: bool) -> LabState {
    let mut s = LabState::new();
    let held = if holding {
        Some(DeviceId::new("vial"))
    } else {
        None
    };
    for (id, _) in arms() {
        s.insert(id, DeviceState::new().with(StateKey::Holding, held.clone()));
    }
    s
}

/// A small pool of reachable targets around an arm's home tool position,
/// so the random walk revisits (start, goal) pairs and the cache gets
/// hits.
fn target_pool(arm: &ArmModel) -> Vec<Vec3> {
    let home_tool = arm.tool_position(&arm.home_configuration());
    vec![
        home_tool + Vec3::new(0.05, 0.05, 0.05),
        home_tool + Vec3::new(-0.06, 0.04, 0.02),
        home_tool + Vec3::new(0.0, 0.1, -0.03),
        Vec3::new(5.0, 5.0, 5.0), // out of reach → Unavailable
    ]
}

fn random_world(rng: &mut Rng) -> SimWorld {
    let mut w = SimWorld::new();
    let n = rng.random_range(0..6usize);
    for i in 0..n {
        let c = Vec3::new(
            rng.random_range(-0.6..0.6),
            rng.random_range(-0.6..0.6),
            rng.random_range(0.0..0.6),
        );
        let h = Vec3::new(
            rng.random_range(0.02..0.15),
            rng.random_range(0.02..0.15),
            rng.random_range(0.02..0.15),
        );
        w.add_obstacle(format!("dev{i}"), Aabb::from_center_half_extents(c, h));
    }
    w
}

/// A seeded command for one of the arms, drawn from that arm's pool.
fn random_command(rng: &mut Rng, pools: &[(&str, Vec<Vec3>)]) -> Command {
    let (arm, pool) = &pools[rng.random_range(0..pools.len())];
    match rng.random_range(0..10u32) {
        0 => Command::new(*arm, ActionKind::MoveHome),
        1 => Command::new(*arm, ActionKind::MoveToSleep),
        _ => Command::new(
            *arm,
            ActionKind::MoveToLocation {
                target: pool[rng.random_range(0..pool.len())],
            },
        ),
    }
}

#[test]
fn cached_verdicts_match_uncached_pose_for_pose() {
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    let pools: Vec<(&str, Vec<Vec3>)> = arms()
        .iter()
        .map(|(id, model)| (*id, target_pool(model)))
        .collect();
    let arm_ids: Vec<DeviceId> = pools.iter().map(|(id, _)| DeviceId::new(id)).collect();
    let mut total = 0usize;
    let mut total_hits = 0u64;
    for wi in 0..WORLDS {
        let world = random_world(&mut rng);
        let mut cached = sim(world.clone(), true);
        let mut uncached = sim(world, false);
        let mut holding = false;
        for ci in 0..COMMANDS_PER_WORLD {
            // Occasionally mutate both worlds identically mid-run: the
            // epoch key must keep stale verdicts from being served.
            if rng.random_bool(0.06) {
                let c = Vec3::new(
                    rng.random_range(-0.5..0.5),
                    rng.random_range(-0.5..0.5),
                    rng.random_range(0.0..0.5),
                );
                let aabb = Aabb::from_center_half_extents(c, Vec3::splat(0.08));
                let name = format!("mut{wi}_{ci}");
                cached.world_mut().add_obstacle(name.clone(), aabb);
                uncached.world_mut().add_obstacle(name, aabb);
            } else if rng.random_bool(0.03) {
                let names: Vec<String> = cached
                    .world()
                    .obstacles()
                    .iter()
                    .map(|o| o.name.to_string())
                    .collect();
                if !names.is_empty() {
                    let victim = &names[rng.random_range(0..names.len())];
                    cached.world_mut().remove_obstacle(victim);
                    uncached.world_mut().remove_obstacle(victim);
                }
            }
            if rng.random_bool(0.1) {
                holding = !holding;
            }
            let cmd = random_command(&mut rng, &pools);
            let s = state(holding);
            let vc = cached.validate(&cmd, &s);
            let vu = uncached.validate(&cmd, &s);
            assert_eq!(vc, vu, "world {wi} command {ci} ({cmd:?}): verdicts differ");
            for arm_id in &arm_ids {
                assert_eq!(
                    cached.arm_configuration(arm_id),
                    uncached.arm_configuration(arm_id),
                    "world {wi} command {ci}: {arm_id}'s mirrored poses diverged"
                );
            }
            total += 1;
        }
        assert_eq!(
            cached.cache_hits() + cached.cache_misses(),
            COMMANDS_PER_WORLD as u64,
            "every validation goes through the cache"
        );
        assert_eq!(uncached.cache_hits(), 0, "disabled cache must not hit");
        total_hits += cached.cache_hits();
    }
    assert!(total >= 256, "only {total} paired validations");
    // The pool is small and moves mirror deterministically, so the walk
    // revisits states. Mutations wipe the live epoch and held-state
    // toggles split keys, so the rate stays modest — but the cache must
    // genuinely engage.
    assert!(
        total_hits * 10 >= (WORLDS * COMMANDS_PER_WORLD) as u64,
        "only {total_hits} hits across {total} validations — cache never engages"
    );
}

#[test]
fn mid_run_world_mutation_invalidates_cached_safe_verdict() {
    // Cache a Safe verdict for home → target, then drop a device cuboid
    // onto exactly that path. Replaying the identical command from the
    // identical pose must report the collision, not the stale Safe.
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let target = home_tool + Vec3::new(0.0, 0.25, 0.0);
    let mid = home_tool.lerp(target, 0.5);
    let block = Aabb::from_center_half_extents(mid, Vec3::new(0.35, 0.04, 0.35));

    let mut s = sim(SimWorld::new(), true);
    let cmd = Command::new("ur3e", ActionKind::MoveToLocation { target });
    let back = Command::new("ur3e", ActionKind::MoveHome);
    let lab = state(false);

    // Prime: safe, and repeat the round trip to prove the hits come.
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&back, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&back, &lab), TrajectoryVerdict::Safe);
    assert!(s.cache_hits() >= 2, "repeat round trip must hit the cache");

    // Mutate the device AABB mid-run: the same key inputs now face a
    // different world, so the stale Safe must not be served.
    s.world_mut().add_obstacle("dropped_device", block);
    match s.validate(&cmd, &lab) {
        TrajectoryVerdict::Collision(report) => {
            assert_eq!(report.device.as_str(), "dropped_device")
        }
        other => panic!("stale cached verdict served after mutation: {other:?}"),
    }

    // And removing it restores Safe (a third epoch, not the first's
    // entries — but the verdict is what matters).
    s.world_mut().remove_obstacle("dropped_device");
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
}

#[test]
fn rulebase_epoch_bump_invalidates_cached_verdicts() {
    // The verdict key composes the *rulebase* epoch alongside the world
    // epoch: a rule commit mid-run must stop cached verdicts from being
    // served even though the world never changed. The engine reports the
    // epoch through `note_rulebase_epoch` before every validation.
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let target = home_tool + Vec3::new(0.05, 0.05, 0.05);
    let mut s = sim(SimWorld::new(), true);
    let cmd = Command::new("ur3e", ActionKind::MoveToLocation { target });
    let back = Command::new("ur3e", ActionKind::MoveHome);
    let lab = state(false);

    // Prime under rulebase epoch 0 and prove the round trip hits.
    s.note_rulebase_epoch(0);
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&back, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.validate(&back, &lab), TrajectoryVerdict::Safe);
    let hits_before = s.cache_hits();
    let misses_before = s.cache_misses();
    assert!(hits_before >= 2, "repeat round trip must hit the cache");

    // A rule commit publishes epoch 1: the identical command from the
    // identical pose and world must re-sweep, not replay epoch 0's entry.
    s.note_rulebase_epoch(1);
    assert_eq!(s.validate(&cmd, &lab), TrajectoryVerdict::Safe);
    assert_eq!(s.cache_hits(), hits_before, "stale epoch-0 verdict served");
    assert_eq!(s.cache_misses(), misses_before + 1);

    // An in-flight validation still on epoch 0 finds its entries intact:
    // old generations stay in the arm's memo until it is next cleared at
    // capacity; they are not swept eagerly. The arm is at `target` now,
    // so the primed epoch-0 `back` entry applies.
    s.note_rulebase_epoch(0);
    assert_eq!(s.validate(&back, &lab), TrajectoryVerdict::Safe);
    assert_eq!(
        s.cache_hits(),
        hits_before + 1,
        "epoch-0 entries must survive the epoch-1 commit"
    );
}

#[test]
fn cache_respects_held_object_difference() {
    // Same pose, same goal, different held state: the bare-arm Safe must
    // not be replayed for the held-vial case (Bug D's geometry).
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let target = home_tool + Vec3::new(0.08, 0.0, -0.02);
    let mid = home_tool.lerp(target, 0.5);
    let shelf =
        Aabb::from_center_half_extents(mid - Vec3::new(0.0, 0.0, 0.12), Vec3::new(0.2, 0.2, 0.06));
    let mut s = sim(SimWorld::new().with_obstacle("shelf", shelf), true);
    let cmd = Command::new("ur3e", ActionKind::MoveToLocation { target });
    assert_eq!(s.validate(&cmd, &state(false)), TrajectoryVerdict::Safe);
    // Back to the home configuration, bit for bit, with the memo kept:
    // only the held flag tells the next key from the bare-arm entry.
    let home = Command::new("ur3e", ActionKind::MoveHome);
    assert_eq!(s.validate(&home, &state(false)), TrajectoryVerdict::Safe);
    assert_eq!(
        s.arm_configuration(&DeviceId::new("ur3e")),
        Some(arm.home_configuration())
    );
    match s.validate(&cmd, &state(true)) {
        TrajectoryVerdict::Collision(report) => assert_eq!(report.device.as_str(), "shelf"),
        other => panic!("held-object case served the bare-arm verdict: {other:?}"),
    }
}

#[test]
fn cache_respects_a_poll_interval_change() {
    // A 2 mm wall across the path: the default 0.05 s polling grid
    // catches it, a 0.5 s grid steps over it. An interval changed through
    // `config_mut` must not replay the other grid's verdict.
    let arm = presets::ur3e();
    let home_tool = arm.tool_position(&arm.home_configuration());
    let target = home_tool + Vec3::new(0.0, 0.15, 0.0);
    let wall =
        Aabb::from_center_half_extents(home_tool.lerp(target, 0.5), Vec3::new(0.3, 0.001, 0.1));
    let world = SimWorld::new().with_obstacle("wall", wall);
    let (mut cached, mut uncached) = (sim(world.clone(), true), sim(world, false));
    let cmd = Command::new("ur3e", ActionKind::MoveToLocation { target });
    let mut verdicts = Vec::new();
    for poll_interval_s in [0.05, 0.5] {
        cached.config_mut().poll_interval_s = poll_interval_s;
        uncached.config_mut().poll_interval_s = poll_interval_s;
        let verdict = uncached.validate(&cmd, &state(false));
        assert_eq!(cached.validate(&cmd, &state(false)), verdict);
        verdicts.push(verdict);
    }
    assert!(matches!(verdicts[0], TrajectoryVerdict::Collision(_)));
    assert_eq!(verdicts[1], TrajectoryVerdict::Safe);
}

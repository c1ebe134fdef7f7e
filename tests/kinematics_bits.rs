//! Pins the kinematics every verdict depends on, at three strengths.
//!
//! One seeded run feeds three FNV-1a digests over public-API outputs:
//! forward kinematics (`DhChain::joint_poses`) on seeded in-limit
//! configurations of every preset, position IK (`ik::solve_position`) on
//! seeded targets, and a seeded sequence of Extended Simulator
//! validations.
//!
//! * [`FK_GOLDEN`] covers every bit of the forward-kinematics poses.
//! * [`SHAPE_GOLDEN`] covers the outcomes only: the class of each IK
//!   result (solved, not converged, out of reach) and the kind, device
//!   and link of each verdict. A change to the solver's arithmetic that
//!   moves no decision leaves it passing.
//! * [`BITS_GOLDEN`] covers every bit of the IK results, the collision
//!   reports and the mirrored arm configurations after each validate.
//!
//! The crate-level tests accept any IK solution within tolerance; these
//! fail on any change to what they cover. A change to the solver's
//! arithmetic may re-take `BITS_GOLDEN`, and says so; `FK_GOLDEN` and
//! `SHAPE_GOLDEN` must keep passing unmodified.

use rabit::core::{TrajectoryValidator, TrajectoryVerdict};
use rabit::devices::{ActionKind, Command, DeviceId, DeviceState, LabState, StateKey};
use rabit::geometry::{Aabb, Pose, Vec3};
use rabit::kinematics::ik::{self, IkError};
use rabit::kinematics::{presets, ArmModel, JointConfig};
use rabit::sim::{ExtendedSimulator, SimConfig, SimWorld};
use rabit::util::Rng;
use std::sync::OnceLock;

/// The forward-kinematics poses, bit for bit.
const FK_GOLDEN: u64 = 0x8f37_caec_98cd_b913;
/// The class of each IK outcome and the kind, device and link of each
/// verdict.
const SHAPE_GOLDEN: u64 = 0x8e5d_0f1e_f033_d8fb;
/// Every bit of the IK outcomes and of the validates.
const BITS_GOLDEN: u64 = 0x0c21_afb5_68c9_dacd;

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    fn pose(&mut self, p: &Pose) {
        for r in 0..3 {
            self.vec3(p.rotation.row(r));
        }
        self.vec3(p.translation);
    }

    fn config(&mut self, q: &JointConfig) {
        for &a in q.angles() {
            self.f64(a);
        }
    }
}

fn random_config(model: &ArmModel, rng: &mut Rng) -> JointConfig {
    let mut q = JointConfig::ZERO;
    for (i, l) in model.limits().iter().enumerate() {
        q = q.with_angle(i, rng.random_range(l.min..l.max));
    }
    q
}

/// Mostly reachable targets (the tool of a random posture); every third
/// a point in the reach cube, which may be out of reach or unreachable
/// inside it.
fn random_target(model: &ArmModel, rng: &mut Rng, k: usize) -> Vec3 {
    if k % 3 == 2 {
        let base = model.chain().base().translation;
        let reach = model.max_reach();
        base + Vec3::new(
            rng.random_range(-reach..reach),
            rng.random_range(-reach..reach),
            rng.random_range(-reach..reach),
        )
    } else {
        model.tool_position(&random_config(model, rng))
    }
}

fn presets() -> [ArmModel; 4] {
    [
        presets::ur3e(),
        presets::ur5e(),
        presets::viperx300(),
        presets::ned2(),
    ]
}

/// The three digests of one seeded run.
struct Digests {
    fk: Digest,
    shape: Digest,
    bits: Digest,
}

fn digests() -> &'static Digests {
    static DIGESTS: OnceLock<Digests> = OnceLock::new();
    DIGESTS.get_or_init(run)
}

fn run() -> Digests {
    let mut rng = Rng::seed_from_u64(0xB175);
    let (mut fk, mut shape, mut bits) = (Digest::new(), Digest::new(), Digest::new());

    // Forward kinematics: every joint frame, home and sleep included.
    for model in presets() {
        let chain = model.chain();
        let mut configs = vec![
            JointConfig::ZERO,
            model.home_configuration(),
            model.sleep_configuration(),
        ];
        configs.extend((0..200).map(|_| random_config(&model, &mut rng)));
        for q in &configs {
            for pose in &chain.joint_poses(q.angles()) {
                fk.pose(pose);
            }
        }
    }

    // Position IK from the home configuration and from a random start.
    let mut solved = [0; 2];
    for model in presets() {
        for k in 0..8 {
            let target = random_target(&model, &mut rng, k);
            let seed = if k % 2 == 0 {
                model.home_configuration()
            } else {
                random_config(&model, &mut rng)
            };
            let outcome = ik::solve_position(&model, &seed, target);
            let class = match &outcome {
                Ok(_) => 0,
                Err(IkError::NotConverged { .. }) => 1,
                Err(IkError::OutOfReach { .. }) => 2,
                Err(IkError::InvalidTarget) => 3,
            };
            shape.word(class);
            bits.word(class);
            match outcome {
                Ok(q) => {
                    solved[0] += 1;
                    bits.config(&q);
                }
                Err(e) => {
                    solved[1] += 1;
                    match e {
                        IkError::NotConverged { residual } => bits.f64(residual),
                        IkError::OutOfReach {
                            distance,
                            max_reach,
                        } => {
                            bits.f64(distance);
                            bits.f64(max_reach);
                        }
                        IkError::InvalidTarget => {}
                    }
                }
            }
        }
    }

    // A seeded sequence of guarded motions: each verdict (with its
    // collision report) and the mirrored configuration it leaves.
    let world = SimWorld::new()
        .with_platform(1.5)
        .with_obstacle(
            "dosing_device",
            Aabb::new(Vec3::new(0.25, -0.15, 0.0), Vec3::new(0.45, 0.15, 0.3)),
        )
        .with_obstacle(
            "shaker",
            Aabb::new(Vec3::new(-0.5, 0.2, 0.0), Vec3::new(-0.3, 0.4, 0.25)),
        );
    let arms = [("ur3e", presets::ur3e()), ("viperx", presets::viperx300())];
    let mut sim = ExtendedSimulator::new(
        world,
        SimConfig {
            gui: false,
            ..SimConfig::default()
        },
    );
    let mut state = LabState::new();
    for (id, model) in &arms {
        sim.add_arm(*id, model.clone());
        state.insert(
            *id,
            DeviceState::new().with(StateKey::Holding, None::<DeviceId>),
        );
    }
    let mut verdicts = [0; 3];
    for k in 0..48 {
        let (id, model) = &arms[k % arms.len()];
        let action = match k % 8 {
            3 => ActionKind::MoveHome,
            7 => ActionKind::MoveToSleep,
            _ => ActionKind::MoveToLocation {
                target: random_target(model, &mut rng, k),
            },
        };
        match sim.validate(&Command::new(*id, action), &state) {
            TrajectoryVerdict::Safe => {
                verdicts[0] += 1;
                shape.word(0);
                bits.word(0);
            }
            TrajectoryVerdict::Collision(report) => {
                verdicts[1] += 1;
                for digest in [&mut shape, &mut bits] {
                    digest.word(1);
                    for byte in report.device.as_str().bytes() {
                        digest.word(u64::from(byte));
                    }
                    digest.word(report.link as u64);
                }
                bits.vec3(report.contact);
                bits.f64(report.at_fraction);
            }
            TrajectoryVerdict::Unavailable => {
                verdicts[2] += 1;
                shape.word(2);
                bits.word(2);
            }
        }
        let q = sim
            .arm_configuration(&DeviceId::new(id))
            .expect("arm is registered");
        bits.config(&q);
    }

    // The inputs reach every outcome, so the digests cover each path.
    assert!(solved.iter().all(|&n| n > 0), "IK solved/failed {solved:?}");
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "safe/collision/unavailable {verdicts:?}"
    );
    Digests { fk, shape, bits }
}

#[test]
fn forward_kinematics_matches_the_golden_digest() {
    let fk = digests().fk.0;
    assert_eq!(fk, FK_GOLDEN, "digest {fk:#018x}");
}

#[test]
fn ik_and_verdict_outcomes_match_the_shape_digest() {
    let shape = digests().shape.0;
    assert_eq!(shape, SHAPE_GOLDEN, "digest {shape:#018x}");
}

#[test]
fn kinematics_outputs_match_the_golden_digest() {
    let bits = digests().bits.0;
    assert_eq!(bits, BITS_GOLDEN, "digest {bits:#018x}");
}

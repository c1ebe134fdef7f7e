//! Arm models: a DH chain plus the physical attributes RABIT's safety
//! checks need — joint limits, link radii, a gripper, and held objects.

use crate::chain::{DhChain, JointConfig, JointLimits};
use crate::sweep::MotionBound;
use rabit_geometry::{Capsule, Vec3};

/// Gripper open/closed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GripperState {
    /// Gripper jaws open (cannot hold anything).
    Open,
    /// Gripper jaws closed (may be holding an object).
    Closed,
}

/// An object held by the gripper. Holding an object *changes the arm's
/// effective dimensions* — the oversight behind the paper's Bug D, where
/// "the vial collided with the platform before RABIT could raise an alarm".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeldObject {
    /// Radius of the held object (metres), e.g. a vial ≈ 0.014.
    pub radius: f64,
    /// How far the object extends below the tool flange (metres),
    /// e.g. a vial hanging 0.05 below the gripper.
    pub length_below_gripper: f64,
}

impl HeldObject {
    /// A standard 20 mL scintillation vial as used in the Hein Lab.
    pub fn vial() -> Self {
        HeldObject {
            radius: 0.014,
            length_below_gripper: 0.06,
        }
    }

    /// Creates a held-object description.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is negative or non-finite.
    pub fn new(radius: f64, length_below_gripper: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "held object radius must be finite and non-negative, got {radius}"
        );
        assert!(
            length_below_gripper.is_finite() && length_below_gripper >= 0.0,
            "held object length must be finite and non-negative, got {length_below_gripper}"
        );
        HeldObject {
            radius,
            length_below_gripper,
        }
    }
}

/// A complete 6-axis arm model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmModel {
    name: String,
    chain: DhChain,
    limits: [JointLimits; 6],
    /// Capsule radius for each of the six links (metres).
    link_radii: [f64; 6],
    /// Length of the gripper/tool beyond the last joint frame (metres).
    gripper_length: f64,
    /// Radius of the gripper capsule (metres).
    gripper_radius: f64,
    home: JointConfig,
    sleep: JointConfig,
}

impl ArmModel {
    /// Assembles an arm model.
    ///
    /// # Panics
    ///
    /// Panics if any radius or the gripper length is negative/non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        chain: DhChain,
        limits: [JointLimits; 6],
        link_radii: [f64; 6],
        gripper_length: f64,
        gripper_radius: f64,
        home: JointConfig,
        sleep: JointConfig,
    ) -> Self {
        for r in &link_radii {
            assert!(
                r.is_finite() && *r >= 0.0,
                "link radius must be finite and non-negative"
            );
        }
        assert!(
            gripper_length.is_finite() && gripper_length >= 0.0,
            "gripper length must be finite and non-negative"
        );
        assert!(
            gripper_radius.is_finite() && gripper_radius >= 0.0,
            "gripper radius must be finite and non-negative"
        );
        ArmModel {
            name: name.into(),
            chain,
            limits,
            link_radii,
            gripper_length,
            gripper_radius,
            home,
            sleep,
        }
    }

    /// The arm's name ("UR3e", "ViperX", "Ned2", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying DH chain.
    pub fn chain(&self) -> &DhChain {
        &self.chain
    }

    /// Remounts the arm at a different base pose.
    pub fn with_base(mut self, base: rabit_geometry::Pose) -> Self {
        self.chain = self.chain.with_base(base);
        self
    }

    /// Joint limits.
    pub fn limits(&self) -> &[JointLimits; 6] {
        &self.limits
    }

    /// The arm's home (ready) configuration.
    pub fn home_configuration(&self) -> JointConfig {
        self.home
    }

    /// The arm's sleep (stowed) configuration — where an idle arm parks so
    /// that it can be modelled "as 3D cuboid spaces (identically to other
    /// devices)" during time multiplexing.
    pub fn sleep_configuration(&self) -> JointConfig {
        self.sleep
    }

    /// Returns `true` if `config` respects every joint limit.
    pub fn within_limits(&self, config: &JointConfig) -> bool {
        self.limits
            .iter()
            .zip(config.angles().iter())
            .all(|(l, a)| l.contains(*a))
    }

    /// Maximum reach from the base (metres).
    pub fn max_reach(&self) -> f64 {
        self.chain.max_reach() + self.gripper_length
    }

    /// World-space tool-center-point (gripper tip) for a configuration.
    pub fn tool_position(&self, config: &JointConfig) -> Vec3 {
        let ee = self.chain.end_effector_pose(config.angles());
        ee.transform_point(Vec3::new(0.0, 0.0, self.gripper_length))
    }

    /// The world-space capsule set occupied by the arm in `config`:
    /// six link capsules plus the gripper capsule. `held` inflates the
    /// gripper capsule and extends it downward by the object's length —
    /// the paper's post-Bug-D geometry extension.
    pub fn link_capsules(&self, config: &JointConfig, held: Option<&HeldObject>) -> Vec<Capsule> {
        let mut out = Vec::with_capacity(7);
        self.link_capsules_into(config, held, &mut out);
        out
    }

    /// Like [`ArmModel::link_capsules`], but fills a caller-owned buffer
    /// so a sweep over many samples reuses one allocation. Clears `out`
    /// first.
    pub fn link_capsules_into(
        &self,
        config: &JointConfig,
        held: Option<&HeldObject>,
        out: &mut Vec<Capsule>,
    ) {
        let poses = self.chain.joint_poses(config.angles());
        self.capsules_from_poses(&poses, held, out);
    }

    /// Builds the capsule set from already-computed joint poses (one full
    /// forward-kinematics pass), e.g. from [`DhChain::joint_poses`] or a
    /// window of [`DhChain::joint_poses_batch`]. Clears `out` first.
    /// `link_capsules_into(q, …)` is exactly
    /// `capsules_from_poses(&chain.joint_poses(q), …)`.
    pub fn capsules_from_poses(
        &self,
        poses: &[rabit_geometry::Pose; 7],
        held: Option<&HeldObject>,
        out: &mut Vec<Capsule>,
    ) {
        out.clear();
        for i in 0..6 {
            out.push(Capsule::new(
                poses[i].translation,
                poses[i + 1].translation,
                self.link_radii[i],
            ));
        }
        let wrist = poses[6].translation;
        let tip = poses[6].transform_point(Vec3::new(0.0, 0.0, self.gripper_length));
        let mut gripper = Capsule::new(wrist, tip, self.gripper_radius);
        if let Some(obj) = held {
            // Extend the gripper capsule along its axis by the held
            // object's length, and widen it by the object's radius.
            let axis = (tip - wrist).normalized().unwrap_or(Vec3::Z * -1.0);
            let extended_tip = tip + axis * obj.length_below_gripper;
            gripper = Capsule::new(wrist, extended_tip, self.gripper_radius.max(obj.radius));
        }
        out.push(gripper);
    }

    /// Precomputes the Lipschitz motion bound for this arm (optionally
    /// carrying `held`): for each joint, the maximum Cartesian displacement
    /// of every downstream capsule per radian of joint motion, from the
    /// cumulative rigid link lengths `√(a² + d²)` of the DH rows. See
    /// [`MotionBound`] for the soundness argument.
    pub fn motion_bound(&self, held: Option<&HeldObject>) -> MotionBound {
        let mut lens = [0.0; 6];
        for (len, p) in lens.iter_mut().zip(self.chain.params().iter()) {
            *len = (p.a * p.a + p.d * p.d).sqrt();
        }
        let tool = self.gripper_length + held.map_or(0.0, |o| o.length_below_gripper);
        let mut reach = [[0.0; crate::sweep::CAPSULE_COUNT]; 6];
        #[allow(clippy::needless_range_loop)] // triangular fill over joint index pairs
        for j in 0..6 {
            let mut acc = 0.0;
            for l in j..6 {
                acc += lens[l];
                reach[j][l] = acc;
            }
            reach[j][6] = acc + tool;
        }
        let mut wraps = [false; 6];
        for (w, l) in wraps.iter_mut().zip(self.limits.iter()) {
            *w = l.spans_full_circle();
        }
        MotionBound::new(reach, wraps)
    }

    /// Lowest point (world z) swept by the arm body in `config` — a quick
    /// platform-collision heuristic used in tests.
    pub fn lowest_point(&self, config: &JointConfig, held: Option<&HeldObject>) -> f64 {
        self.link_capsules(config, held)
            .iter()
            .map(|c| c.segment.a.z.min(c.segment.b.z) - c.radius)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::DhParam;
    use rabit_geometry::Pose;

    fn test_arm() -> ArmModel {
        let chain = DhChain::new(
            [
                DhParam::new(0.0, 0.15, std::f64::consts::FRAC_PI_2, 0.0),
                DhParam::new(0.25, 0.0, 0.0, 0.0),
                DhParam::new(0.2, 0.0, 0.0, 0.0),
                DhParam::new(0.0, 0.1, std::f64::consts::FRAC_PI_2, 0.0),
                DhParam::new(0.0, 0.08, -std::f64::consts::FRAC_PI_2, 0.0),
                DhParam::new(0.0, 0.06, 0.0, 0.0),
            ],
            Pose::IDENTITY,
        );
        ArmModel::new(
            "TestArm",
            chain,
            [JointLimits::full_circle(); 6],
            [0.05, 0.04, 0.04, 0.03, 0.03, 0.02],
            0.1,
            0.02,
            JointConfig::ZERO,
            JointConfig::new([0.0, -1.5, 1.2, 0.0, 0.3, 0.0]),
        )
    }

    #[test]
    fn capsule_count_and_radii() {
        let arm = test_arm();
        let caps = arm.link_capsules(&JointConfig::ZERO, None);
        assert_eq!(caps.len(), 7);
        assert_eq!(caps[0].radius, 0.05);
        assert_eq!(caps[6].radius, 0.02);
    }

    #[test]
    fn capsules_are_connected() {
        let arm = test_arm();
        let caps = arm.link_capsules(&arm.sleep_configuration(), None);
        for w in caps.windows(2) {
            assert!(
                (w[0].segment.b - w[1].segment.a).norm() < 1e-9,
                "links must chain end-to-start"
            );
        }
    }

    #[test]
    fn held_object_extends_gripper() {
        let arm = test_arm();
        let vial = HeldObject::vial();
        let bare = arm.link_capsules(&JointConfig::ZERO, None);
        let held = arm.link_capsules(&JointConfig::ZERO, Some(&vial));
        let bare_grip = &bare[6];
        let held_grip = &held[6];
        assert!(held_grip.segment.length() > bare_grip.segment.length());
        assert!(held_grip.radius >= bare_grip.radius);
        // Lowest point drops (or stays) when holding an object.
        assert!(
            arm.lowest_point(&JointConfig::ZERO, Some(&vial))
                <= arm.lowest_point(&JointConfig::ZERO, None) + 1e-12
        );
    }

    #[test]
    fn tool_position_is_gripper_tip() {
        let arm = test_arm();
        let caps = arm.link_capsules(&JointConfig::ZERO, None);
        let tip = arm.tool_position(&JointConfig::ZERO);
        assert!((caps[6].segment.b - tip).norm() < 1e-9);
    }

    #[test]
    fn limits_checking() {
        let chain = test_arm().chain().clone();
        let arm = ArmModel::new(
            "Limited",
            chain,
            [JointLimits::new(-1.0, 1.0); 6],
            [0.02; 6],
            0.05,
            0.01,
            JointConfig::ZERO,
            JointConfig::ZERO,
        );
        assert!(arm.within_limits(&JointConfig::ZERO));
        assert!(!arm.within_limits(&JointConfig::ZERO.with_angle(2, 1.5)));
    }

    #[test]
    fn reach_includes_gripper() {
        let arm = test_arm();
        assert!(arm.max_reach() > arm.chain().max_reach());
    }

    #[test]
    fn remounting_moves_capsules() {
        let arm = test_arm().with_base(Pose::from_translation(Vec3::new(1.0, 0.0, 0.0)));
        let caps = arm.link_capsules(&JointConfig::ZERO, None);
        assert!((caps[0].segment.a - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-9);
        assert_eq!(arm.name(), "TestArm");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_held_object_rejected() {
        let _ = HeldObject::new(-0.01, 0.05);
    }
}

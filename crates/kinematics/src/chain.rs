//! Denavit–Hartenberg chains and forward kinematics.

#![allow(clippy::needless_range_loop)] // index-paired math over fixed-size arrays

use rabit_geometry::{Mat3, Pose, Vec3};
use std::fmt;

/// One revolute joint in standard Denavit–Hartenberg convention.
///
/// The transform from frame `i-1` to frame `i` for joint angle `θ` is
/// `RotZ(θ + theta_offset) · TransZ(d) · TransX(a) · RotX(alpha)`. A row is
/// plain data: the [`DhChain`] that holds it builds the transforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhParam {
    /// Link length `a` (metres).
    pub a: f64,
    /// Link offset `d` (metres).
    pub d: f64,
    /// Link twist `α` (radians).
    pub alpha: f64,
    /// Fixed offset added to the commanded joint angle (radians).
    pub theta_offset: f64,
}

impl DhParam {
    /// Creates a DH parameter row.
    pub const fn new(a: f64, d: f64, alpha: f64, theta_offset: f64) -> Self {
        DhParam {
            a,
            d,
            alpha,
            theta_offset,
        }
    }
}

/// Folds an angle (or angle difference) into `(-π, π]`.
///
/// This is the canonical representative of the angle on the circle: for a
/// joint whose limits span a full revolution, `wrap_to_pi(b - a)` is the
/// signed short-way-around move from `a` to `b`.
pub fn wrap_to_pi(angle: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let w = angle.rem_euclid(tau);
    if w > std::f64::consts::PI {
        w - tau
    } else {
        w
    }
}

/// Symmetric joint limits, radians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointLimits {
    /// Lower bound (radians).
    pub min: f64,
    /// Upper bound (radians).
    pub max: f64,
}

impl JointLimits {
    /// Creates joint limits.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min <= max, "joint limits inverted: [{min}, {max}]");
        JointLimits { min, max }
    }

    /// A full-revolution joint (±π).
    pub fn full_circle() -> Self {
        JointLimits::new(-std::f64::consts::PI, std::f64::consts::PI)
    }

    /// Returns `true` if these limits span a full revolution or more, i.e.
    /// the joint can reach every orientation and "the short way around" is
    /// always a legal motion. [`JointLimits::full_circle`] qualifies, as do
    /// the ±2π wrists of the UR presets.
    pub fn spans_full_circle(&self) -> bool {
        self.max - self.min >= std::f64::consts::TAU - 1e-9
    }

    /// Returns `true` if `angle` is inside the limits.
    pub fn contains(&self, angle: f64) -> bool {
        angle >= self.min && angle <= self.max
    }

    /// Clamps `angle` into the limits.
    pub fn clamp(&self, angle: f64) -> f64 {
        angle.clamp(self.min, self.max)
    }
}

/// A joint configuration for a 6-axis arm (radians).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JointConfig {
    angles: [f64; 6],
}

impl JointConfig {
    /// Creates a configuration from six joint angles (radians).
    pub const fn new(angles: [f64; 6]) -> Self {
        JointConfig { angles }
    }

    /// All-zero configuration.
    pub const ZERO: JointConfig = JointConfig { angles: [0.0; 6] };

    /// The joint angles.
    #[inline]
    pub fn angles(&self) -> &[f64; 6] {
        &self.angles
    }

    /// Angle of joint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 5`.
    #[inline]
    pub fn angle(&self, i: usize) -> f64 {
        self.angles[i]
    }

    /// Returns a copy with joint `i` set to `angle`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 5`.
    pub fn with_angle(mut self, i: usize, angle: f64) -> Self {
        self.angles[i] = angle;
        self
    }

    /// Component-wise linear interpolation: `self` at `t = 0`, `other` at
    /// `t = 1`. Joint-space interpolation is how RABIT's simulator models
    /// motion between waypoints.
    pub fn lerp(&self, other: &JointConfig, t: f64) -> JointConfig {
        let mut out = [0.0; 6];
        for i in 0..6 {
            out[i] = self.angles[i] + (other.angles[i] - self.angles[i]) * t;
        }
        JointConfig::new(out)
    }

    /// Limit-aware interpolation: like [`JointConfig::lerp`], but joints
    /// whose limits span a full circle ([`JointLimits::spans_full_circle`])
    /// take the short way around instead of winding the long way through
    /// joint space. The interpolated angle of a wrapping joint is folded
    /// back into `(-π, π]` so it stays inside `full_circle()` limits.
    ///
    /// Plain [`JointConfig::lerp`] is what executed trajectories use
    /// (controllers interpolate raw joint coordinates); this variant is for
    /// planning-side consumers that reason on the circle, such as the
    /// Lipschitz motion bound and its property tests.
    pub fn lerp_wrapped(
        &self,
        other: &JointConfig,
        t: f64,
        limits: &[JointLimits; 6],
    ) -> JointConfig {
        let mut out = [0.0; 6];
        for i in 0..6 {
            if limits[i].spans_full_circle() {
                let d = wrap_to_pi(other.angles[i] - self.angles[i]);
                out[i] = wrap_to_pi(self.angles[i] + d * t);
            } else {
                out[i] = self.angles[i] + (other.angles[i] - self.angles[i]) * t;
            }
        }
        JointConfig::new(out)
    }

    /// Limit-aware L∞ distance: like [`JointConfig::max_joint_delta`], but
    /// the delta of a joint whose limits span a full circle is wrapped into
    /// `[0, π]` — going from `-3` rad to `3` rad on a `full_circle()` joint
    /// is a 0.28 rad move, not a 6 rad one. Forward kinematics is 2π-periodic
    /// in every revolute joint, so the wrapped delta is the one that bounds
    /// Cartesian displacement between the two end configurations.
    pub fn max_joint_delta_wrapped(&self, other: &JointConfig, limits: &[JointLimits; 6]) -> f64 {
        let mut max = 0.0f64;
        for i in 0..6 {
            let raw = other.angles[i] - self.angles[i];
            let d = if limits[i].spans_full_circle() {
                wrap_to_pi(raw).abs()
            } else {
                raw.abs()
            };
            max = max.max(d);
        }
        max
    }

    /// L∞ distance in joint space (radians): the largest single-joint move.
    pub fn max_joint_delta(&self, other: &JointConfig) -> f64 {
        self.angles
            .iter()
            .zip(other.angles.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Euclidean norm of the joint-space difference.
    pub fn distance(&self, other: &JointConfig) -> f64 {
        self.angles
            .iter()
            .zip(other.angles.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Returns `true` if every angle is finite.
    pub fn is_finite(&self) -> bool {
        self.angles.iter().all(|a| a.is_finite())
    }
}

impl fmt::Display for JointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3}, {:.3}, {:.3}, {:.3}, {:.3}, {:.3}]",
            self.angles[0],
            self.angles[1],
            self.angles[2],
            self.angles[3],
            self.angles[4],
            self.angles[5]
        )
    }
}

impl From<[f64; 6]> for JointConfig {
    fn from(angles: [f64; 6]) -> Self {
        JointConfig::new(angles)
    }
}

/// A six-joint serial chain in DH convention, rooted at a base pose.
#[derive(Debug, Clone, PartialEq)]
pub struct DhChain {
    params: [DhParam; 6],
    /// Each row's constant twist terms `(cos α, sin α, −sin α)`, computed
    /// once in [`DhChain::new`].
    twists: [[f64; 3]; 6],
    base: Pose,
}

impl DhChain {
    /// Creates a chain from six DH rows, rooted at `base` (the arm's
    /// mounting pose in world/deck coordinates).
    pub fn new(params: [DhParam; 6], base: Pose) -> Self {
        let twists = params.map(|p| {
            let (s, c) = p.alpha.sin_cos();
            [c, s, -s]
        });
        DhChain {
            params,
            twists,
            base,
        }
    }

    /// The DH parameter rows.
    pub fn params(&self) -> &[DhParam; 6] {
        &self.params
    }

    /// The base (mounting) pose.
    pub fn base(&self) -> &Pose {
        &self.base
    }

    /// Replaces the base pose (e.g. to mount the same arm model at a
    /// different deck position).
    pub fn with_base(mut self, base: Pose) -> Self {
        self.base = base;
        self
    }

    /// Row `i`'s frame-to-frame transform for joint angle `theta`:
    /// `RotZ(θ + theta_offset) ∘ Trans(a, 0, d) ∘ RotX(alpha)` multiplied
    /// out in closed form around one `sin_cos`. Every forward-kinematics
    /// path builds its transforms here, so they agree bit for bit.
    ///
    /// Each entry keeps the one product that is not a multiply by an
    /// identity 0 or 1. The two pose compositions this replaces also add
    /// the zero products, and wherever the kept product is zero those
    /// sums come out `+0.0`, even when the product alone is `-0.0` (a
    /// summed angle `θ + theta_offset` of `-0.0`, `alpha = -0.0`,
    /// `a = -0.0`, ...). `x + 0.0` is `x`
    /// for every non-zero `x` and `+0.0` for either zero, so each `+ 0.0`
    /// below reproduces that sign: for finite angles the result is
    /// bit-identical to the composition (the `dh_formula` test
    /// reference), signed zeros included. The entries `c`, `c·cα` and `cα`
    /// need no such term: the cosine of a finite angle is never zero, and
    /// the product of two is far above the underflow threshold.
    #[inline]
    pub(crate) fn frame_transform(&self, i: usize, theta: f64) -> Pose {
        let p = &self.params[i];
        let [ca, sa, nsa] = self.twists[i];
        let (s, c) = (theta + p.theta_offset).sin_cos();
        Pose::new(
            Mat3::from_rows([
                [c, -s * ca + 0.0, -s * nsa + 0.0],
                [s + 0.0, c * ca, c * nsa + 0.0],
                [0.0, sa + 0.0, ca],
            ]),
            Vec3::new(c * p.a + 0.0, s * p.a + 0.0, p.d + 0.0),
        )
    }

    /// Forward kinematics: the world-space pose of every joint frame,
    /// **including** the base frame at index 0. The end-effector frame is
    /// the last element (index 6).
    pub fn joint_poses(&self, angles: &[f64; 6]) -> [Pose; 7] {
        let mut out = [Pose::IDENTITY; 7];
        out[0] = self.base;
        let mut acc = self.base;
        for (i, &theta) in angles.iter().enumerate() {
            acc = acc.compose(&self.frame_transform(i, theta));
            out[i + 1] = acc;
        }
        out
    }

    /// Batched forward kinematics over a window of configurations.
    ///
    /// Clears `out` and fills it with `joint_poses(configs[k])` for every
    /// config in the window, without per-call allocation once `out` has
    /// warmed up. The evaluation is column-major (one joint across the whole
    /// window at a time), so a joint whose angle is constant across the
    /// window — bitwise-identical in every config, common when only a few
    /// joints move along a trajectory — has its frame transform (and the
    /// trig inside it) computed once and reused for every config.
    ///
    /// The composition order is exactly that of [`DhChain::joint_poses`], so
    /// the resulting poses are bit-identical to per-config evaluation.
    pub fn joint_poses_batch(&self, configs: &[JointConfig], out: &mut Vec<[Pose; 7]>) {
        out.clear();
        if configs.is_empty() {
            return;
        }
        out.resize(configs.len(), [Pose::IDENTITY; 7]);
        for o in out.iter_mut() {
            o[0] = self.base;
        }
        for i in 0..6 {
            let theta0 = configs[0].angle(i);
            let shared = if configs
                .iter()
                .all(|c| c.angle(i).to_bits() == theta0.to_bits())
            {
                Some(self.frame_transform(i, theta0))
            } else {
                None
            };
            for (o, c) in out.iter_mut().zip(configs.iter()) {
                let step = match &shared {
                    Some(t) => *t,
                    None => self.frame_transform(i, c.angle(i)),
                };
                o[i + 1] = o[i].compose(&step);
            }
        }
    }

    /// Forward kinematics: the world-space end-effector pose.
    pub fn end_effector_pose(&self, angles: &[f64; 6]) -> Pose {
        self.joint_poses(angles)[6]
    }

    /// World-space positions of the joint origins (7 points, base first).
    pub fn joint_positions(&self, angles: &[f64; 6]) -> [Vec3; 7] {
        let poses = self.joint_poses(angles);
        let mut out = [Vec3::ZERO; 7];
        for (o, p) in out.iter_mut().zip(poses.iter()) {
            *o = p.translation;
        }
        out
    }

    /// Maximum reach: the sum of all link lengths and offsets. Any target
    /// farther than this from the base is provably infeasible — the check
    /// behind the paper's "very high, clearly infeasible position" scenario.
    pub fn max_reach(&self) -> f64 {
        self.params
            .iter()
            .map(|p| (p.a * p.a + p.d * p.d).sqrt())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    /// A simple planar 2-link-dominant chain for hand-checkable FK:
    /// joint 1 lifts by d, links 2 and 3 extend along X.
    fn simple_chain() -> DhChain {
        DhChain::new(
            [
                DhParam::new(0.0, 0.2, 0.0, 0.0),
                DhParam::new(0.3, 0.0, 0.0, 0.0),
                DhParam::new(0.25, 0.0, 0.0, 0.0),
                DhParam::new(0.0, 0.0, 0.0, 0.0),
                DhParam::new(0.0, 0.0, 0.0, 0.0),
                DhParam::new(0.0, 0.05, 0.0, 0.0),
            ],
            Pose::IDENTITY,
        )
    }

    #[test]
    fn zero_configuration_extends_along_x() {
        let c = simple_chain();
        let ee = c.end_effector_pose(&[0.0; 6]);
        // a-sum along X = 0.55; d-sum along Z = 0.25.
        assert!((ee.translation - Vec3::new(0.55, 0.0, 0.25)).norm() < 1e-12);
    }

    #[test]
    fn base_joint_rotation_swings_the_arm() {
        let c = simple_chain();
        let ee = c.end_effector_pose(&[FRAC_PI_2, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((ee.translation - Vec3::new(0.0, 0.55, 0.25)).norm() < 1e-12);
    }

    #[test]
    fn joint_poses_are_cumulative() {
        let c = simple_chain();
        let poses = c.joint_poses(&[0.0; 6]);
        assert_eq!(poses[0], Pose::IDENTITY);
        assert!((poses[1].translation - Vec3::new(0.0, 0.0, 0.2)).norm() < 1e-12);
        assert!((poses[2].translation - Vec3::new(0.3, 0.0, 0.2)).norm() < 1e-12);
        assert!((poses[3].translation - Vec3::new(0.55, 0.0, 0.2)).norm() < 1e-12);
        assert!((poses[6].translation - Vec3::new(0.55, 0.0, 0.25)).norm() < 1e-12);
    }

    #[test]
    fn base_pose_offsets_everything() {
        let base = Pose::from_translation(Vec3::new(1.0, 2.0, 0.0));
        let c = simple_chain().with_base(base);
        let ee = c.end_effector_pose(&[0.0; 6]);
        assert!((ee.translation - Vec3::new(1.55, 2.0, 0.25)).norm() < 1e-12);
        let pts = c.joint_positions(&[0.0; 6]);
        assert!((pts[0] - Vec3::new(1.0, 2.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn max_reach_bounds_end_effector_distance() {
        let c = simple_chain();
        let reach = c.max_reach();
        for k in 0..50 {
            let t = k as f64 * 0.37;
            let q = [t.sin(), (2.0 * t).cos(), t, -t, 0.5 * t, t.cos()];
            let ee = c.end_effector_pose(&q);
            assert!(
                ee.translation.distance(c.base().translation) <= reach + 1e-9,
                "config {q:?} exceeds reach"
            );
        }
    }

    /// Row 0's transform of a chain whose rows all equal `p`.
    fn row_transform(p: DhParam, theta: f64) -> Pose {
        DhChain::new([p; 6], Pose::IDENTITY).frame_transform(0, theta)
    }

    #[test]
    fn dh_transform_components() {
        // Pure rotation row.
        let t = row_transform(DhParam::new(0.0, 0.0, 0.0, 0.0), FRAC_PI_2);
        assert!((t.transform_point(Vec3::X) - Vec3::Y).norm() < 1e-12);
        // Pure translation row.
        let t = row_transform(DhParam::new(0.1, 0.2, 0.0, 0.0), 0.0);
        assert!((t.translation - Vec3::new(0.1, 0.0, 0.2)).norm() < 1e-12);
        // Twist row maps Y to Z.
        let t = row_transform(DhParam::new(0.0, 0.0, FRAC_PI_2, 0.0), 0.0);
        assert!((t.transform_vector(Vec3::Y) - Vec3::Z).norm() < 1e-12);
        // Theta offset acts like a joint angle.
        let t = row_transform(DhParam::new(0.0, 0.0, 0.0, FRAC_PI_2), 0.0);
        assert!((t.transform_vector(Vec3::X) - Vec3::Y).norm() < 1e-12);
    }

    /// The row transform as the two pose compositions it is defined by:
    /// the reference for the closed form of [`DhChain::frame_transform`].
    fn dh_formula(p: &DhParam, theta: f64) -> Pose {
        let rot_z = Pose::from_rotation(Mat3::rotation_z(theta + p.theta_offset));
        let trans = Pose::from_translation(Vec3::new(p.a, 0.0, p.d));
        let rot_x = Pose::from_rotation(Mat3::rotation_x(p.alpha));
        rot_z.compose(&trans).compose(&rot_x)
    }

    fn pose_bits(p: &Pose) -> [u64; 12] {
        let mut out = [0; 12];
        for r in 0..3 {
            for c in 0..3 {
                out[3 * r + c] = p.rotation.get(r, c).to_bits();
            }
        }
        out[9] = p.translation.x.to_bits();
        out[10] = p.translation.y.to_bits();
        out[11] = p.translation.z.to_bits();
        out
    }

    #[test]
    fn frame_transform_is_bit_identical_to_the_dh_formula() {
        use crate::presets;
        let mut rng = rabit_util::Rng::seed_from_u64(0xD4);
        for arm in [
            presets::ur3e(),
            presets::ur5e(),
            presets::viperx300(),
            presets::ned2(),
        ] {
            let chain = arm.chain();
            for (i, p) in chain.params().iter().enumerate() {
                let l = arm.limits()[i];
                for k in 0..500 {
                    let theta = match k {
                        0 => 0.0,
                        1 => l.min,
                        2 => l.max,
                        _ => rng.random_range(l.min..l.max),
                    };
                    assert_eq!(
                        pose_bits(&chain.frame_transform(i, theta)),
                        pose_bits(&dh_formula(p, theta)),
                        "{} row {i} at {theta}",
                        arm.name()
                    );
                }
            }
        }
    }

    /// The closed form's signed-zero corners: synthetic rows whose
    /// lengths, twist and offset are zeros of either sign, tiny, or put
    /// a sine or cosine at an exact zero, at joint angles that make the
    /// summed angle `θ' = θ + theta_offset` a zero of either sign, a
    /// subnormal, `±π`, or one of a sweep of ordinary values. Bits are
    /// claimed for finite angles only; a NaN or infinite angle yields a
    /// NaN either way, but not necessarily the same NaN bits.
    #[test]
    fn frame_transform_keeps_signed_zeros_of_the_dh_formula() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let lengths = [0.0, -0.0, 0.1, -0.1, 1e-300];
        let alphas = [0.0, -0.0, FRAC_PI_2, -FRAC_PI_2, PI, -PI, 0.3];
        let offsets = [0.0, -0.0, FRAC_PI_2, -FRAC_PI_2, PI];
        let mut checked = 0;
        for a in lengths {
            for d in lengths {
                for alpha in alphas {
                    for offset in offsets {
                        let p = DhParam::new(a, d, alpha, offset);
                        let chain = DhChain::new([p; 6], Pose::IDENTITY);
                        let corners = [0.0, -0.0, -offset, PI, -PI, 1e-310, -1e-310];
                        let sweep = (-16..=16).map(|k| k as f64 * PI / 8.0 + 0.01);
                        for theta in corners.into_iter().chain(sweep) {
                            assert_eq!(
                                pose_bits(&chain.frame_transform(0, theta)),
                                pose_bits(&dh_formula(&p, theta)),
                                "a {a:e} d {d:e} alpha {alpha} offset {offset} theta {theta:e}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 5 * 5 * 7 * 5 * 40);
    }

    #[test]
    fn joint_config_operations() {
        let a = JointConfig::ZERO;
        let b = JointConfig::new([1.0, -1.0, 0.5, 0.0, 2.0, -0.5]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5).angle(0), 0.5);
        assert_eq!(a.max_joint_delta(&b), 2.0);
        assert!((a.distance(&b) - (1.0f64 + 1.0 + 0.25 + 4.0 + 0.25).sqrt()).abs() < 1e-12);
        assert_eq!(b.with_angle(0, 9.0).angle(0), 9.0);
        assert!(b.is_finite());
        assert!(!b.with_angle(3, f64::NAN).is_finite());
        let c: JointConfig = [0.1; 6].into();
        assert_eq!(c.angle(5), 0.1);
        assert!(!format!("{b}").is_empty());
    }

    #[test]
    fn wrap_to_pi_folds_into_half_open_pi_interval() {
        use std::f64::consts::PI;
        assert_eq!(wrap_to_pi(0.0), 0.0);
        assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(wrap_to_pi(PI), PI);
        assert!((wrap_to_pi(-PI) - PI).abs() < 1e-12); // -π maps to the +π representative
        assert!((wrap_to_pi(6.0) - (6.0 - 2.0 * PI)).abs() < 1e-12);
        assert!((wrap_to_pi(-6.0) - (2.0 * PI - 6.0)).abs() < 1e-12);
        assert!((wrap_to_pi(7.0) - (7.0 - 2.0 * PI)).abs() < 1e-12);
    }

    /// Pins the satellite fix: on a `full_circle()` joint the interpolation
    /// takes the short way around and the delta wraps, while bounded joints
    /// keep the plain component-wise behaviour.
    #[test]
    fn wrapped_lerp_takes_the_short_way_on_full_circle_joints() {
        use std::f64::consts::PI;
        let mut limits = [JointLimits::new(-PI, PI); 6];
        limits[1] = JointLimits::new(-1.5, 1.5); // bounded elbow: no wrapping
        let a = JointConfig::new([3.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let b = JointConfig::new([-3.0, -1.0, 0.0, 0.0, 0.0, 0.0]);

        // Joint 0 goes 3.0 → -3.0 the short way: through π, not through 0.
        let mid = a.lerp_wrapped(&b, 0.5, &limits);
        assert!(
            mid.angle(0).abs() > 3.0,
            "short way passes near ±π, got {}",
            mid.angle(0)
        );
        // Endpoints are recovered (up to the fold into (-π, π]).
        assert!((a.lerp_wrapped(&b, 0.0, &limits).angle(0) - 3.0).abs() < 1e-12);
        assert!((a.lerp_wrapped(&b, 1.0, &limits).angle(0) - (-3.0)).abs() < 1e-9);
        // Every intermediate angle stays inside the declared limits.
        for k in 0..=20 {
            let q = a.lerp_wrapped(&b, k as f64 / 20.0, &limits);
            for i in 0..6 {
                assert!(
                    limits[i].contains(q.angle(i)),
                    "t={k} joint {i}: {}",
                    q.angle(i)
                );
            }
        }
        // The bounded joint interpolates exactly like plain lerp.
        assert_eq!(mid.angle(1), a.lerp(&b, 0.5).angle(1));

        // Deltas: wrapped on joint 0 (2π - 6 ≈ 0.283), raw on joint 1 (2.0).
        let wrapped = a.max_joint_delta_wrapped(&b, &limits);
        assert!(
            (wrapped - 2.0).abs() < 1e-12,
            "bounded joint dominates: {wrapped}"
        );
        let only_j0 = JointConfig::new([3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            .max_joint_delta_wrapped(&JointConfig::new([-3.0, 0.0, 0.0, 0.0, 0.0, 0.0]), &limits);
        assert!((only_j0 - (2.0 * PI - 6.0)).abs() < 1e-12);
        // Plain delta still reports the long way (pinned by joint_config_operations).
        assert_eq!(a.max_joint_delta(&b), 6.0);
        assert!(limits[0].spans_full_circle());
        assert!(!limits[1].spans_full_circle());
        assert!(JointLimits::new(-2.0 * PI, 2.0 * PI).spans_full_circle());
    }

    #[test]
    fn batched_fk_is_bit_identical_to_scalar_fk() {
        let c = simple_chain();
        // A window where joints 0, 3, 4 are constant (trig reuse path) and
        // the rest vary per sample.
        let configs: Vec<JointConfig> = (0..9)
            .map(|k| {
                let t = k as f64 * 0.17;
                JointConfig::new([0.4, t.sin(), 0.3 * t, -1.2, 0.0, t.cos()])
            })
            .collect();
        let mut batch = Vec::new();
        c.joint_poses_batch(&configs, &mut batch);
        assert_eq!(batch.len(), configs.len());
        for (q, poses) in configs.iter().zip(batch.iter()) {
            let scalar = c.joint_poses(q.angles());
            for i in 0..7 {
                assert_eq!(poses[i], scalar[i], "pose {i} differs for {q}");
            }
        }
        // Empty window clears the buffer.
        c.joint_poses_batch(&[], &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn joint_limits() {
        let l = JointLimits::new(-1.0, 2.0);
        assert!(l.contains(0.0));
        assert!(!l.contains(2.1));
        assert_eq!(l.clamp(-5.0), -1.0);
        assert_eq!(l.clamp(5.0), 2.0);
        assert!(JointLimits::full_circle().contains(3.0));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_limits_panic() {
        let _ = JointLimits::new(1.0, -1.0);
    }
}

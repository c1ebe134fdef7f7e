//! Lipschitz motion bounds for conservative-advancement trajectory sweeps.
//!
//! The Extended Simulator polls a trajectory on a dense time grid and
//! collision-checks the arm capsules at every sample. Most samples are
//! metres from the nearest obstacle, so the adaptive sweep kernel skips
//! them — but only when it can *prove* the skip is safe. The proof obliges
//! a bound on how far any point of any link capsule can travel between two
//! joint configurations, and that bound is what [`MotionBound`] precomputes
//! from an arm's DH parameters.
//!
//! # The bound
//!
//! Joint `j` rotates everything downstream about an axis through joint
//! origin `pts[j]`. A point at distance `ρ` from the axis moves along a
//! chord of length `2ρ·sin(|Δθ|/2) ≤ ρ·|Δθ|`. Each capsule endpoint
//! `pts[m]` lies within `Σ_{k=j}^{m-1} L_k` of `pts[j]` (where
//! `L_k = √(a_k² + d_k²)` is the rigid length of DH row `k`), so per radian
//! of joint `j`, endpoint `pts[m]` moves at most that far. Changing several
//! joints composes sequentially, and the per-joint radii are
//! config-independent, so for capsule `ℓ`:
//!
//! ```text
//! endpoint displacement(q_a → q_b) ≤ Σ_j reach[j][ℓ] · |Δθ_j|
//! ```
//!
//! The capsule *radius* does not appear: a capsule is the union of balls of
//! radius `r` centred on its segment, so if each segment endpoint moves at
//! most `B`, every surface point of the displaced capsule stays within `B`
//! of the original capsule *as a set* — which is exactly what the clearance
//! argument needs (see DESIGN.md §14).
#![allow(clippy::needless_range_loop)] // index-paired math over fixed-size arrays

use crate::chain::{wrap_to_pi, JointConfig};

/// Number of capsules an [`crate::ArmModel`] occupies: six links plus the
/// gripper (optionally extended by a held object).
pub const CAPSULE_COUNT: usize = 7;

/// Precomputed per-arm Lipschitz bound on Cartesian capsule displacement
/// per radian of each joint. Built by [`crate::ArmModel::motion_bound`];
/// consumed by the adaptive sweep kernel in `rabit-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionBound {
    /// `reach[j][l]`: max displacement (metres) of any point of capsule `l`
    /// per radian of joint `j`. Zero when joint `j` is distal to capsule `l`.
    reach: [[f64; CAPSULE_COUNT]; 6],
    /// Per-joint flag: limits span a full circle, so deltas may wrap.
    wraps: [bool; 6],
}

impl MotionBound {
    /// Assembles a bound from a precomputed reach matrix and per-joint wrap
    /// flags (see [`crate::JointLimits::spans_full_circle`]).
    pub fn new(reach: [[f64; CAPSULE_COUNT]; 6], wraps: [bool; 6]) -> Self {
        MotionBound { reach, wraps }
    }

    /// Reach entry: metres of capsule-`capsule` motion per radian of joint
    /// `joint`.
    ///
    /// # Panics
    ///
    /// Panics if `joint > 5` or `capsule > 6`.
    #[inline]
    pub fn reach(&self, joint: usize, capsule: usize) -> f64 {
        self.reach[joint][capsule]
    }

    /// The per-joint reach over the whole arm: the largest entry in joint
    /// `joint`'s row (`reach_i` in the `max_move` inequality).
    ///
    /// # Panics
    ///
    /// Panics if `joint > 5`.
    pub fn joint_reach(&self, joint: usize) -> f64 {
        self.reach[joint].iter().fold(0.0, |m, r| m.max(*r))
    }

    /// Upper bound on the displacement of any point of capsule `capsule`
    /// given per-joint *absolute* angle deltas (radians).
    ///
    /// The deltas must soundly cover the motion being bounded: for the
    /// displacement between two end configurations, wrapped deltas are fine
    /// (FK is 2π-periodic); for motion along an executed trajectory — which
    /// interpolates raw joint coordinates and may take the long way around —
    /// pass the accumulated *raw* per-joint variation instead.
    ///
    /// # Panics
    ///
    /// Panics if `capsule > 6`.
    #[inline]
    pub fn capsule_bound(&self, capsule: usize, abs_deltas: &[f64; 6]) -> f64 {
        let mut sum = 0.0;
        for j in 0..6 {
            sum += self.reach[j][capsule] * abs_deltas[j];
        }
        sum
    }

    /// Per-joint absolute deltas between two configurations, wrapped into
    /// `[0, π]` on joints whose limits span a full circle.
    pub fn abs_deltas(&self, a: &JointConfig, b: &JointConfig) -> [f64; 6] {
        let mut out = [0.0; 6];
        for j in 0..6 {
            let raw = b.angle(j) - a.angle(j);
            out[j] = if self.wraps[j] {
                wrap_to_pi(raw).abs()
            } else {
                raw.abs()
            };
        }
        out
    }

    /// Upper bound on the displacement of any point of *any* capsule given
    /// per-joint absolute angle deltas — the whole-arm analogue of
    /// [`MotionBound::capsule_bound`].
    ///
    /// The same delta-soundness caveat as [`MotionBound::capsule_bound`]
    /// applies: pass accumulated raw variation when bounding motion along
    /// an executed trajectory.
    #[inline]
    pub fn whole_arm_bound(&self, abs_deltas: &[f64; 6]) -> f64 {
        (0..CAPSULE_COUNT).fold(0.0, |max, l| max.max(self.capsule_bound(l, abs_deltas)))
    }

    /// Sound upper bound on how far *any* point of *any* capsule travels
    /// between configurations `a` and `b`:
    /// `max_move(q_a, q_b) ≤ Σ_i reach_i · |Δθ_i|`, with wrapped deltas on
    /// full-circle joints (forward kinematics is 2π-periodic, so the wrapped
    /// delta bounds the end-to-end displacement).
    pub fn max_move(&self, a: &JointConfig, b: &JointConfig) -> f64 {
        self.whole_arm_bound(&self.abs_deltas(a, b))
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;
    use crate::JointConfig;

    #[test]
    fn reach_matrix_shape() {
        let arm = presets::viperx300();
        let mb = arm.motion_bound(None);
        for j in 0..6 {
            // Distal joints cannot move proximal capsules.
            for l in 0..j {
                assert_eq!(mb.reach(j, l), 0.0, "joint {j} capsule {l}");
            }
            // Rows shrink as the joint moves distally: less arm downstream.
            if j > 0 {
                for l in 0..7 {
                    assert!(mb.reach(j, l) <= mb.reach(j - 1, l) + 1e-12);
                }
            }
            // The gripper capsule is the farthest-reaching row entry.
            assert_eq!(mb.joint_reach(j), mb.reach(j, 6));
        }
        // Base joint over the gripper capsule sees the whole arm.
        assert!(mb.joint_reach(0) > 0.5);
    }

    #[test]
    fn held_object_extends_the_bound() {
        let arm = presets::ur3e();
        let bare = arm.motion_bound(None);
        let held = arm.motion_bound(Some(&crate::HeldObject::vial()));
        for j in 0..6 {
            assert!(held.reach(j, 6) > bare.reach(j, 6));
            // Link capsules are unaffected by the payload.
            for l in 0..6 {
                assert_eq!(held.reach(j, l), bare.reach(j, l));
            }
        }
    }

    #[test]
    fn max_move_is_zero_for_identical_configs_and_wraps() {
        let arm = presets::viperx300();
        let mb = arm.motion_bound(None);
        let q = JointConfig::new([0.3, -0.8, 0.4, 1.0, -0.2, 2.0]);
        assert_eq!(mb.max_move(&q, &q), 0.0);
        // ViperX base is full-circle: 3.0 → -3.0 is a short move, not ~6 rad.
        let a = JointConfig::new([3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = JointConfig::new([-3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let wrapped = 2.0 * std::f64::consts::PI - 6.0;
        assert!((mb.max_move(&a, &b) - mb.joint_reach(0) * wrapped).abs() < 1e-9);
    }
}

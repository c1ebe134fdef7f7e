//! Inverse kinematics: damped-least-squares position IK.
//!
//! RABIT replays *move to location* commands; the arm controller must turn
//! a Cartesian target into joint angles. This module provides the numeric
//! IK the simulated arms use, with the two failure behaviours the paper
//! observed for infeasible targets (§IV, category 4):
//!
//! * ViperX "failed to compute the trajectory and **silently ignored** the
//!   command";
//! * Ned2 "**throws an exception** and halts immediately".
//!
//! Both behaviours are driven by the same [`IkError`]; the arm wrappers in
//! the stage crates decide whether to surface or swallow it.

#![allow(clippy::needless_range_loop)] // index-paired math over fixed-size arrays

use crate::arm::ArmModel;
use crate::chain::JointConfig;
use rabit_geometry::{Pose, Vec3};

/// Why inverse kinematics failed.
#[derive(Debug, Clone, PartialEq)]
pub enum IkError {
    /// The target is farther than the arm can reach; no solution exists.
    OutOfReach {
        /// Distance from the base to the target (metres).
        distance: f64,
        /// The arm's maximum reach (metres).
        max_reach: f64,
    },
    /// Iteration did not converge within the tolerance (target may be
    /// reachable but awkward, or in a singular region).
    NotConverged {
        /// Residual position error after the final iteration (metres).
        residual: f64,
    },
    /// The target contains non-finite coordinates.
    InvalidTarget,
}

impl std::fmt::Display for IkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IkError::OutOfReach {
                distance,
                max_reach,
            } => write!(
                f,
                "target {distance:.3} m from base exceeds reach {max_reach:.3} m"
            ),
            IkError::NotConverged { residual } => {
                write!(f, "IK did not converge; residual {residual:.4} m")
            }
            IkError::InvalidTarget => write!(f, "target position is not finite"),
        }
    }
}

impl std::error::Error for IkError {}

/// Maximum DLS iterations per descent.
const MAX_ITERS: usize = 200;
/// Convergence tolerance on position error (metres).
const TOLERANCE: f64 = 1e-4;
/// Damping factor λ for the damped-least-squares step.
const DAMPING: f64 = 0.05;

/// Solves position-only IK: find joint angles whose tool position reaches
/// `target`, starting the iteration from `seed`.
///
/// Each damped-least-squares iteration (`Δq = Jᵀ (J Jᵀ + λ² I)⁻¹ e`)
/// makes one forward-kinematics pass, takes the tool position and the
/// analytic 3×6 position Jacobian from it, and clamps the step into the
/// joint limits.
///
/// # Errors
///
/// * [`IkError::InvalidTarget`] for non-finite targets;
/// * [`IkError::OutOfReach`] when the target provably exceeds the arm's
///   reach (checked before iterating);
/// * [`IkError::NotConverged`] when iteration stalls.
pub fn solve_position(
    arm: &ArmModel,
    seed: &JointConfig,
    target: Vec3,
) -> Result<JointConfig, IkError> {
    if !target.is_finite() {
        return Err(IkError::InvalidTarget);
    }
    let base = arm.chain().base().translation;
    let distance = base.distance(target);
    let max_reach = arm.max_reach();
    if distance > max_reach {
        return Err(IkError::OutOfReach {
            distance,
            max_reach,
        });
    }

    // Multi-start: DLS with joint-limit clamping can pin against a limit.
    // Retry from deterministic perturbations of the seed before giving up.
    let mut best: Result<JointConfig, IkError> = Err(IkError::NotConverged {
        residual: f64::INFINITY,
    });
    for restart in 0..5u32 {
        let mut start = *seed;
        if restart > 0 {
            for i in 0..6 {
                // ±0.4/0.8 rad wiggles, alternating sign per joint/restart.
                let sign = if (i + restart as usize).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let mag = 0.4 * restart as f64;
                start = start.with_angle(i, arm.limits()[i].clamp(start.angle(i) + sign * mag));
            }
        }
        match solve_from(arm, &start, target) {
            Ok(q) => return Ok(q),
            Err(e) => {
                let keep = match (&best, &e) {
                    (
                        Err(IkError::NotConverged { residual: old }),
                        IkError::NotConverged { residual: new },
                    ) => new < old,
                    _ => false,
                };
                if keep
                    || matches!(best, Err(IkError::NotConverged { residual }) if residual.is_infinite())
                {
                    best = Err(e);
                }
            }
        }
    }
    best
}

/// A single DLS descent from one seed.
fn solve_from(arm: &ArmModel, seed: &JointConfig, target: Vec3) -> Result<JointConfig, IkError> {
    let mut q = *seed;
    let mut best_q = q;
    let mut best_err = f64::INFINITY;

    for _ in 0..MAX_ITERS {
        let poses = arm.chain().joint_poses(q.angles());
        let current = arm.tool_point(&poses[6]);
        let e = target - current;
        let err = e.norm();
        if err < best_err {
            best_err = err;
            best_q = q;
        }
        if err <= TOLERANCE {
            return Ok(q);
        }

        let jac = position_jacobian(&poses, current);
        // Error-adaptive damping: heavy far from the target (stability),
        // light near it (fast convergence instead of stalling).
        let lambda = (DAMPING * err / (err + 0.02)).max(1e-4);
        let dq = dls_step(&jac, e, lambda);

        let mut next = q;
        for i in 0..6 {
            let a = arm.limits()[i].clamp(q.angle(i) + dq[i]);
            next = next.with_angle(i, a);
        }
        // Stalled (e.g. pinned at joint limits): stop early.
        if next.max_joint_delta(&q) < 1e-12 {
            break;
        }
        q = next;
    }

    if best_err <= TOLERANCE {
        Ok(best_q)
    } else {
        Err(IkError::NotConverged { residual: best_err })
    }
}

/// The analytic 3×6 position Jacobian of the point `tool` carried by the
/// end effector, from one pass of [`DhChain::joint_poses`](crate::DhChain::joint_poses).
/// Joint `j` turns about the z axis of prefix pose `j` (`poses[0]` is the
/// base) through that pose's origin, so column `j` is `z_j × (tool − o_j)`.
fn position_jacobian(poses: &[Pose; 7], tool: Vec3) -> [[f64; 6]; 3] {
    let mut jac = [[0.0; 6]; 3];
    for j in 0..6 {
        let axis = poses[j].rotation.column(2);
        let grad = axis.cross(tool - poses[j].translation);
        jac[0][j] = grad.x;
        jac[1][j] = grad.y;
        jac[2][j] = grad.z;
    }
    jac
}

/// One damped-least-squares step: `Δq = Jᵀ (J Jᵀ + λ² I)⁻¹ e`.
fn dls_step(jac: &[[f64; 6]; 3], e: Vec3, damping: f64) -> [f64; 6] {
    // A = J Jᵀ + λ² I  (3×3 symmetric positive definite).
    let mut a = [[0.0f64; 3]; 3];
    for r in 0..3 {
        for c in 0..3 {
            let mut s = 0.0;
            for k in 0..6 {
                s += jac[r][k] * jac[c][k];
            }
            a[r][c] = s;
        }
        a[r][r] += damping * damping;
    }
    let y = solve3(&a, [e.x, e.y, e.z]);
    // Δq = Jᵀ y.
    let mut dq = [0.0; 6];
    for (j, out) in dq.iter_mut().enumerate() {
        *out = jac[0][j] * y[0] + jac[1][j] * y[1] + jac[2][j] * y[2];
    }
    dq
}

/// Solves a 3×3 linear system with partial-pivot Gaussian elimination.
/// The DLS matrix is SPD so the system is always solvable.
fn solve3(a: &[[f64; 3]; 3], b: [f64; 3]) -> [f64; 3] {
    let mut m = [[0.0f64; 4]; 3];
    for r in 0..3 {
        m[r][..3].copy_from_slice(&a[r]);
        m[r][3] = b[r];
    }
    for col in 0..3 {
        // Pivot.
        let piv = (col..3)
            .max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))
            .unwrap();
        m.swap(col, piv);
        let p = m[col][col];
        for r in 0..3 {
            if r != col && p.abs() > 0.0 {
                let f = m[r][col] / p;
                for c in col..4 {
                    m[r][c] -= f * m[col][c];
                }
            }
        }
    }
    let mut x = [0.0; 3];
    for r in 0..3 {
        x[r] = if m[r][r].abs() > 0.0 {
            m[r][3] / m[r][r]
        } else {
            0.0
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn reaches_a_nearby_target() {
        let arm = presets::ur3e();
        let seed = arm.home_configuration();
        let start = arm.tool_position(&seed);
        let target = start + Vec3::new(0.05, -0.04, 0.03);
        let q = solve_position(&arm, &seed, target).unwrap();
        assert!(arm.tool_position(&q).distance(target) < 1e-3);
        assert!(arm.within_limits(&q));
    }

    #[test]
    fn reaches_a_grid_pickup_position() {
        let arm = presets::viperx300();
        let seed = arm.home_configuration();
        // The Fig. 6 ViperX grid pickup location.
        let target = Vec3::new(0.537, 0.018, 0.12);
        let q = solve_position(&arm, &seed, target).unwrap();
        assert!(arm.tool_position(&q).distance(target) < 1e-3);
    }

    #[test]
    fn out_of_reach_is_reported_before_iterating() {
        let arm = presets::ned2();
        let target = Vec3::new(5.0, 5.0, 5.0); // "very high, clearly infeasible"
        let err = solve_position(&arm, &arm.home_configuration(), target).unwrap_err();
        match err {
            IkError::OutOfReach {
                distance,
                max_reach,
            } => {
                assert!(distance > max_reach);
            }
            other => panic!("expected OutOfReach, got {other:?}"),
        }
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn invalid_target_rejected() {
        let arm = presets::ur3e();
        let err = solve_position(
            &arm,
            &arm.home_configuration(),
            Vec3::new(f64::NAN, 0.0, 0.0),
        )
        .unwrap_err();
        assert_eq!(err, IkError::InvalidTarget);
    }

    #[test]
    fn unreachable_but_within_sphere_does_not_converge() {
        let arm = presets::ur3e();
        // Directly inside the base column: within the reach sphere but not
        // attainable by the tool without self-intersection of the model's
        // kinematics; expect a NotConverged (or a solve, depending on
        // geometry) — assert it never returns a config that misses.
        let target = arm.chain().base().translation + Vec3::new(0.0, 0.0, -0.5);
        match solve_position(&arm, &arm.home_configuration(), target) {
            Ok(q) => assert!(arm.tool_position(&q).distance(target) < 1e-3),
            Err(IkError::NotConverged { residual }) => assert!(residual > 0.0),
            Err(IkError::OutOfReach { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn solve3_solves_spd_system() {
        let a = [[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]];
        let b = [1.0, 2.0, 3.0];
        let x = solve3(&a, b);
        for r in 0..3 {
            let got: f64 = (0..3).map(|c| a[r][c] * x[c]).sum();
            assert!((got - b[r]).abs() < 1e-9);
        }
    }

    #[test]
    fn jacobian_matches_finite_difference_of_tool_position() {
        let arm = presets::ur3e();
        let q = arm.home_configuration();
        let jac = position_jacobian(&arm.chain().joint_poses(q.angles()), arm.tool_position(&q));
        // Column 0 should predict the motion caused by a small joint-0 turn.
        let dq = 1e-4;
        let q2 = q.with_angle(0, q.angle(0) + dq);
        let moved = arm.tool_position(&q2) - arm.tool_position(&q);
        let predicted = Vec3::new(jac[0][0], jac[1][0], jac[2][0]) * dq;
        assert!((moved - predicted).norm() < 1e-6);
    }

    /// The Jacobian by central differences over twelve full
    /// forward-kinematics passes, at a step of 1e-6 rad: the reference
    /// the analytic Jacobian must match.
    fn reference_position_jacobian(arm: &ArmModel, q: &JointConfig) -> [[f64; 6]; 3] {
        let h = 1e-6;
        let mut jac = [[0.0; 6]; 3];
        for j in 0..6 {
            let qp = q.with_angle(j, q.angle(j) + h);
            let qm = q.with_angle(j, q.angle(j) - h);
            let dp = arm.tool_position(&qp);
            let dm = arm.tool_position(&qm);
            let grad = (dp - dm) / (2.0 * h);
            jac[0][j] = grad.x;
            jac[1][j] = grad.y;
            jac[2][j] = grad.z;
        }
        jac
    }

    /// The tool position of one pass is bit-identical to
    /// [`ArmModel::tool_position`], and the analytic Jacobian agrees with
    /// central differences to within 1e-8 in every entry (the largest
    /// difference over these configurations is 2.6e-10: the differences'
    /// truncation and rounding error).
    #[test]
    fn analytic_jacobian_matches_central_differences() {
        let mut rng = rabit_util::Rng::seed_from_u64(0x1C_0DE);
        for arm in [
            presets::ur3e(),
            presets::ur5e(),
            presets::viperx300(),
            presets::ned2(),
        ] {
            for _ in 0..5_000 {
                // A configuration drawn uniformly within the joint limits.
                let mut q = JointConfig::ZERO;
                for i in 0..6 {
                    let l = arm.limits()[i];
                    q = q.with_angle(i, rng.random_range(l.min..l.max));
                }
                let poses = arm.chain().joint_poses(q.angles());
                let tool = arm.tool_point(&poses[6]);
                let expected = arm.tool_position(&q);
                assert_eq!(
                    [tool.x, tool.y, tool.z].map(f64::to_bits),
                    [expected.x, expected.y, expected.z].map(f64::to_bits),
                    "{} tool position at {q}",
                    arm.name()
                );
                let jac = position_jacobian(&poses, tool);
                let reference = reference_position_jacobian(&arm, &q);
                for r in 0..3 {
                    for j in 0..6 {
                        assert!(
                            (jac[r][j] - reference[r][j]).abs() <= 1e-8,
                            "{} Jacobian ({r}, {j}) at {q}: {} vs {}",
                            arm.name(),
                            jac[r][j],
                            reference[r][j]
                        );
                    }
                }
            }
        }
    }
}

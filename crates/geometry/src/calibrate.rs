//! Rigid-transform calibration between robot-arm coordinate frames.
//!
//! The paper (§IV, category 2) attempted to detect collisions between
//! ViperX and Ned2 by "transforming both robot arms' coordinate systems to
//! a global coordinate system using a transformation matrix", which
//! "resulted in an average error of 3 cm between the expected and computed
//! positions" — too coarse for safety decisions, which is why RABIT
//! multiplexes arm motion in time or space instead.
//!
//! This module reproduces that workflow: given noisy point correspondences
//! observed by two arms, fit the least-squares rigid transform (Kabsch
//! algorithm with a 3×3 SVD via Jacobi eigen-decomposition) and measure the
//! residual error. The `frame_error` bench harness uses it to reproduce the
//! ~3 cm figure at testbed noise levels.

#![allow(clippy::needless_range_loop)] // index-paired math over fixed-size arrays

use crate::{Mat3, Pose, Vec3};

/// Error returned by [`fit_rigid_transform`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitTransformError {
    /// Fewer than 3 point correspondences were supplied.
    TooFewPoints {
        /// The number of points supplied.
        got: usize,
    },
    /// The source and target slices have different lengths.
    LengthMismatch {
        /// Number of source points.
        source: usize,
        /// Number of target points.
        target: usize,
    },
    /// The points are (numerically) collinear or coincident, so the
    /// rotation is under-determined.
    Degenerate,
    /// A source or target point has a NaN or infinite coordinate (a
    /// failed measurement).
    NonFinite {
        /// Index of the first correspondence with such a point.
        index: usize,
    },
}

impl std::fmt::Display for FitTransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitTransformError::TooFewPoints { got } => {
                write!(f, "need at least 3 point correspondences, got {got}")
            }
            FitTransformError::LengthMismatch { source, target } => {
                write!(f, "source has {source} points but target has {target}")
            }
            FitTransformError::Degenerate => {
                write!(
                    f,
                    "points are collinear or coincident; rotation under-determined"
                )
            }
            FitTransformError::NonFinite { index } => {
                write!(f, "point {index} has a NaN or infinite coordinate")
            }
        }
    }
}

impl std::error::Error for FitTransformError {}

/// Result of a rigid-transform fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The fitted transform mapping source-frame points into the target frame.
    pub transform: Pose,
    /// Root-mean-square residual over the correspondences, in the same
    /// units as the input points (metres in RABIT).
    pub rms_error: f64,
    /// Mean (average) residual — the statistic the paper reports (~3 cm).
    pub mean_error: f64,
    /// Largest single-point residual.
    pub max_error: f64,
}

/// Fits the least-squares rigid transform `T` such that
/// `T(source[i]) ≈ target[i]` (Kabsch algorithm).
///
/// # Errors
///
/// Returns an error if fewer than 3 correspondences are given, the slices
/// have different lengths, a point is not finite, or the point sets are
/// degenerate (collinear).
pub fn fit_rigid_transform(
    source: &[Vec3],
    target: &[Vec3],
) -> Result<FitResult, FitTransformError> {
    if source.len() != target.len() {
        return Err(FitTransformError::LengthMismatch {
            source: source.len(),
            target: target.len(),
        });
    }
    if source.len() < 3 {
        return Err(FitTransformError::TooFewPoints { got: source.len() });
    }
    if let Some(index) = source
        .iter()
        .zip(target)
        .position(|(s, t)| !(s.is_finite() && t.is_finite()))
    {
        return Err(FitTransformError::NonFinite { index });
    }

    let n = source.len() as f64;
    let centroid_s: Vec3 = source.iter().copied().sum::<Vec3>() / n;
    let centroid_t: Vec3 = target.iter().copied().sum::<Vec3>() / n;

    // Cross-covariance H = Σ (s - cs)(t - ct)^T.
    let mut h = [[0.0f64; 3]; 3];
    for (s, t) in source.iter().zip(target.iter()) {
        let ds = *s - centroid_s;
        let dt = *t - centroid_t;
        let dsa = ds.to_array();
        let dta = dt.to_array();
        for (r, row) in h.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v += dsa[r] * dta[c];
            }
        }
    }
    let h = Mat3::from_rows(h);

    let rotation = kabsch_rotation(&h).ok_or(FitTransformError::Degenerate)?;
    let translation = centroid_t - rotation * centroid_s;
    let transform = Pose::new(rotation, translation);

    let mut sum_sq = 0.0;
    let mut sum = 0.0;
    let mut max_err: f64 = 0.0;
    for (s, t) in source.iter().zip(target.iter()) {
        let e = (transform.transform_point(*s) - *t).norm();
        sum_sq += e * e;
        sum += e;
        max_err = max_err.max(e);
    }
    Ok(FitResult {
        transform,
        rms_error: (sum_sq / n).sqrt(),
        mean_error: sum / n,
        max_error: max_err,
    })
}

/// Computes the optimal rotation `R = V * diag(1,1,det(V U^T)) * U^T` from
/// the cross-covariance `H = U Σ V^T`, using an SVD built from the Jacobi
/// eigen-decomposition of the symmetric matrices `H^T H` and `H H^T`.
fn kabsch_rotation(h: &Mat3) -> Option<Mat3> {
    // Eigen-decompose H^T H = V Σ² V^T.
    let hth = h.transpose() * *h;
    let (eigvals, v) = jacobi_eigen_symmetric(&hth);
    // Degenerate if the two largest singular values do not span a plane.
    // Sort eigenvalues descending with matching eigenvectors.
    let mut idx = [0usize, 1, 2];
    // `total_cmp`: coordinates large enough to overflow H to ∞ give NaN
    // eigenvalues, which must end in the rotation check, not a panic.
    idx.sort_by(|&a, &b| eigvals[b].total_cmp(&eigvals[a]));
    let sv: Vec<f64> = idx.iter().map(|&i| eigvals[i].max(0.0).sqrt()).collect();
    if sv[1] <= 1e-12 {
        return None; // rank < 2: collinear points
    }
    let vcols: Vec<Vec3> = idx.iter().map(|&i| v.column(i)).collect();
    // u_i = H v_i / σ_i ; for a near-zero σ₂ use the cross product to
    // complete a right-handed basis.
    let u0 = (*h * vcols[0]) / sv[0];
    let u1 = (*h * vcols[1]) / sv[1];
    let u2 = if sv[2] > 1e-12 {
        (*h * vcols[2]) / sv[2]
    } else {
        u0.cross(u1)
    };
    // Proper rotation: R = V·diag(1,1,d)·Uᵀ with d = det(V)·det(U); applying
    // the diag to U's last column folds the correction into R = V Uᵀ.
    let det_u = u0.cross(u1).dot(u2);
    let det_v = vcols[0].cross(vcols[1]).dot(vcols[2]);
    let u2 = if det_u * det_v < 0.0 { -u2 } else { u2 };
    let v2 = vcols[2];
    let u_mat = Mat3::from_columns(u0, u1, u2);
    let v_mat = Mat3::from_columns(vcols[0], vcols[1], v2);
    // R maps source → target: R = U V^T (with H built as Σ ds dt^T, the
    // optimal rotation is Vᵗ-side; verify orientation by construction).
    let r = u_mat * v_mat.transpose();
    let r = r.transpose(); // H = Σ ds dtᵀ ⇒ R = V Uᵀ = (U Vᵀ)ᵀ
    if r.is_rotation(1e-6) {
        Some(r)
    } else {
        None
    }
}

/// Jacobi eigenvalue iteration for a symmetric 3×3 matrix. Returns the
/// eigenvalues and the matrix whose columns are the eigenvectors.
fn jacobi_eigen_symmetric(m: &Mat3) -> ([f64; 3], Mat3) {
    let mut a = [[0.0f64; 3]; 3];
    for (r, row) in a.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = m.get(r, c);
        }
    }
    let mut v = [[0.0f64; 3]; 3];
    v[0][0] = 1.0;
    v[1][1] = 1.0;
    v[2][2] = 1.0;

    for _ in 0..64 {
        // Find the largest off-diagonal element.
        let (mut p, mut q, mut max) = (0usize, 1usize, a[0][1].abs());
        if a[0][2].abs() > max {
            p = 0;
            q = 2;
            max = a[0][2].abs();
        }
        if a[1][2].abs() > max {
            p = 1;
            q = 2;
            max = a[1][2].abs();
        }
        if max < 1e-15 {
            break;
        }
        let app = a[p][p];
        let aqq = a[q][q];
        let apq = a[p][q];
        let theta = 0.5 * (aqq - app) / apq;
        let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
        let c = 1.0 / (t * t + 1.0).sqrt();
        let s = t * c;

        // Apply the rotation A ← JᵀAJ.
        for k in 0..3 {
            let akp = a[k][p];
            let akq = a[k][q];
            a[k][p] = c * akp - s * akq;
            a[k][q] = s * akp + c * akq;
        }
        for k in 0..3 {
            let apk = a[p][k];
            let aqk = a[q][k];
            a[p][k] = c * apk - s * aqk;
            a[q][k] = s * apk + c * aqk;
        }
        for row in v.iter_mut() {
            let vkp = row[p];
            let vkq = row[q];
            row[p] = c * vkp - s * vkq;
            row[q] = s * vkp + c * vkq;
        }
    }
    ([a[0][0], a[1][1], a[2][2]], Mat3::from_rows(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat3;

    fn sample_points() -> Vec<Vec3> {
        vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.5, 0.0, 0.0),
            Vec3::new(0.0, 0.4, 0.0),
            Vec3::new(0.0, 0.0, 0.3),
            Vec3::new(0.2, 0.3, 0.1),
            Vec3::new(-0.1, 0.2, 0.25),
        ]
    }

    #[test]
    fn recovers_exact_transform_from_clean_data() {
        let truth = Pose::new(
            Mat3::rotation_axis_angle(Vec3::new(0.2, 1.0, 0.4), 0.8).unwrap(),
            Vec3::new(0.8, -0.1, 0.05),
        );
        let src = sample_points();
        let dst: Vec<Vec3> = src.iter().map(|p| truth.transform_point(*p)).collect();
        let fit = fit_rigid_transform(&src, &dst).unwrap();
        assert!(fit.rms_error < 1e-9, "rms {}", fit.rms_error);
        assert!(fit.mean_error < 1e-9);
        for p in &src {
            let e = (fit.transform.transform_point(*p) - truth.transform_point(*p)).norm();
            assert!(e < 1e-9);
        }
    }

    #[test]
    fn identity_fit() {
        let src = sample_points();
        let fit = fit_rigid_transform(&src, &src).unwrap();
        assert!(fit.rms_error < 1e-12);
        assert!((fit.transform.translation).norm() < 1e-9);
        assert!(fit.transform.rotation.is_rotation(1e-9));
    }

    #[test]
    fn pure_translation_fit() {
        let src = sample_points();
        let shift = Vec3::new(0.1, 0.2, 0.3);
        let dst: Vec<Vec3> = src.iter().map(|p| *p + shift).collect();
        let fit = fit_rigid_transform(&src, &dst).unwrap();
        assert!((fit.transform.translation - shift).norm() < 1e-9);
        assert!(fit.max_error < 1e-9);
    }

    #[test]
    fn noisy_fit_reports_residuals() {
        // Deterministic pseudo-noise keeps the test reproducible.
        let truth = Pose::new(Mat3::rotation_z(0.3), Vec3::new(0.5, 0.0, 0.0));
        let src = sample_points();
        let dst: Vec<Vec3> = src
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let n = 0.01
                    * Vec3::new(
                        ((i * 7 + 1) as f64).sin(),
                        ((i * 13 + 2) as f64).sin(),
                        ((i * 29 + 3) as f64).sin(),
                    );
                truth.transform_point(*p) + n
            })
            .collect();
        let fit = fit_rigid_transform(&src, &dst).unwrap();
        assert!(fit.mean_error > 1e-4, "noise should leave residual");
        assert!(fit.mean_error < 0.03, "fit should still be decent");
        assert!(fit.max_error >= fit.mean_error);
        assert!(fit.rms_error >= fit.mean_error * 0.99);
    }

    #[test]
    fn too_few_points_rejected() {
        let p = [Vec3::ZERO, Vec3::X];
        let err = fit_rigid_transform(&p, &p).unwrap_err();
        assert_eq!(err, FitTransformError::TooFewPoints { got: 2 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn length_mismatch_rejected() {
        let a = [Vec3::ZERO, Vec3::X, Vec3::Y];
        let b = [Vec3::ZERO, Vec3::X];
        let err = fit_rigid_transform(&a, &b).unwrap_err();
        assert_eq!(
            err,
            FitTransformError::LengthMismatch {
                source: 3,
                target: 2
            }
        );
    }

    #[test]
    fn non_finite_points_rejected() {
        let good = sample_points();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut broken = good.clone();
            broken[4] = Vec3::new(0.2, bad, 0.1);
            let want = Err(FitTransformError::NonFinite { index: 4 });
            assert_eq!(fit_rigid_transform(&broken, &good), want, "{bad} in source");
            assert_eq!(fit_rigid_transform(&good, &broken), want, "{bad} in target");
        }
        let err = FitTransformError::NonFinite { index: 4 };
        assert!(err.to_string().contains("point 4"), "{err}");
        // Finite but huge coordinates overflow the covariance to ∞.
        let mut huge = good.clone();
        huge[4] = Vec3::new(1e200, -1e200, 1e200);
        assert!(fit_rigid_transform(&huge, &good).is_err());
    }

    #[test]
    fn collinear_points_rejected() {
        let src = [Vec3::ZERO, Vec3::X, Vec3::X * 2.0, Vec3::X * 3.0];
        let err = fit_rigid_transform(&src, &src).unwrap_err();
        assert_eq!(err, FitTransformError::Degenerate);
    }

    #[test]
    fn jacobi_diagonalizes_symmetric_matrix() {
        let m = Mat3::from_rows([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]);
        let (vals, vecs) = jacobi_eigen_symmetric(&m);
        // Check M v_i = λ_i v_i for each eigenpair.
        for i in 0..3 {
            let v = vecs.column(i);
            let mv = m * v;
            assert!((mv - v * vals[i]).norm() < 1e-9, "eigenpair {i} failed");
        }
        // Trace is preserved.
        let trace: f64 = vals.iter().sum();
        assert!((trace - 9.0).abs() < 1e-9);
    }
}

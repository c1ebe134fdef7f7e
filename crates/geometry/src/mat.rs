//! 3×3 rotation/linear-map matrices.

use crate::Vec3;
use std::ops::Mul;

/// A 3×3 matrix stored in row-major order, used primarily for rotations.
///
/// # Example
///
/// ```
/// use rabit_geometry::{Mat3, Vec3};
///
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    rows: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from rows.
    pub const fn from_rows(rows: [[f64; 3]; 3]) -> Self {
        Mat3 { rows }
    }

    /// Creates a matrix whose columns are the given vectors.
    pub fn from_columns(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Mat3 {
            rows: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row > 2` or `col > 2`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col]
    }

    /// The `i`-th row as a vector.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::from_array(self.rows[i])
    }

    /// The `i`-th column as a vector.
    #[inline]
    pub fn column(&self, i: usize) -> Vec3 {
        Vec3::new(self.rows[0][i], self.rows[1][i], self.rows[2][i])
    }

    /// Rotation of `angle` radians about the X axis.
    pub fn rotation_x(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    /// Rotation of `angle` radians about the Y axis.
    pub fn rotation_y(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    /// Rotation of `angle` radians about the Z axis.
    pub fn rotation_z(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Rotation of `angle` radians about an arbitrary `axis`
    /// (Rodrigues' formula). Returns `None` if `axis` is numerically zero.
    pub fn rotation_axis_angle(axis: Vec3, angle: f64) -> Option<Self> {
        let u = axis.normalized()?;
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        Some(Mat3::from_rows([
            [
                c + u.x * u.x * t,
                u.x * u.y * t - u.z * s,
                u.x * u.z * t + u.y * s,
            ],
            [
                u.y * u.x * t + u.z * s,
                c + u.y * u.y * t,
                u.y * u.z * t - u.x * s,
            ],
            [
                u.z * u.x * t - u.y * s,
                u.z * u.y * t + u.x * s,
                c + u.z * u.z * t,
            ],
        ]))
    }

    /// Matrix transpose. For a rotation matrix this is also its inverse.
    pub fn transpose(&self) -> Mat3 {
        let mut rows = [[0.0; 3]; 3];
        for (r, row) in rows.iter_mut().enumerate() {
            for (c, val) in row.iter_mut().enumerate() {
                *val = self.rows[c][r];
            }
        }
        Mat3 { rows }
    }

    /// Determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.rows;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Returns `true` if this matrix is (numerically) a proper rotation:
    /// orthonormal with determinant `+1`.
    pub fn is_rotation(&self, tol: f64) -> bool {
        let t = *self * self.transpose();
        let mut max_dev: f64 = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                max_dev = max_dev.max((t.get(r, c) - expect).abs());
            }
        }
        max_dev <= tol && (self.determinant() - 1.0).abs() <= tol
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut rows = [[0.0; 3]; 3];
        for (r, row) in rows.iter_mut().enumerate() {
            for (c, val) in row.iter_mut().enumerate() {
                *val = self.row(r).dot(rhs.column(c));
            }
        }
        Mat3 { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_vec_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn identity_preserves_vectors() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_vec_close(Mat3::IDENTITY * v, v);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Mat3::rotation_z(FRAC_PI_2);
        assert_vec_close(r * Vec3::X, Vec3::Y);
        assert_vec_close(r * Vec3::Y, -Vec3::X);
        assert_vec_close(r * Vec3::Z, Vec3::Z);
    }

    #[test]
    fn rotation_x_and_y() {
        assert_vec_close(Mat3::rotation_x(FRAC_PI_2) * Vec3::Y, Vec3::Z);
        assert_vec_close(Mat3::rotation_y(FRAC_PI_2) * Vec3::Z, Vec3::X);
    }

    #[test]
    fn axis_angle_matches_basis_rotations() {
        let r1 = Mat3::rotation_axis_angle(Vec3::Z, 0.7).unwrap();
        let r2 = Mat3::rotation_z(0.7);
        for i in 0..3 {
            assert_vec_close(r1.column(i), r2.column(i));
        }
        assert!(Mat3::rotation_axis_angle(Vec3::ZERO, 0.7).is_none());
    }

    #[test]
    fn transpose_is_inverse_of_rotation() {
        let r = Mat3::rotation_axis_angle(Vec3::new(1.0, 2.0, 3.0), 1.1).unwrap();
        let p = r * r.transpose();
        for i in 0..3 {
            assert_vec_close(p.column(i), Mat3::IDENTITY.column(i));
        }
    }

    #[test]
    fn determinant_of_rotation_is_one() {
        let r = Mat3::rotation_axis_angle(Vec3::new(0.3, -1.0, 0.5), PI / 3.0).unwrap();
        assert!((r.determinant() - 1.0).abs() < 1e-12);
        assert!(r.is_rotation(1e-9));
    }

    #[test]
    fn non_rotation_detected() {
        let scale = Mat3::from_rows([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(!scale.is_rotation(1e-9));
    }

    #[test]
    fn matrix_product_associates_with_vector_product() {
        let a = Mat3::rotation_x(0.3);
        let b = Mat3::rotation_y(0.4);
        let v = Vec3::new(0.1, 0.2, 0.3);
        assert_vec_close((a * b) * v, a * (b * v));
    }

    #[test]
    fn rows_and_columns() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.column(2), Vec3::new(3.0, 6.0, 9.0));
        assert_eq!(m.get(2, 0), 7.0);
        let c = Mat3::from_columns(m.column(0), m.column(1), m.column(2));
        assert_eq!(c, m);
    }
}

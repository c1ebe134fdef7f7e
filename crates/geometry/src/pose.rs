//! Rigid transforms (rotation + translation).

use crate::{Mat3, Vec3};

/// A rigid transform: rotation followed by translation.
///
/// Poses express device placements on the experiment deck, robot-arm link
/// frames (via forward kinematics), and the mapping between the separate
/// per-arm coordinate systems used on the testbed.
///
/// # Example
///
/// ```
/// use rabit_geometry::{Mat3, Pose, Vec3};
///
/// // Ned2's frame is 0.8 m along X from ViperX's frame, rotated 180°.
/// let ned2_in_viperx = Pose::new(
///     Mat3::rotation_z(std::f64::consts::PI),
///     Vec3::new(0.8, 0.0, 0.0),
/// );
/// let p_ned2 = Vec3::new(0.1, 0.0, 0.2);
/// let p_viperx = ned2_in_viperx.transform_point(p_ned2);
/// assert!((p_viperx - Vec3::new(0.7, 0.0, 0.2)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Rotation part.
    pub rotation: Mat3,
    /// Translation part.
    pub translation: Vec3,
}

impl Pose {
    /// The identity transform.
    pub const IDENTITY: Pose = Pose {
        rotation: Mat3::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a pose from a rotation and translation.
    pub const fn new(rotation: Mat3, translation: Vec3) -> Self {
        Pose {
            rotation,
            translation,
        }
    }

    /// A pure translation.
    pub const fn from_translation(translation: Vec3) -> Self {
        Pose {
            rotation: Mat3::IDENTITY,
            translation,
        }
    }

    /// A pure rotation.
    pub const fn from_rotation(rotation: Mat3) -> Self {
        Pose {
            rotation,
            translation: Vec3::ZERO,
        }
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// Applies only the rotation part (for directions).
    #[inline]
    pub fn transform_vector(&self, v: Vec3) -> Vec3 {
        self.rotation * v
    }

    /// Composition: `self ∘ other` (apply `other` first, then `self`).
    #[inline]
    pub fn compose(&self, other: &Pose) -> Pose {
        Pose {
            rotation: self.rotation * other.rotation,
            translation: self.rotation * other.translation + self.translation,
        }
    }

    /// Inverse transform. Assumes the rotation part is orthonormal.
    pub fn inverse(&self) -> Pose {
        let rt = self.rotation.transpose();
        Pose {
            rotation: rt,
            translation: -(rt * self.translation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn assert_vec_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn identity_is_noop() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(Pose::IDENTITY.transform_point(p), p);
    }

    #[test]
    fn rotation_then_translation() {
        let pose = Pose::new(Mat3::rotation_z(FRAC_PI_2), Vec3::new(1.0, 0.0, 0.0));
        // X axis rotates to Y, then shifts by (1,0,0).
        assert_vec_close(pose.transform_point(Vec3::X), Vec3::new(1.0, 1.0, 0.0));
        // Directions ignore the translation.
        assert_vec_close(pose.transform_vector(Vec3::X), Vec3::Y);
    }

    #[test]
    fn inverse_roundtrip() {
        let pose = Pose::new(
            Mat3::rotation_axis_angle(Vec3::new(1.0, 1.0, 0.2), 0.9).unwrap(),
            Vec3::new(0.3, -0.7, 1.1),
        );
        let p = Vec3::new(0.5, 0.6, 0.7);
        let q = pose.inverse().transform_point(pose.transform_point(p));
        assert_vec_close(q, p);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = Pose::new(Mat3::rotation_x(0.4), Vec3::new(0.1, 0.0, 0.0));
        let b = Pose::new(Mat3::rotation_z(1.2), Vec3::new(0.0, 0.2, 0.0));
        let p = Vec3::new(0.3, 0.4, 0.5);
        assert_vec_close(
            a.compose(&b).transform_point(p),
            a.transform_point(b.transform_point(p)),
        );
    }

    #[test]
    fn pure_constructors() {
        let t = Pose::from_translation(Vec3::X);
        assert_vec_close(t.transform_point(Vec3::ZERO), Vec3::X);
        let r = Pose::from_rotation(Mat3::rotation_z(FRAC_PI_2));
        assert_vec_close(r.transform_point(Vec3::X), Vec3::Y);
    }
}

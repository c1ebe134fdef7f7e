//! 3D geometry substrate for RABIT.
//!
//! RABIT models every lab device as a 3D cuboid and every robot-arm link as
//! a capsule (a line segment with radius). Collision detection between a
//! moving arm and the stationary devices — the heart of the paper's
//! *Extended Simulator* (Fig. 3) — reduces to a handful of geometric
//! queries implemented here:
//!
//! * [`Vec3`], [`Mat3`], [`Pose`] — vectors, rotations, and rigid
//!   transforms;
//! * [`Aabb`] — axis-aligned cuboids used to model devices, walls, the
//!   mounting platform, and "software-defined walls" for space
//!   multiplexing;
//! * [`Segment`], [`Capsule`], [`Sphere`] — robot links and held objects;
//! * [`collide`] — distance and intersection queries between all of the
//!   above, including swept (trajectory) variants;
//! * [`calibrate`] — the Kabsch rigid-transform fit used in the paper's
//!   attempt to map two robot arms into a common frame of reference
//!   (§IV, category 2), together with its ~3 cm error analysis;
//! * [`noise`] — Gaussian positional noise models for the low-fidelity
//!   testbed arms.
//!
//! # Example
//!
//! ```
//! use rabit_geometry::{Aabb, Capsule, Vec3, collide};
//!
//! // A dosing device modelled as a cuboid, and a robot forearm as a capsule.
//! let device = Aabb::from_center_half_extents(
//!     Vec3::new(0.15, 0.45, 0.10),
//!     Vec3::new(0.08, 0.08, 0.10),
//! );
//! let forearm = Capsule::new(
//!     Vec3::new(0.0, 0.0, 0.3),
//!     Vec3::new(0.14, 0.40, 0.15),
//!     0.03,
//! );
//! assert!(collide::capsule_intersects_aabb(&forearm, &device));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
pub mod calibrate;
pub mod collide;
pub mod distance;
mod mat;
pub mod noise;
mod pose;
mod shapes;
mod vec;

pub use aabb::Aabb;
pub use mat::Mat3;
pub use pose::Pose;
pub use shapes::{Capsule, Segment, Sphere};
pub use vec::Vec3;

/// Numerical tolerance used by geometric predicates in this crate.
pub const EPSILON: f64 = 1e-9;

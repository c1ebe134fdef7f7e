//! Six-axis robot-arm kinematics for RABIT.
//!
//! RABIT's three stages each drive six-degree-of-freedom serial arms: the
//! production UR3e, and the testbed's ViperX-300 and Niryo Ned2. This crate
//! is the substrate that replaces the physical arms and the vendor URSim
//! simulator:
//!
//! * [`DhParam`] / [`DhChain`] — modified Denavit–Hartenberg description of
//!   a serial arm and its forward kinematics;
//! * [`ArmModel`] — a chain plus joint limits, link radii, and a gripper;
//!   produces the world-space [capsule](rabit_geometry::Capsule) set RABIT's
//!   collision checks consume, including held-object inflation (the paper's
//!   Bug-D fix);
//! * [`ik`] — damped-least-squares inverse kinematics for position targets;
//! * [`trajectory`] — joint-space trajectories sampled for polling, the
//!   motion representation the Extended Simulator inspects;
//! * [`sweep`] — precomputed Lipschitz motion bounds ([`MotionBound`]) that
//!   let the simulator's conservative-advancement kernel skip provably safe
//!   samples;
//! * [`presets`] — parameter sets for the UR3e, ViperX-300, and Ned2.
//!
//! # Example
//!
//! ```
//! use rabit_kinematics::presets;
//!
//! let ur3e = presets::ur3e();
//! let home = ur3e.home_configuration();
//! let pose = ur3e.chain().end_effector_pose(home.angles());
//! assert!(pose.translation.norm() < 1.0); // within the arm's reach
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arm;
mod chain;
pub mod ik;
pub mod presets;
pub mod sweep;
pub mod trajectory;

pub use arm::{ArmModel, GripperState, HeldObject};
pub use chain::{wrap_to_pi, DhChain, DhParam, JointConfig, JointLimits};
pub use sweep::MotionBound;

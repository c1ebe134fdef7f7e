//! The Extended Simulator (stage 1 of RABIT's three-stage framework).
//!
//! The paper extends the vendor's URSim with 3D cuboid device models and
//! continuous trajectory polling (§III, Fig. 3). This crate is that
//! simulator, built from scratch on `rabit-kinematics`:
//!
//! * [`SimWorld`] — named cuboid obstacles (devices, platform, walls);
//! * [`ExtendedSimulator`] — kinematic arms mirrored against the world,
//!   implementing [`rabit_core::TrajectoryValidator`] so it can be
//!   attached to the engine as the Fig. 2 `ValidTrajectory` hook;
//! * GUI vs headless check latencies reproducing the ~2 s / ~112%
//!   overhead finding (§II-C) and the planned GUI bypass.
//!
//! # Example
//!
//! ```
//! use rabit_core::TrajectoryValidator;
//! use rabit_sim::{ExtendedSimulator, SimConfig, SimWorld};
//! use rabit_kinematics::presets;
//!
//! let world = SimWorld::new().with_platform(1.5);
//! let sim = ExtendedSimulator::new(world, SimConfig::default())
//!     .with_arm("ur3e", presets::ur3e());
//! assert_eq!(sim.samples_checked(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shapes;
mod simulator;
mod substrate;
mod world;

pub use shapes::{ObstacleShape, VerticalCylinder};
pub use simulator::{ExtendedSimulator, SimConfig, GUI_CHECK_LATENCY_S, HEADLESS_CHECK_LATENCY_S};
pub use substrate::SimulatorSubstrate;
pub use world::{ExclusionMask, HitDetail, NamedBox, SimWorld};

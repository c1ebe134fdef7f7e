//! # RABIT — a Robot Arm Bug Intervention Tool for Self-Driving Labs
//!
//! Facade crate re-exporting the full RABIT stack. See the README for a
//! tour and `DESIGN.md` for the crate inventory.
//!
//! ```
//! use rabit::geometry::Vec3;
//!
//! let grid = Vec3::new(0.537, 0.018, 0.12);
//! assert!(grid.is_finite());
//! ```

#![forbid(unsafe_code)]

/// Every Rust snippet in the README, compiled and run as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use rabit_geometry as geometry;

/// Re-export of the bug-injection framework.
pub use rabit_buginject as buginject;
/// Re-export of the resumable campaign runner.
pub use rabit_campaign as campaign;
/// Re-export of the JSON configuration subsystem.
pub use rabit_config as config;
/// Re-export of the core engine.
pub use rabit_core as core;
/// Re-export of the device models.
pub use rabit_devices as devices;
/// Re-export of the kinematics substrate.
pub use rabit_kinematics as kinematics;
/// Re-export of the production stage.
pub use rabit_production as production;
/// Re-export of the RAD dataset substrate.
pub use rabit_rad as rad;
/// Re-export of the rulebase.
pub use rabit_rulebase as rulebase;
/// Re-export of the versioned multi-tenant rule service.
pub use rabit_service as service;
/// Re-export of the Extended Simulator.
pub use rabit_sim as sim;
/// Re-export of the testbed stage.
pub use rabit_testbed as testbed;
/// Re-export of the tracer (RATracer equivalent).
pub use rabit_tracer as tracer;
/// Re-export of the dependency-free utility substrate (PRNG, JSON).
pub use rabit_util as util;

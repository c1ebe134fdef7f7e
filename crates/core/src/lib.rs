//! The RABIT core engine.
//!
//! This crate implements the execution algorithm of the paper's Fig. 2:
//! intercept each command, check its preconditions against the rulebase
//! (and, when a simulator is attached, its trajectory), execute it, and
//! verify the resulting device states against the postconditions.
//!
//! * [`Rabit`] — the engine (`Valid`, `ValidTrajectory`, `UpdateState`,
//!   `FetchState`, `alertAndStop`);
//! * [`Lab`] / [`LabDevice`] — the environment: devices, cross-device
//!   physics, virtual time, and the ground-truth [`DamageEvent`] oracle;
//! * [`Alert`] — the three `alertAndStop` variants plus device faults;
//! * [`TrajectoryValidator`] — the hook the Extended Simulator plugs into;
//! * [`RunCounters`] — one run's cache, sweep, fault and recovery
//!   tallies, merged the same way at every level (run, fleet, campaign);
//! * [`SimClock`] — deterministic virtual lab time;
//! * [`fleet`] — a deterministic worker pool for running many
//!   independent labs in parallel;
//! * [`substrate`] — the three-stage deployment pipeline as a typed API:
//!   [`Substrate`] backends and the [`Stage`] enum.
//!
//! The engine processes one command at a time ([`Rabit::initialize`],
//! then [`Rabit::step`] per command); the workflow loop that halts on
//! the first alert lives in `rabit-tracer`.
//!
//! # Example
//!
//! ```
//! use rabit_core::{Lab, Rabit, RabitConfig};
//! use rabit_devices::{ActionKind, Command, DeviceType, DosingDevice, RobotArm};
//! use rabit_geometry::{Aabb, Vec3};
//! use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase};
//!
//! let mut lab = Lab::new()
//!     .with_device(RobotArm::new("arm", Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, 0.0, 0.2)))
//!     .with_device(DosingDevice::new("doser", Aabb::new(Vec3::ZERO, Vec3::new(0.2, 0.2, 0.3))));
//! let catalog = DeviceCatalog::new()
//!     .with(DeviceMeta::new("arm", DeviceType::RobotArm))
//!     .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door());
//! let mut rabit = Rabit::new(Rulebase::standard(), catalog, RabitConfig::default());
//! rabit.initialize(&mut lab);
//! let open = Command::new("doser", ActionKind::SetDoor { open: true });
//! assert!(rabit.step(&mut lab, &open).is_ok_and(|outcome| outcome.executed()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod builder;
mod clock;
mod counters;
mod damage;
mod engine;
pub mod faults;
pub mod fleet;
mod lab;
pub mod substrate;
mod trajcheck;

pub use alert::{Alert, StopPolicy};
pub use builder::RabitBuilder;
pub use clock::SimClock;
pub use counters::RunCounters;
pub use damage::{DamageEvent, DamageKind, Severity};
pub use engine::{Rabit, RabitConfig, StepOutcome};
pub use faults::{
    FaultKind, FaultPlan, FaultSchedule, FaultSession, FaultSpec, FaultStats, RecoveryCounters,
    RecoveryPolicy, RetryPolicy,
};
pub use lab::{ArmKinematics, Lab, LabDevice, LabError};
pub use substrate::{Stage, Substrate};
pub use trajcheck::{
    ApproveAll, CollisionReport, SweepStats, TrajectoryValidator, TrajectoryVerdict,
};

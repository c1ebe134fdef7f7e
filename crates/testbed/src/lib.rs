//! The low-fidelity testbed (stage 2 of RABIT's three-stage framework).
//!
//! "The testbed emulates the Hein Lab using lower precision robot arms
//! and low-fidelity device mockups. It provides an environment for
//! executing potentially unsafe programs … The testbed also lets us
//! experiment with intentionally unsafe workflows to check if RABIT
//! detects them." (§III, Fig. 4)
//!
//! This crate assembles that environment in software:
//!
//! * [`Testbed`] — two arms (ViperX with the silent-skip failure mode,
//!   Ned2 with the raise-exception mode), five mockup devices, the grid,
//!   and RABIT builders for the study's three configurations
//!   ([`RabitStage`]);
//! * [`TestbedSubstrate`] — the deck as a pluggable deployment substrate,
//!   so `rabit_tracer`'s [`StagePipeline`](rabit_tracer::StagePipeline)
//!   can promote workflows through it ([`Testbed::pipeline`]);
//! * [`mod@locations`] — the Fig. 6 hard-coded coordinate table;
//! * [`workflows`] — the Fig. 5 safe workflow and mutation anchor points;
//! * [`calibration`] — the common-frame experiment reproducing the ~3 cm
//!   error that motivated time/space multiplexing.
//!
//! # Example
//!
//! ```
//! use rabit_testbed::{Testbed, RabitStage, workflows};
//! use rabit_tracer::Tracer;
//!
//! let mut tb = Testbed::new();
//! let mut rabit = tb.rabit(RabitStage::Modified);
//! let wf = workflows::fig5_safe_workflow(&tb.locations);
//! let report = Tracer::guarded(&mut tb.lab, &mut rabit).run(&wf);
//! assert!(report.completed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
mod env;
pub mod locations;
mod substrate;
pub mod workflows;

pub use env::{arm_positions, footprints, rulebase_for, RabitStage, Testbed};
pub use locations::{locations, ArmLocations, DosingLocations, Locations};
pub use substrate::TestbedSubstrate;

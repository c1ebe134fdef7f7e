//! The bug-injection framework: the paper's uncontrolled study, made
//! deterministic.
//!
//! "We asked one of our collaborators to modify the experiment scripts …
//! and introduce bugs in them, as if they were a naive programmer. …
//! \[They\] carried out 16 program changes with potentially unsafe
//! consequences." (§IV)
//!
//! * [`catalog`] — the 16 bugs, each a mutation of the safe Fig. 5
//!   workflow, annotated with category, Table V severity, and the
//!   configuration that first detects it;
//! * [`run_study`] — executes the catalog against one of the three RABIT
//!   configurations, scoring detections against the damage oracle;
//! * [`run_study_on`] — the generic form: executes the catalog against
//!   any [`rabit_core::Substrate`] realising the testbed deck, so the
//!   same 16 bugs replay at every stage of the promotion pipeline;
//! * [`false_positives`] — the safe-workflow suite behind the paper's
//!   "RABIT never produced any false positives";
//! * [`fault_families`] / [`run_fault_family_on`] — the catalog
//!   generalized into parametric fault families (stale reads, dropped
//!   commands, crashes, …) swept deterministically under any
//!   [`rabit_core::RecoveryPolicy`].
//!
//! # Example
//!
//! ```
//! use rabit_buginject::{run_study, RabitStage};
//!
//! let result = run_study(RabitStage::Baseline);
//! assert_eq!(result.detected(), 8); // the paper's 50%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod faults;
mod runner;

pub use catalog::{catalog, Bug, BugCategory, DetectedFrom};
pub use faults::{fault_families, run_fault_family_on, run_fault_study_on, FamilyResult};
pub use runner::{
    false_positives, false_positives_on, run_bug, run_bug_on, run_study, run_study_on, BugOutcome,
    StudyResult,
};
// Re-export the stage enum so harnesses need only this crate.
pub use rabit_testbed::RabitStage;

//! Resumable campaign runner: the experiment lifecycle as a
//! schema-validated state machine.
//!
//! The RABIT evaluation is a matrix of `(workflow × bug × substrate ×
//! fault × seed)` trials. This crate makes that matrix a first-class,
//! *resumable* object:
//!
//! * [`CampaignPlan`] — a declarative, serializable plan whose
//!   cartesian product materializes into [`Trial`]s, each with a seed
//!   derived from `(plan seed, trial index)` — never from execution
//!   order — so artifacts are a pure function of the plan;
//! * [`TrialState`] — the explicit per-trial state machine
//!   (`Pending → Running → Done | Failed | Skipped`), persisted as one
//!   JSON file per trial plus a run-level [`Manifest`];
//! * [`CampaignRunner`] — executes pending trials on the deterministic
//!   fleet worker pool (`rabit_tracer::FleetJob` per trial), so
//!   a killed campaign resumes exactly where it stopped: `Done` and
//!   `Skipped` trials are kept, interrupted/failed/corrupt ones re-run
//!   with a warning in the manifest;
//! * [`plans`] — the predefined plans behind EXPERIMENTS.md (Table I,
//!   the 16-bug detection matrix).
//!
//! The merged artifact excludes every wall-clock field, so a
//! kill-and-resume run is byte-identical to an uninterrupted one — the
//! property `tests/campaign_resume.rs` pins down.
//!
//! # Example
//!
//! ```
//! use rabit_campaign::{plans, run_ephemeral};
//!
//! let (artifact, states) = run_ephemeral(plans::quick_matrix_plan(), 2).unwrap();
//! assert_eq!(states.len(), 8);
//! assert_eq!(artifact.get("kind").and_then(|k| k.as_str()), Some("campaign"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
pub mod plans;
mod runner;
mod state;

pub use plan::{
    derive_seed, CampaignPlan, ExecMode, FaultVariant, PlanError, SubstrateSpec, Trial,
    WorkflowSpec, PLACEMENT_TARGET, PLAN_SCHEMA,
};
pub use runner::{
    run_ephemeral, CampaignError, CampaignRunner, Manifest, RunSummary, MANIFEST_SCHEMA,
};
pub use state::{TrialResult, TrialState, TrialStatus, TRIAL_SCHEMA};

//! The RATracer-equivalent interception layer.
//!
//! The paper instruments Python experiment scripts with RATracer, which
//! intercepts every device command at run time; RABIT is wired in so that
//! each traced command is checked before it is forwarded (§II-C). This
//! crate provides:
//!
//! * [`Workflow`] — the command sequences experiment scripts produce,
//!   with builder methods mirroring the lab's Python wrappers and the
//!   mutation operators of the uncontrolled bug study;
//! * [`Tracer`] — the one loop that drives a workflow through a lab:
//!   guarded (check-then-forward) when it holds an engine, pass-through
//!   otherwise;
//! * [`Trace`] / [`TraceEvent`] — the serializable command log (the RAD
//!   on-disk format);
//! * [`fleet`] — parallel execution of many independent
//!   `(substrate, workflow)` runs with deterministic,
//!   thread-count-independent results, and the gated
//!   [`StagePipeline`] that promotes a workflow stage by stage.
//!
//! # Example
//!
//! ```
//! use rabit_tracer::Workflow;
//!
//! let wf = Workflow::new("demo").set_door("doser", true);
//! assert_eq!(wf.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod fleet;
pub mod script;
mod trace;
#[allow(clippy::module_inception)]
mod tracer;
mod workflow;

pub use concurrent::{run_concurrent, ConcurrentReport, StreamReport};
pub use fleet::{
    run_fleet_on, run_fleet_on_faulted, run_fleet_on_live, FleetJob, FleetReport, FleetRun,
    PipelineReport, StagePipeline,
};
pub use script::{parse_script, AliasTable, ScriptError};
pub use trace::{Trace, TraceEvent, TraceOutcome};
pub use tracer::{TraceReport, Tracer};
pub use workflow::Workflow;

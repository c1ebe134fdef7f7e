//! Experiment harness reproducing every table and figure of the RABIT
//! paper's evaluation.
//!
//! Each `src/bin/` binary regenerates one paper artifact (run with
//! `cargo run -p rabit-bench --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_stages` | Table I (stage capabilities, quantified) |
//! | `table2_transition` | Table II (state-transition examples) |
//! | `table3_general_rules` | Table III controlled experiments |
//! | `table4_custom_rules` | Table IV controlled experiments |
//! | `table5_severity` | Table V (bug severity × detection) |
//! | `detection_rates` | §IV summary: 50% → 75% → 81%, 0 false positives |
//! | `latency_overhead` | §II-C overhead measurements |
//! | `frame_error` | §IV cat. 2: the ~3 cm common-frame error |
//! | `pilot_study` | §V-A pilot study |
//! | `rad_mining` | §II-A rule mining from RAD |
//! | `ablations` | DESIGN.md ablation studies |
//! | `pipeline` | three-stage promotion pipeline (per-stage throughput, detection, gating) |
//!
//! The `benches/` directory holds dependency-free micro-benchmarks (the
//! [`timing`] harness) for the real compute costs: rule evaluation,
//! collision checking, trajectories, mining, and the end-to-end engine
//! step. `fleet_throughput` measures the fleet executor, emitting
//! `BENCH_fleet.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod latency;
pub mod report;
pub mod scenarios;
pub mod schema;
pub mod stages;
pub mod timing;

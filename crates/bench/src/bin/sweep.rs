//! Adaptive conservative-advancement sweep benchmark.
//!
//! Runs the standard fleet workload — serial guarded fig5 safe-workflow
//! runs on the testbed, verdict cache disabled so every validation
//! really sweeps — under the two kernel configurations and compares:
//!
//! * `dense` — dense sampling, every polling-grid sample checked;
//! * `adaptive` — conservative-advancement skipping driven by packet
//!   BVH clearance queries.
//!
//! Reported per mode: wall time per command, polling-grid samples
//! evaluated versus skipped, narrow-phase obstacle tests (the cost the
//! kernel exists to cut), and clearance distance queries (the price the
//! kernel pays instead). The headline `wall_speedup` is dense wall over
//! adaptive wall.
//!
//! Both configurations must agree on every verdict — the adaptive kernel
//! only skips samples it proves hit-free — so the benchmark asserts all
//! runs complete in both modes and that checked + skipped partitions
//! the same polling grid.
//!
//! Methodology: trajectories are polled at [`POLL_INTERVAL_S`]
//! (continuous polling, per the paper), and each repeat runs
//! [`WARMUP_LAPS`] untimed laps first so one-off IK solves — identical
//! in every mode — do not sit inside the timed window. Counters are
//! snapshotted after warm-up and report the timed laps only.
//!
//! Writes `BENCH_sweep.json` and prints the tables. `--quick` runs a
//! reduced pass for CI smoke checks.
//!
//! Run with `cargo run --release -p rabit-bench --bin sweep`.

use rabit_bench::report::render_table;
use rabit_buginject::RabitStage;
use rabit_core::SweepStats;
use rabit_testbed::{workflows, Testbed};
use rabit_tracer::Tracer;
use rabit_util::Json;
use std::time::Instant;

struct SweepResult {
    wall_s: f64,
    commands: usize,
    /// Sweep counters over the timed laps.
    sweep: SweepStats,
    narrow_checks: u64,
}

/// Polling interval for the benchmark workload. The paper's Extended
/// Simulator polls trajectories continuously; 10 ms is the densest grid
/// the testbed trajectories support without degenerate one-sample
/// sweeps, and it is where the sweep kernel — not command dispatch —
/// dominates the wall clock. Both modes use the same grid, so verdict
/// identity across kernels is unaffected.
const POLL_INTERVAL_S: f64 = 0.01;

/// Untimed laps run before the clock starts. Two are needed: the first
/// lap populates the IK candidate memo from the registration state, and
/// the second covers the steady-orbit start configurations (including
/// the one deliberately unreachable pick target, whose full-restart IK
/// failure costs ~30 ms once per distinct key). Cold IK solving is
/// identical in both modes, so excluding it leaves the timed window
/// measuring what the modes actually differ in: the sweep kernels.
const WARMUP_LAPS: usize = 2;

/// Serial guarded runs of the fig5 safe workflow with a fresh lab per
/// lap and one long-lived engine, the shape of a deployed RABIT
/// instance. The verdict cache is off so every lap's validations sweep.
fn run_workload(laps: usize, dense_sampling: bool) -> SweepResult {
    let tb = Testbed::new();
    let wf = workflows::fig5_safe_workflow(&tb.locations);
    let mut sim = tb.extended_simulator(false);
    sim.config_mut().verdict_cache = false;
    sim.config_mut().poll_interval_s = POLL_INTERVAL_S;
    sim.config_mut().dense_sampling = dense_sampling;
    let mut rabit = tb.rabit(RabitStage::Modified).with_validator(Box::new(sim));

    for _ in 0..WARMUP_LAPS {
        let mut warm = Testbed::new().lab;
        let report = Tracer::guarded(&mut warm, &mut rabit).run(&wf);
        assert!(report.completed(), "fig5 safe workflow must complete");
    }
    let mut labs: Vec<_> = (0..laps).map(|_| Testbed::new().lab).collect();
    // Counter snapshot so the report covers the timed laps only.
    let warm_sweep = rabit.validator_sweep_stats();
    let warm_narrow = rabit.validator_narrow_checks();
    let t0 = Instant::now();
    for lab in &mut labs {
        let report = Tracer::guarded(lab, &mut rabit).run(&wf);
        assert!(report.completed(), "fig5 safe workflow must complete");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    SweepResult {
        wall_s,
        commands: laps * wf.len(),
        sweep: rabit.validator_sweep_stats().since(&warm_sweep),
        narrow_checks: rabit.validator_narrow_checks() - warm_narrow,
    }
}

/// Best-of-N wall clock over fresh workloads; counters are deterministic
/// across repeats, so the last repeat's are as good as any.
fn best_of(repeats: usize, laps: usize, dense_sampling: bool) -> SweepResult {
    let mut best = run_workload(laps, dense_sampling);
    for _ in 1..repeats {
        let next = run_workload(laps, dense_sampling);
        assert_eq!(
            next.sweep, best.sweep,
            "sweep counters must be deterministic across repeats"
        );
        best.wall_s = best.wall_s.min(next.wall_s);
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (laps, repeats) = if quick { (4, 1) } else { (24, 3) };

    let dense = best_of(repeats, laps, true);
    let adaptive = best_of(repeats, laps, false);

    assert_eq!(
        dense.sweep.samples_skipped, 0,
        "dense sampling must not skip anything"
    );
    assert_eq!(
        adaptive.sweep.samples_checked + adaptive.sweep.samples_skipped,
        dense.sweep.samples_checked,
        "both kernels must walk the same polling grid"
    );

    let total = dense.sweep.samples_checked;
    let skip_rate = adaptive.sweep.samples_skipped as f64 / total.max(1) as f64;
    let narrow_reduction = dense.narrow_checks as f64 / adaptive.narrow_checks.max(1) as f64;
    let ns_per_cmd = |r: &SweepResult| r.wall_s / r.commands as f64 * 1e9;
    let wall_speedup = dense.wall_s / adaptive.wall_s;

    println!(
        "Adaptive sweep ({laps} laps of the fig5 safe workflow, \
         verdict cache off, best of {repeats})\n"
    );
    let row = |name: &str, r: &SweepResult| {
        vec![
            name.into(),
            format!("{:.0}", ns_per_cmd(r)),
            r.sweep.samples_checked.to_string(),
            r.sweep.samples_skipped.to_string(),
            r.narrow_checks.to_string(),
            r.sweep.distance_queries.to_string(),
        ]
    };
    println!(
        "{}",
        render_table(
            &[
                "kernel",
                "ns/command",
                "samples checked",
                "samples skipped",
                "narrow checks",
                "distance queries",
            ],
            &[row("dense", &dense), row("adaptive", &adaptive)]
        )
    );
    println!(
        "skip rate: {:.1}%   narrow-phase reduction: {:.2}x   \
         wall speedup (dense/adaptive): {:.2}x",
        skip_rate * 100.0,
        narrow_reduction,
        wall_speedup
    );

    let side = |r: &SweepResult| {
        Json::obj([
            ("wall_seconds", Json::Num(r.wall_s)),
            ("ns_per_command", Json::Num(ns_per_cmd(r))),
            ("commands", Json::Num(r.commands as f64)),
            ("samples_checked", Json::Num(r.sweep.samples_checked as f64)),
            ("samples_skipped", Json::Num(r.sweep.samples_skipped as f64)),
            ("narrow_checks", Json::Num(r.narrow_checks as f64)),
            (
                "distance_queries",
                Json::Num(r.sweep.distance_queries as f64),
            ),
        ])
    };
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("laps", Json::Num(laps as f64)),
        ("repeats", Json::Num(repeats as f64)),
        ("workflow", Json::Str("fig5_safe".into())),
        ("verdict_cache", Json::Bool(false)),
        ("poll_interval_s", Json::Num(POLL_INTERVAL_S)),
        ("warmup_laps", Json::Num(WARMUP_LAPS as f64)),
    ]);
    let results = Json::obj([
        ("dense", side(&dense)),
        ("adaptive", side(&adaptive)),
        ("skip_rate", Json::Num(skip_rate)),
        ("narrow_phase_reduction", Json::Num(narrow_reduction)),
        ("wall_speedup", Json::Num(wall_speedup)),
    ]);
    rabit_bench::schema::write_artifact("sweep", config, results);
}

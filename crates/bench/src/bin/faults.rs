//! Fault-injection benchmark.
//!
//! Sweeps every parametric fault family (`rabit_buginject::fault_families`)
//! against the stage-2 testbed substrate and reports, per family:
//!
//! * **detection rate** — fraction of faulted runs RABIT halts with one
//!   of its own checks, under [`RecoveryPolicy::AlertImmediately`];
//! * **recovery rate** — fraction of runs in which the engine, retrying
//!   transient faults with exponential backoff ([`RecoveryPolicy::Retry`]),
//!   recovered at least one command (`recovered_runs / runs`);
//! * **completion rate** — fraction of runs that complete under that
//!   same retry policy (`completed / runs`);
//! * **guarded-throughput overhead** — wall-clock cost of the faulted
//!   sweep relative to a clean sweep of the same size, plus the virtual
//!   RABIT overhead per run (retry backoff included).
//!
//! Writes `BENCH_faults.json` and prints the results as a table. Run
//! with `cargo run --release -p rabit-bench --bin faults`; `--quick`
//! runs a reduced pass for CI smoke checks.

use rabit_bench::report::render_table;
use rabit_buginject::{fault_families, run_fault_family_on, FamilyResult};
use rabit_core::{FaultPlan, RecoveryPolicy, RetryPolicy, Stage, Substrate};
use rabit_testbed::TestbedSubstrate;
use rabit_util::{Json, ToJson};
use std::time::Instant;

/// Best-of-N wall-clock seconds for `f`.
fn measure(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct FamilyRow {
    alerted: FamilyResult,
    retried: FamilyResult,
    wall_s: f64,
}

fn family_json(row: &FamilyRow, clean_wall_s: f64, clean_overhead_s: f64) -> Json {
    let a = &row.alerted;
    let r = &row.retried;
    let recovery = &r.counters.recovery;
    Json::obj([
        ("family", Json::Str(a.family.clone())),
        ("runs", Json::Num(a.runs as f64)),
        ("faults_injected", a.counters.faults_injected.to_json()),
        ("detected_runs", Json::Num(a.detected as f64)),
        ("detection_rate", Json::Num(a.detection_rate())),
        ("device_fault_runs", Json::Num(a.device_faults as f64)),
        ("recovered_runs", Json::Num(r.recovered_runs as f64)),
        ("recovery_rate", Json::Num(r.recovery_rate())),
        ("completed_runs", Json::Num(r.completed as f64)),
        ("completion_rate", Json::Num(r.completion_rate())),
        ("retries", Json::Num(recovery.retries as f64)),
        ("quarantined", Json::Num(recovery.quarantined as f64)),
        ("mean_overhead_seconds", Json::Num(r.mean_overhead_s)),
        (
            "overhead_vs_clean_virtual",
            Json::Num(if clean_overhead_s > 0.0 {
                r.mean_overhead_s / clean_overhead_s
            } else {
                0.0
            }),
        ),
        ("sweep_wall_seconds", Json::Num(row.wall_s)),
        (
            "overhead_vs_clean_wall",
            Json::Num(if clean_wall_s > 0.0 {
                row.wall_s / clean_wall_s
            } else {
                0.0
            }),
        ),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, repeats, threads) = if quick { (4, 1, 2) } else { (16, 3, 4) };
    let seed = 0xFA_17;

    let substrate = TestbedSubstrate::for_stage(Stage::Testbed);
    let retry = RecoveryPolicy::Retry(RetryPolicy::default());

    // --- Clean baseline: the same sweep with nothing injected -------------
    let empty = FaultPlan::none();
    let mut clean = None;
    let clean_wall_s = measure(repeats, || {
        clean = Some(run_fault_family_on(
            &substrate,
            "none",
            &empty,
            runs,
            threads,
            RecoveryPolicy::AlertImmediately,
        ));
    });
    let clean = clean.expect("at least one clean sweep ran");
    assert_eq!(
        clean.counters.faults_injected, 0,
        "the empty plan must inject nothing"
    );
    assert_eq!(clean.completed, runs, "clean runs must all complete");

    // --- Faulted sweeps, one per family -----------------------------------
    let rows: Vec<FamilyRow> = fault_families(seed)
        .into_iter()
        .map(|(family, plan)| {
            let mut alerted = None;
            let wall_s = measure(repeats, || {
                alerted = Some(run_fault_family_on(
                    &substrate,
                    family,
                    &plan,
                    runs,
                    threads,
                    RecoveryPolicy::AlertImmediately,
                ));
            });
            let retried = run_fault_family_on(&substrate, family, &plan, runs, threads, retry);
            FamilyRow {
                alerted: alerted.expect("at least one sweep ran"),
                retried,
                wall_s,
            }
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.alerted.family.clone(),
                row.alerted.counters.faults_injected.to_string(),
                format!("{:.2}", row.alerted.detection_rate()),
                format!("{:.2}", row.retried.recovery_rate()),
                format!("{:.2}", row.retried.completion_rate()),
                row.retried.counters.recovery.retries.to_string(),
                format!("{:.2}", row.retried.mean_overhead_s),
                format!("{:.2}x", row.wall_s / clean_wall_s.max(1e-12)),
            ]
        })
        .collect();
    println!(
        "Fault families on {} ({runs} runs each, {threads} threads, best of {repeats})\n",
        substrate.name()
    );
    println!(
        "{}",
        render_table(
            &[
                "family",
                "injected",
                "detect rate",
                "recover rate",
                "complete rate",
                "retries",
                "overhead s/run",
                "wall vs clean"
            ],
            &table
        )
    );

    // --- BENCH_faults.json -------------------------------------------------
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("seed", Json::Num(seed as f64)),
        ("runs_per_family", Json::Num(runs as f64)),
        ("threads", Json::Num(threads as f64)),
        ("substrate", Json::Str(substrate.name().to_string())),
    ]);
    let results = Json::obj([
        (
            "clean_baseline",
            Json::obj([
                ("sweep_wall_seconds", Json::Num(clean_wall_s)),
                ("mean_overhead_seconds", Json::Num(clean.mean_overhead_s)),
                ("mean_lab_time_seconds", Json::Num(clean.mean_lab_time_s)),
            ]),
        ),
        (
            "families",
            Json::Arr(
                rows.iter()
                    .map(|row| family_json(row, clean_wall_s, clean.mean_overhead_s))
                    .collect(),
            ),
        ),
    ]);
    rabit_bench::schema::write_artifact("faults", config, results);
}

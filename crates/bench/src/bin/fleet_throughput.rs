//! Fleet-executor throughput benchmark.
//!
//! Measures guarded workflow runs per second, serial versus the fleet
//! worker pool. Writes the results to `BENCH_fleet.json` and prints them
//! as a table.
//!
//! Run with `cargo run --release -p rabit-bench --bin fleet_throughput`.
//! `--quick` runs a reduced calibration pass for CI smoke checks.
//!
//! Thread counts above the machine's available parallelism are skipped
//! (and recorded as skipped in the JSON): oversubscribed workers only
//! measure scheduler noise, not fleet throughput.

use rabit_bench::report::render_table;
use rabit_buginject::RabitStage;
use rabit_core::Substrate;
use rabit_testbed::{workflows, Testbed, TestbedSubstrate};
use rabit_tracer::{run_fleet_on, Workflow};
use rabit_util::Json;
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

fn fleet_workflows(runs: usize) -> Vec<Workflow> {
    let template = Testbed::new();
    (0..runs)
        .map(|_| workflows::fig5_safe_workflow(&template.locations))
        .collect()
}

fn fleet_seconds(wfs: &[Workflow], threads: usize, repeats: usize) -> f64 {
    let substrate = TestbedSubstrate::study(RabitStage::ModifiedWithSimulator);
    let jobs: Vec<(&dyn Substrate, &Workflow)> =
        wfs.iter().map(|wf| (&substrate as _, wf)).collect();
    measure(repeats, || {
        let fleet = run_fleet_on(&jobs, threads);
        assert_eq!(
            fleet.completed_runs(),
            wfs.len(),
            "safe fleet must complete"
        );
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (fleet_runs, repeats) = if quick { (8, 1) } else { (64, 3) };

    // --- Fleet throughput -------------------------------------------------
    let wfs = fleet_workflows(fleet_runs);
    let serial_s = fleet_seconds(&wfs, 1, repeats);
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Thread counts the machine cannot actually run in parallel are
    // skipped: they would only benchmark the scheduler.
    let (to_run, skipped): (Vec<usize>, Vec<usize>) =
        [2usize, 4, 8].into_iter().partition(|&t| t <= hw_threads);
    let threaded: Vec<(usize, f64)> = to_run
        .into_iter()
        .map(|t| (t, fleet_seconds(&wfs, t, repeats)))
        .collect();

    let mut rows = vec![vec![
        "1".to_string(),
        format!("{serial_s:.3}"),
        format!("{:.1}", fleet_runs as f64 / serial_s),
        "1.00".to_string(),
    ]];
    for (t, s) in &threaded {
        rows.push(vec![
            t.to_string(),
            format!("{s:.3}"),
            format!("{:.1}", fleet_runs as f64 / s),
            format!("{:.2}", serial_s / s),
        ]);
    }
    println!("Fleet throughput ({fleet_runs} guarded testbed runs)\n");
    println!(
        "{}",
        render_table(&["threads", "seconds", "runs/sec", "speedup"], &rows)
    );
    if !skipped.is_empty() {
        println!(
            "skipped thread counts {skipped:?}: only {hw_threads} hardware thread(s) available\n"
        );
    }

    // --- BENCH_fleet.json -------------------------------------------------
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("fleet_runs", Json::Num(fleet_runs as f64)),
        ("repeats", Json::Num(repeats as f64)),
        ("hardware_threads", Json::Num(hw_threads as f64)),
    ]);
    let results = Json::obj([(
        "fleet",
        Json::obj([
            ("runs", Json::Num(fleet_runs as f64)),
            ("hardware_threads", Json::Num(hw_threads as f64)),
            (
                "serial",
                Json::obj([
                    ("threads", Json::Num(1.0)),
                    ("seconds", Json::Num(serial_s)),
                    ("runs_per_sec", Json::Num(fleet_runs as f64 / serial_s)),
                ]),
            ),
            (
                "threaded",
                Json::Arr(
                    threaded
                        .iter()
                        .map(|(t, s)| {
                            Json::obj([
                                ("threads", Json::Num(*t as f64)),
                                ("seconds", Json::Num(*s)),
                                ("runs_per_sec", Json::Num(fleet_runs as f64 / s)),
                                ("speedup_vs_serial", Json::Num(serial_s / s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "skipped_thread_counts",
                Json::Arr(skipped.iter().map(|&t| Json::Num(t as f64)).collect()),
            ),
            (
                "skip_reason",
                if skipped.is_empty() {
                    Json::Null
                } else {
                    Json::Str(format!(
                        "only {hw_threads} hardware thread(s) available; \
                             oversubscribed counts measure scheduler noise"
                    ))
                },
            ),
        ]),
    )]);
    rabit_bench::schema::write_artifact("fleet", config, results);
}

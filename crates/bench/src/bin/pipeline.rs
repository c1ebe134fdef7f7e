//! Promotion-pipeline benchmark.
//!
//! Exercises the canonical three-stage testbed pipeline
//! (`Testbed::pipeline()`: Extended Simulator → physical testbed →
//! production profile) end to end:
//!
//! * **per-stage throughput** — guarded runs of the safe Fig. 5 workflow
//!   per wall-clock second, including per-run lab + engine construction
//!   (a fresh substrate instantiation is part of what a stage costs);
//! * **per-stage detection** — how many of the 16 catalogued bugs each
//!   stage's configuration detects (13 with the simulator attached, 12
//!   on the physical profiles);
//! * **promotion wall-time** — the full gated promotion of the safe
//!   workflow through all stages, and of a buggy one that the first
//!   stage must block.
//!
//! Writes `BENCH_pipeline.json` and prints the results as tables. Run
//! with `cargo run --release -p rabit-bench --bin pipeline`; `--quick`
//! runs a reduced pass for CI smoke checks.

use rabit_bench::report::render_table;
use rabit_buginject::{catalog, run_study_on};
use rabit_core::{RunCounters, Stage, Substrate};
use rabit_testbed::{locations, workflows, Testbed};
use rabit_tracer::{FleetJob, PipelineReport, StagePipeline, Workflow};
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

struct StageRow {
    stage: Stage,
    substrate: String,
    commands_per_sec: f64,
    lab_time_s: f64,
    detected: usize,
    suite_len: usize,
    counters: RunCounters,
}

/// Measures one pipeline stage: guarded Fig. 5 throughput plus the
/// 16-bug detection count of the stage's configuration.
fn profile_stage(
    substrate: &dyn Substrate,
    wf: &Workflow,
    runs: usize,
    repeats: usize,
) -> StageRow {
    let mut executed = 0u64;
    let mut lab_time_s = 0.0;
    let mut counters = RunCounters::default();
    let wall_s = measure(repeats, || {
        executed = 0;
        lab_time_s = 0.0;
        counters = RunCounters::default();
        for _ in 0..runs {
            let (run, _lab) = FleetJob {
                substrate,
                workflow: wf,
                fault: None,
                guarded: true,
                snapshot: None,
            }
            .execute();
            let report = run.report;
            assert!(
                report.completed(),
                "safe workflow alerted at {}: {:?}",
                substrate.name(),
                report.alert
            );
            executed += report.executed as u64;
            lab_time_s += report.lab_time_s;
            counters.merge(&report.counters);
        }
    });
    let study = run_study_on(substrate);
    StageRow {
        stage: substrate.stage(),
        substrate: substrate.name().to_string(),
        commands_per_sec: executed as f64 / wall_s,
        lab_time_s,
        detected: study.detected(),
        suite_len: study.outcomes.len(),
        counters,
    }
}

/// Times one gated promotion, returning the report of the final run.
fn timed_promotion(
    pipeline: &StagePipeline,
    wf: &Workflow,
    repeats: usize,
) -> (PipelineReport, f64) {
    let mut report = None;
    let wall_s = measure(repeats, || {
        report = Some(pipeline.promote(wf));
    });
    (report.expect("at least one promotion ran"), wall_s)
}

fn promotion_json(report: &PipelineReport, wall_s: f64) -> Json {
    Json::obj([
        ("workflow", Json::Str(report.workflow.clone())),
        ("deployed", Json::Bool(report.deployed())),
        (
            "blocked_at",
            report
                .blocked_at()
                .map_or(Json::Null, |s| Json::Str(s.name().to_string())),
        ),
        ("stages_run", Json::Num(report.stages.len() as f64)),
        ("wall_seconds", Json::Num(wall_s)),
        ("virtual_cost_seconds", Json::Num(report.total_cost_s())),
        ("damage_events", Json::Num(report.total_damage() as f64)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, repeats) = if quick { (4, 1) } else { (16, 3) };

    let pipeline = Testbed::pipeline();
    let loc = locations();
    let safe = workflows::fig5_safe_workflow(&loc);

    // --- Per-stage throughput + detection ---------------------------------
    let rows: Vec<StageRow> = pipeline
        .substrates()
        .iter()
        .map(|s| profile_stage(s.as_ref(), &safe, runs, repeats))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.stage.name().to_string(),
                r.substrate.clone(),
                format!("{:.0}", r.commands_per_sec),
                format!("{}/{}", r.detected, r.suite_len),
                r.counters
                    .cache_hit_rate()
                    .map_or("-".to_string(), |rate| format!("{rate:.2}")),
            ]
        })
        .collect();
    println!("Pipeline stages ({runs} guarded runs each, best of {repeats})\n");
    println!(
        "{}",
        render_table(
            &[
                "stage",
                "substrate",
                "cmds/sec",
                "detected",
                "cache hit rate"
            ],
            &table
        )
    );

    // --- Gated promotions -------------------------------------------------
    let (safe_report, safe_s) = timed_promotion(&pipeline, &safe, repeats);
    assert!(safe_report.deployed(), "the safe workflow must deploy");
    // The first catalogued bug (Bug A's shape) must be blocked at the
    // simulator stage: its unsafe command never reaches a physical stage.
    let bugs = catalog();
    let buggy = bugs[0].buggy_workflow(&loc);
    let (buggy_report, buggy_s) = timed_promotion(&pipeline, &buggy, repeats);
    assert!(
        !buggy_report.deployed(),
        "the buggy workflow must be blocked"
    );
    assert_eq!(buggy_report.blocked_at(), Some(Stage::Simulator));

    println!(
        "promotion '{}': deployed through {} stage(s) in {:.3}s wall \
         ({:.0}s virtual incl. setup)",
        safe_report.workflow,
        safe_report.stages.len(),
        safe_s,
        safe_report.total_cost_s()
    );
    println!(
        "promotion '{}': blocked at {} in {:.3}s wall, {} damage events\n",
        buggy_report.workflow,
        buggy_report.blocked_at().expect("blocked").name(),
        buggy_s,
        buggy_report.total_damage()
    );

    // --- BENCH_pipeline.json ----------------------------------------------
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("runs_per_stage", Json::Num(runs as f64)),
    ]);
    let results = Json::obj([
        (
            "stages",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("stage", Json::Str(r.stage.name().to_string())),
                            ("substrate", Json::Str(r.substrate.clone())),
                            ("commands_per_sec", Json::Num(r.commands_per_sec)),
                            ("virtual_lab_seconds", Json::Num(r.lab_time_s)),
                            ("bugs_detected", Json::Num(r.detected as f64)),
                            ("bug_suite_size", Json::Num(r.suite_len as f64)),
                            ("cache_hits", Json::Num(r.counters.cache_hits as f64)),
                            ("cache_misses", Json::Num(r.counters.cache_misses as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "promotions",
            Json::obj([
                ("safe", promotion_json(&safe_report, safe_s)),
                ("buggy", promotion_json(&buggy_report, buggy_s)),
            ]),
        ),
    ]);
    rabit_bench::schema::write_artifact("pipeline", config, results);
}

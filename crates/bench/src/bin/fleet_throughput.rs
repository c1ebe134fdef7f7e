//! Fleet-executor and broad-phase throughput benchmark.
//!
//! Measures (1) guarded workflow runs per second, serial versus the
//! fleet worker pool, and (2) the collision-check speedup of the
//! BVH broad phase over the exhaustive scan at 8/64/256 devices. Writes
//! the results to `BENCH_fleet.json` and prints them as a table.
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
use rabit_geometry::{Aabb, Vec3};
use rabit_kinematics::presets;
use rabit_kinematics::trajectory::Trajectory;
use rabit_sim::SimWorld;
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

/// A deck of `n` device cuboids ringed around the arm, nearest first:
/// the inner ring sits just outside the sweep so it draws real narrow
/// checks, while the outer cells are pure broad-phase fodder.
fn lattice_world(n: usize) -> SimWorld {
    let mut cells: Vec<(f64, f64)> = Vec::new();
    for gx in -20i32..20 {
        for gy in -20i32..20 {
            let (x, y) = (gx as f64 * 0.3, gy as f64 * 0.3);
            if x.hypot(y) >= 0.55 {
                cells.push((x, y));
            }
        }
    }
    cells.sort_by(|a, b| {
        a.0.hypot(a.1)
            .total_cmp(&b.0.hypot(b.1))
            .then(a.partial_cmp(b).unwrap())
    });
    let mut world = SimWorld::new();
    for (i, (x, y)) in cells.into_iter().take(n).enumerate() {
        world.add_obstacle(
            format!("dev{i}"),
            Aabb::new(Vec3::new(x, y, 0.0), Vec3::new(x + 0.2, y + 0.2, 0.25)),
        );
    }
    world
}

struct BroadPhaseRow {
    devices: usize,
    pruned_s: f64,
    exhaustive_s: f64,
    narrow_pruned: u64,
    narrow_exhaustive: u64,
}

fn broadphase_row(devices: usize, repeats: usize) -> BroadPhaseRow {
    let world = lattice_world(devices);
    let arm = presets::ur3e();
    let traj = Trajectory::linear(arm.home_configuration(), arm.sleep_configuration());
    let poses = traj.sample(64);
    let capsule_sets: Vec<_> = poses.iter().map(|q| arm.link_capsules(q, None)).collect();

    let mut narrow_pruned = 0;
    let mut narrow_exhaustive = 0;
    let pruned_s = measure(repeats, || {
        narrow_pruned = 0;
        for caps in &capsule_sets {
            let (_, tested) = world.first_hit_counting(&caps[1..], &[], true);
            narrow_pruned += tested;
        }
    });
    let exhaustive_s = measure(repeats, || {
        narrow_exhaustive = 0;
        for caps in &capsule_sets {
            let (_, tested) = world.first_hit_counting(&caps[1..], &[], false);
            narrow_exhaustive += tested;
        }
    });
    BroadPhaseRow {
        devices,
        pruned_s,
        exhaustive_s,
        narrow_pruned,
        narrow_exhaustive,
    }
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

    // --- Broad-phase speedup ---------------------------------------------
    let bp_sizes: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let bp: Vec<BroadPhaseRow> = bp_sizes
        .iter()
        .map(|&d| broadphase_row(d, repeats))
        .collect();
    let bp_rows: Vec<Vec<String>> = bp
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                format!("{:.1}", r.exhaustive_s * 1e3),
                format!("{:.1}", r.pruned_s * 1e3),
                format!("{:.2}", r.exhaustive_s / r.pruned_s),
                format!("{}", r.narrow_exhaustive),
                format!("{}", r.narrow_pruned),
            ]
        })
        .collect();
    println!("Broad-phase pruning (64-pose sweep, best of {repeats})\n");
    println!(
        "{}",
        render_table(
            &[
                "devices",
                "exhaustive ms",
                "pruned ms",
                "speedup",
                "narrow tests (exh)",
                "narrow tests (bvh)",
            ],
            &bp_rows
        )
    );

    // --- BENCH_fleet.json -------------------------------------------------
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("fleet_runs", Json::Num(fleet_runs as f64)),
        ("repeats", Json::Num(repeats as f64)),
        ("hardware_threads", Json::Num(hw_threads as f64)),
    ]);
    let results = Json::obj([
        (
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
        ),
        (
            "broadphase",
            Json::Arr(
                bp.iter()
                    .map(|r| {
                        Json::obj([
                            ("devices", Json::Num(r.devices as f64)),
                            ("exhaustive_seconds", Json::Num(r.exhaustive_s)),
                            ("pruned_seconds", Json::Num(r.pruned_s)),
                            ("speedup", Json::Num(r.exhaustive_s / r.pruned_s)),
                            (
                                "narrow_tests_exhaustive",
                                Json::Num(r.narrow_exhaustive as f64),
                            ),
                            ("narrow_tests_pruned", Json::Num(r.narrow_pruned as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    rabit_bench::schema::write_artifact("fleet", config, results);
}

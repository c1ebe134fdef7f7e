//! Hot-path benchmark: rule dispatch, verdict caching, and
//! allocation-free sweeps.
//!
//! Three layers, measured separately and end to end:
//!
//! 1. **Rule dispatch** — ns/command for the linear reference scan
//!    (`check_linear`, the pre-index behaviour) versus the
//!    signature-indexed scan (`check`), over the standard-rulebase
//!    testbed scenario.
//! 2. **Verdict cache** — ns/validation for the Extended Simulator on a
//!    repeated-motion workflow with the cache off versus on, plus the
//!    achieved hit rate.
//! 3. **Fleet scenario end to end** — serial ns/command for guarded
//!    fig5 workflow runs in the *before* configuration (no verdict
//!    cache) versus the *after* configuration (verdict cache on), with
//!    allocations per command from a counting global allocator.
//!
//! Writes `BENCH_hotpath.json` and prints the tables. `--quick` runs a
//! reduced calibration pass for CI smoke checks.
//!
//! Run with `cargo run --release -p rabit-bench --bin hotpath`.

use rabit_bench::report::render_table;
use rabit_buginject::RabitStage;
use rabit_core::TrajectoryValidator;
use rabit_devices::{ActionKind, Command, DeviceId, DeviceState, LabState, StateKey};
use rabit_testbed::{workflows, Testbed};
use rabit_tracer::Tracer;
use rabit_util::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts allocation calls, so the bench
/// can report allocations per command on the hot path.
struct CountingAlloc;

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// 1. Rule dispatch
// ---------------------------------------------------------------------

struct DispatchResult {
    commands: usize,
    iters: usize,
    linear_ns: f64,
    indexed_ns: f64,
}

fn bench_rule_dispatch(iters: usize) -> DispatchResult {
    let mut tb = Testbed::new();
    let rabit = tb.rabit(RabitStage::Modified);
    let rulebase = rabit.rulebase();
    let catalog = rabit.catalog();
    let state = tb.lab.fetch_state();
    let wf = workflows::fig5_safe_workflow(&tb.locations);
    let commands = wf.commands();

    let mut sink = 0usize;
    let mut time = |f: &mut dyn FnMut() -> usize| -> f64 {
        let t0 = Instant::now();
        let mut acc = 0;
        for _ in 0..iters {
            acc += f();
        }
        let dt = t0.elapsed().as_secs_f64();
        sink += acc;
        dt / (iters * commands.len()) as f64 * 1e9
    };

    let linear_ns = time(&mut || {
        commands
            .iter()
            .map(|c| rulebase.check_linear(c, &state, catalog).len())
            .sum()
    });
    let indexed_ns = time(&mut || {
        commands
            .iter()
            .map(|c| rulebase.check(c, &state, catalog).len())
            .sum()
    });
    assert!(sink < usize::MAX, "keep the work observable");
    DispatchResult {
        commands: commands.len(),
        iters,
        linear_ns,
        indexed_ns,
    }
}

// ---------------------------------------------------------------------
// 2. Verdict cache on a repeated-motion workflow
// ---------------------------------------------------------------------

struct CacheResult {
    validations: usize,
    uncached_ns: f64,
    cached_ns: f64,
    hits: u64,
    misses: u64,
}

fn repeated_motion_commands(tb: &Testbed) -> Vec<Command> {
    // A pick-place shuttle: the arm cycles the same three poses over and
    // over, the shape of a plate-stamping or grid-filling workflow.
    let grid = tb.locations.grid_nw_viperx;
    let dose = tb.locations.dosing_viperx;
    vec![
        Command::new(
            "viperx",
            ActionKind::MoveToLocation {
                target: grid.pickup_safe_height,
            },
        ),
        Command::new(
            "viperx",
            ActionKind::MoveToLocation {
                target: dose.approach,
            },
        ),
        Command::new("viperx", ActionKind::MoveHome),
    ]
}

fn bench_verdict_cache(laps: usize) -> CacheResult {
    let tb = Testbed::new();
    let commands = repeated_motion_commands(&tb);
    let mut state = LabState::new();
    state.insert(
        "viperx",
        DeviceState::new().with(StateKey::Holding, None::<DeviceId>),
    );

    let run = |cache: bool| -> (f64, u64, u64) {
        let mut sim = tb.extended_simulator(false);
        sim.config_mut().verdict_cache = cache;
        let t0 = Instant::now();
        for _ in 0..laps {
            for cmd in &commands {
                let _ = sim.validate(cmd, &state);
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        (
            dt / (laps * commands.len()) as f64 * 1e9,
            sim.cache_hits(),
            sim.cache_misses(),
        )
    };

    let (uncached_ns, _, _) = run(false);
    let (cached_ns, hits, misses) = run(true);
    CacheResult {
        validations: laps * commands.len(),
        uncached_ns,
        cached_ns,
        hits,
        misses,
    }
}

// ---------------------------------------------------------------------
// 3. Fleet scenario end to end
// ---------------------------------------------------------------------

struct FleetScenarioResult {
    laps: usize,
    commands_per_lap: usize,
    before_ns: f64,
    after_ns: f64,
    before_allocs_per_cmd: f64,
    after_allocs_per_cmd: f64,
    hits: u64,
    misses: u64,
}

/// Serial guarded runs of the fig5 safe workflow, one engine kept alive
/// across laps (as a deployed RABIT instance is). `before` disables the
/// verdict cache; `after` is the shipped hot path.
fn bench_fleet_scenario(laps: usize, after: bool) -> (f64, f64, u64, u64, usize) {
    let tb = Testbed::new();
    let wf = workflows::fig5_safe_workflow(&tb.locations);
    let mut sim = tb.extended_simulator(false);
    sim.config_mut().verdict_cache = after;
    let mut rabit = tb.rabit(RabitStage::Modified).with_validator(Box::new(sim));

    // Warm-up lap: populates the verdict cache (after-config) and the
    // allocator's size classes (both configs), so the measurement sees
    // the steady state a long-lived deployment runs in.
    let mut lab = Testbed::new().lab;
    let warm = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
    assert!(warm.completed(), "fig5 safe workflow must complete");

    let mut labs: Vec<_> = (0..laps).map(|_| Testbed::new().lab).collect();
    let alloc0 = allocations();
    let t0 = Instant::now();
    for lab in &mut labs {
        let report = Tracer::guarded(lab, &mut rabit).run(&wf);
        assert!(report.completed(), "fig5 safe workflow must complete");
    }
    let dt = t0.elapsed().as_secs_f64();
    let allocs = allocations() - alloc0;
    let total_cmds = laps * wf.len();
    let (hits, misses) = rabit.validator_cache_stats();
    (
        dt / total_cmds as f64 * 1e9,
        allocs as f64 / total_cmds as f64,
        hits,
        misses,
        wf.len(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (dispatch_iters, cache_laps, fleet_laps) =
        if quick { (200, 64, 4) } else { (2000, 512, 24) };

    // --- 1. Rule dispatch -------------------------------------------------
    let d = bench_rule_dispatch(dispatch_iters);
    println!(
        "Rule dispatch ({} commands x {} iters, standard testbed rulebase)\n",
        d.commands, d.iters
    );
    println!(
        "{}",
        render_table(
            &["path", "ns/command", "speedup vs linear"],
            &[
                vec![
                    "linear scan".into(),
                    format!("{:.0}", d.linear_ns),
                    "1.00".into()
                ],
                vec![
                    "indexed".into(),
                    format!("{:.0}", d.indexed_ns),
                    format!("{:.2}", d.linear_ns / d.indexed_ns)
                ],
            ]
        )
    );

    // --- 2. Verdict cache -------------------------------------------------
    let c = bench_verdict_cache(cache_laps);
    let hit_rate = c.hits as f64 / (c.hits + c.misses) as f64;
    println!(
        "Verdict cache (repeated-motion workflow, {} validations)\n",
        c.validations
    );
    println!(
        "{}",
        render_table(
            &["config", "ns/validation", "speedup", "hit rate"],
            &[
                vec![
                    "cache off".into(),
                    format!("{:.0}", c.uncached_ns),
                    "1.00".into(),
                    "-".into()
                ],
                vec![
                    "cache on".into(),
                    format!("{:.0}", c.cached_ns),
                    format!("{:.2}", c.uncached_ns / c.cached_ns),
                    format!("{:.1}%", hit_rate * 100.0)
                ],
            ]
        )
    );

    // --- 3. Fleet scenario ------------------------------------------------
    let (before_ns, before_allocs, _, _, cmds_per_lap) = bench_fleet_scenario(fleet_laps, false);
    let (after_ns, after_allocs, hits, misses, _) = bench_fleet_scenario(fleet_laps, true);
    let f = FleetScenarioResult {
        laps: fleet_laps,
        commands_per_lap: cmds_per_lap,
        before_ns,
        after_ns,
        before_allocs_per_cmd: before_allocs,
        after_allocs_per_cmd: after_allocs,
        hits,
        misses,
    };
    let fleet_hit_rate = f.hits as f64 / (f.hits + f.misses).max(1) as f64;
    println!(
        "Fleet scenario end to end ({} laps x {} commands, serial guarded runs)\n",
        f.laps, f.commands_per_lap
    );
    println!(
        "{}",
        render_table(
            &["config", "ns/command", "allocs/command", "speedup"],
            &[
                vec![
                    "before (no verdict cache)".into(),
                    format!("{:.0}", f.before_ns),
                    format!("{:.1}", f.before_allocs_per_cmd),
                    "1.00".into()
                ],
                vec![
                    "after (verdict cache)".into(),
                    format!("{:.0}", f.after_ns),
                    format!("{:.1}", f.after_allocs_per_cmd),
                    format!("{:.2}", f.before_ns / f.after_ns)
                ],
            ]
        )
    );
    println!(
        "fleet verdict-cache hit rate: {:.1}%",
        fleet_hit_rate * 100.0
    );

    // --- BENCH_hotpath.json -----------------------------------------------
    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("dispatch_iters", Json::Num(dispatch_iters as f64)),
        ("cache_laps", Json::Num(cache_laps as f64)),
        ("fleet_laps", Json::Num(fleet_laps as f64)),
    ]);
    let results = Json::obj([
        (
            "rule_dispatch",
            Json::obj([
                ("commands", Json::Num(d.commands as f64)),
                ("iters", Json::Num(d.iters as f64)),
                ("linear_ns_per_command", Json::Num(d.linear_ns)),
                ("indexed_ns_per_command", Json::Num(d.indexed_ns)),
                ("indexed_speedup", Json::Num(d.linear_ns / d.indexed_ns)),
            ]),
        ),
        (
            "verdict_cache",
            Json::obj([
                ("validations", Json::Num(c.validations as f64)),
                ("uncached_ns_per_validation", Json::Num(c.uncached_ns)),
                ("cached_ns_per_validation", Json::Num(c.cached_ns)),
                ("speedup", Json::Num(c.uncached_ns / c.cached_ns)),
                ("hits", Json::Num(c.hits as f64)),
                ("misses", Json::Num(c.misses as f64)),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ),
        (
            "fleet_scenario",
            Json::obj([
                ("workflow", Json::Str("fig5_safe".into())),
                ("laps", Json::Num(f.laps as f64)),
                ("commands_per_lap", Json::Num(f.commands_per_lap as f64)),
                ("before_ns_per_command", Json::Num(f.before_ns)),
                ("after_ns_per_command", Json::Num(f.after_ns)),
                ("speedup", Json::Num(f.before_ns / f.after_ns)),
                (
                    "before_allocations_per_command",
                    Json::Num(f.before_allocs_per_cmd),
                ),
                (
                    "after_allocations_per_command",
                    Json::Num(f.after_allocs_per_cmd),
                ),
                ("cache_hits", Json::Num(f.hits as f64)),
                ("cache_misses", Json::Num(f.misses as f64)),
                ("cache_hit_rate", Json::Num(fleet_hit_rate)),
            ]),
        ),
    ]);
    rabit_bench::schema::write_artifact("hotpath", config, results);
}

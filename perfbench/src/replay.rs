//! The replay workloads: one long-lived guarded engine driven through
//! `Rabit::step` in a closed loop (one client), a fresh testbed lab and
//! `Rabit::initialize` per lap, laps cycling a seeded pool of Fig. 5
//! variants.
//!
//! `replay_cached` keeps the verdict cache on (the deployed default);
//! `replay_sweep` turns it off so every motion sweeps. Both run the
//! Extended Simulator headless on a 10 ms polling grid with every other
//! `SimConfig` field at its default.

use crate::alloc::{allocations, set_counting};
use crate::edits::EditService;
use crate::metrics::{EndToEnd, Layers};
use crate::probe::{Probe, ProbeShared, ValidateCall};
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::{nanos, run_workload, study_tenants, Args, Measured, Trace, Window};
use rabit_core::{Rabit, StepOutcome, TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::LatencyModel;
use rabit_geometry::Vec3;
use rabit_rulebase::transition;
use rabit_sim::ExtendedSimulator;
use rabit_testbed::{locations, rulebase_for, workflows, RabitStage, Testbed};
use rabit_tracer::Workflow;
use rabit_util::{Json, Rng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fig. 5 variants in the pool. With ~20 motions each, the pool's
/// verdicts stay far below the simulator's 512-entry verdict cache.
pub const POOL_SIZE: usize = 8;
/// Seeded offset bound (m, per axis) on transit waypoints.
const TRANSIT_JITTER_M: f64 = 0.01;
/// The simulator's polling grid (s of motion).
const POLL_INTERVAL_S: f64 = 0.01;
/// Warm-up rounds over the pool before timing.
const WARMUP_ROUNDS: usize = 2;
/// Spans kept in memory for the span file.
const SPAN_CAPACITY: usize = 60_000;

/// The seeded pool: Fig. 5 with its transit waypoints (safe heights and
/// the dosing approach) moved by up to ±1 cm per axis. Pick and place
/// points stay fixed.
pub fn variant_pool(seed: u64) -> Vec<Workflow> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut jitter = |v: &mut Vec3| {
        v.x += rng.random_range(-TRANSIT_JITTER_M..TRANSIT_JITTER_M);
        v.y += rng.random_range(-TRANSIT_JITTER_M..TRANSIT_JITTER_M);
        v.z += rng.random_range(-TRANSIT_JITTER_M..TRANSIT_JITTER_M);
    };
    (0..POOL_SIZE)
        .map(|k| {
            let mut loc = locations();
            jitter(&mut loc.grid_nw_viperx.pickup_safe_height);
            jitter(&mut loc.dosing_viperx.approach);
            jitter(&mut loc.grid_nw_ned2.pickup_safe_height);
            workflows::fig5_safe_workflow(&loc).renamed(format!("fig5_variant_{k}"))
        })
        .collect()
}

/// The headless testbed simulator on the 10 ms grid.
fn simulator(verdict_cache: bool, dense_sampling: bool) -> ExtendedSimulator {
    let mut sim = Testbed::build_extended_simulator(false);
    let config = sim.config_mut();
    config.poll_interval_s = POLL_INTERVAL_S;
    config.verdict_cache = verdict_cache;
    config.dense_sampling = dense_sampling;
    sim
}

/// A Modified-with-Simulator engine over the testbed catalog.
fn engine(validator: Option<Box<dyn TrajectoryValidator>>) -> Rabit {
    let builder = Rabit::builder()
        .rulebase(rulebase_for(RabitStage::ModifiedWithSimulator))
        .catalog(Testbed::build_catalog());
    match validator {
        Some(v) => builder.validator(v),
        None => builder,
    }
    .build()
}

fn fresh_lab() -> rabit_core::Lab {
    Testbed::build_lab(LatencyModel::TESTBED)
}

/// Checks the pool: every variant completes, and the workload's
/// validator agrees with the `dense_sampling` reference on every
/// motion, over two rounds (the second served from the verdict cache
/// when it is on). Returns the number of verdicts compared.
fn verify_pool(pool: &[Workflow], verdict_cache: bool) -> Result<u64, String> {
    let mut fast = simulator(verdict_cache, false);
    let mut reference = simulator(false, true);
    let mut rabit = engine(None);
    let mut compared = 0;
    for _round in 0..2 {
        for wf in pool {
            let mut lab = fresh_lab();
            rabit.initialize(&mut lab);
            for cmd in wf.commands() {
                if cmd.action.is_robot_motion() {
                    let got = fast.validate(cmd, rabit.current_state());
                    let want = reference.validate(cmd, rabit.current_state());
                    compared += 1;
                    if got != want {
                        return Err(format!(
                            "{}: {cmd}: verdict {got:?}, dense reference {want:?}",
                            wf.name()
                        ));
                    }
                    if matches!(got, TrajectoryVerdict::Collision(_)) {
                        return Err(format!("{}: {cmd} collides: {got:?}", wf.name()));
                    }
                }
                match rabit.step(&mut lab, cmd) {
                    Ok(StepOutcome::Executed) => {}
                    other => return Err(format!("{}: {cmd}: {other:?}", wf.name())),
                }
            }
        }
    }
    Ok(compared)
}

/// Runs one untimed lap, failing on anything but a clean execution.
fn lap(rabit: &mut Rabit, wf: &Workflow) -> Result<(), String> {
    let mut lab = fresh_lab();
    rabit.initialize(&mut lab);
    for cmd in wf.commands() {
        match rabit.step(&mut lab, cmd) {
            Ok(StepOutcome::Executed) => {}
            other => return Err(format!("{}: {cmd}: {other:?}", wf.name())),
        }
    }
    Ok(())
}

/// Everything set-up produces besides the edit service.
struct Setup {
    pool: Vec<Workflow>,
    rabit: Rabit,
    probe: Option<Arc<ProbeShared>>,
    compared: u64,
}

fn setup(seed: u64, verdict_cache: bool, traced: bool) -> Result<(Setup, EditService), String> {
    let pool = variant_pool(seed);
    let compared = verify_pool(&pool, verdict_cache)?;
    let sim = simulator(verdict_cache, false);
    let probe = traced.then(ProbeShared::new);
    let validator: Box<dyn TrajectoryValidator> = match &probe {
        Some(shared) => Box::new(Probe::new(sim, Arc::clone(shared))),
        None => Box::new(sim),
    };
    let mut rabit = engine(Some(validator));
    for _ in 0..WARMUP_ROUNDS {
        for wf in &pool {
            lap(&mut rabit, wf)?;
        }
    }
    let setup = Setup {
        pool,
        rabit,
        probe,
        compared,
    };
    Ok((setup, EditService::new(study_tenants())))
}

/// Untraced window: wall time of every step and every lap.
fn measure(
    rabit: &mut Rabit,
    pool: &[Workflow],
    window: &Window<'_>,
    e2e: &mut EndToEnd,
) -> Measured {
    let mut failed = 0;
    let mut lap_no = 0;
    while window.is_open() {
        let wf = &pool[lap_no % pool.len()];
        let lap_start = Instant::now();
        let mut lab = fresh_lab();
        rabit.initialize(&mut lab);
        for cmd in wf.commands() {
            let t0 = Instant::now();
            let result = rabit.step(&mut lab, cmd);
            let t1 = Instant::now();
            e2e.cmd_ns.record_at(t1, nanos(t0, t1), 1);
            if !matches!(result, Ok(StepOutcome::Executed)) {
                failed += 1;
                break;
            }
        }
        let lap_end = Instant::now();
        e2e.trial_ns
            .record_at(lap_end, nanos(lap_start, lap_end), 1);
        lap_no += 1;
    }
    Measured {
        attempted: e2e.cmd_ns.count(),
        failed,
        ..Measured::default()
    }
}

/// Times `f`, returning its result, its interval and its allocations.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant, u64) {
    let a0 = allocations();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    (out, start, end, allocations() - a0)
}

/// What the traced window needs besides the engine.
struct Traced<'a> {
    probe: &'a ProbeShared,
    log: SpanLog,
    layers: Layers,
    calls: Vec<ValidateCall>,
    next_id: u64,
    commands: u64,
}

impl Traced<'_> {
    /// One traced lap. A shadow lab, built like the engine's, is driven
    /// in lockstep with it to time `apply` and `fetch_state`.
    fn lap(&mut self, rabit: &mut Rabit, wf: &Workflow) -> bool {
        let mut shadow = fresh_lab();
        let mut lab = fresh_lab();
        rabit.initialize(&mut lab);
        for cmd in wf.commands() {
            let id = self.next_id;
            self.next_id += 1;
            self.commands += 1;
            let pre = rabit.current_state().clone();
            let (executed, t0, t1, step_allocs) =
                timed(|| matches!(rabit.step(&mut lab, cmd), Ok(StepOutcome::Executed)));
            self.probe.drain_calls(&mut self.calls);

            // Replicas, after the step so they run warm: the rule check
            // and S_expected on the step's exact inputs, then apply and
            // fetch on the shadow lab.
            let (check, c0, c1, check_allocs) =
                timed(|| black_box(rabit.rulebase().check(cmd, &pre, rabit.catalog())));
            drop(check);
            let (expected, e0, e1, expected_allocs) =
                timed(|| black_box(transition::expected_state(rabit.catalog(), &pre, cmd)));
            drop(expected);
            let (applied, p0, p1, apply_allocs) = timed(|| shadow.apply(cmd));
            let (fetched, f0, f1, fetch_allocs) = timed(|| black_box(shadow.fetch_state()));
            drop(fetched);
            if !executed || applied.is_err() {
                return false;
            }

            let l = &mut self.layers;
            l.step.add(nanos(t0, t1), step_allocs);
            l.unit_traced.add(nanos(t0, t1), step_allocs);
            l.check.add(nanos(c0, c1), check_allocs);
            l.expected_state.add(nanos(e0, e1), expected_allocs);
            l.apply.add(nanos(p0, p1), apply_allocs);
            l.fetch_state.add(nanos(f0, f1), fetch_allocs);
            let mut child_allocs = check_allocs + expected_allocs + apply_allocs + fetch_allocs;
            for call in &self.calls {
                let ns = nanos(call.start, call.end);
                l.validate.add(ns, call.allocs);
                child_allocs += call.allocs;
                if call.ik_miss {
                    l.validate_ik_miss.add(ns, call.allocs);
                } else {
                    l.validate_ik_hit.add(ns, call.allocs);
                }
            }
            l.residual_allocs += step_allocs as f64 - child_allocs as f64;

            let n = 5 + self.calls.len();
            if self.log.has_room(n) {
                let step = self.log.push_timed("core.step", t0, t1, None, id, false);
                for call in &self.calls {
                    self.log.push_timed(
                        "sim.validate",
                        call.start,
                        call.end,
                        Some(step),
                        id,
                        false,
                    );
                }
                for (name, a, b) in [
                    ("rulebase.check", c0, c1),
                    ("rulebase.expected_state", e0, e1),
                    ("core.apply", p0, p1),
                    ("core.fetch_state", f0, f1),
                ] {
                    self.log.push_timed(name, a, b, Some(step), id, true);
                }
            } else {
                self.log.drop_spans(n as u64);
            }
        }
        true
    }
}

/// Traced window: whole passes over the pool alternate between untraced
/// (probe and allocation counting off, steps timed only) and traced, so
/// both halves see the same laps and the difference is the tracing
/// overhead.
fn measure_traced(
    rabit: &mut Rabit,
    pool: &[Workflow],
    window: &Window<'_>,
    probe: &ProbeShared,
) -> Measured {
    let mut traced = Traced {
        probe,
        log: SpanLog::new(SPAN_CAPACITY),
        layers: Layers::default(),
        calls: Vec::with_capacity(8),
        next_id: 0,
        commands: 0,
    };
    let mut failed = 0;
    let mut untraced_commands = 0;
    let mut lap_no = 0;
    while window.is_open() {
        let wf = &pool[lap_no % pool.len()];
        let tracing = (lap_no / pool.len()) % 2 == 1;
        probe.set_enabled(tracing);
        set_counting(tracing);
        if tracing {
            if !traced.lap(rabit, wf) {
                failed += 1;
            }
        } else {
            let mut lab = fresh_lab();
            rabit.initialize(&mut lab);
            for cmd in wf.commands() {
                let t0 = Instant::now();
                let result = rabit.step(&mut lab, cmd);
                let ns = t0.elapsed().as_nanos() as u64;
                traced.layers.step_untraced.add(ns, 0);
                traced.layers.unit_untraced.add(ns, 0);
                untraced_commands += 1;
                if !matches!(result, Ok(StepOutcome::Executed)) {
                    failed += 1;
                    break;
                }
            }
        }
        lap_no += 1;
    }
    probe.set_enabled(false);
    set_counting(false);

    let mut layers = traced.layers;
    layers.sim = probe.counters();
    let children = [
        &layers.check,
        &layers.expected_state,
        &layers.validate,
        &layers.apply,
        &layers.fetch_state,
    ]
    .map(|sum| sum.ns as f64)
    .to_vec();
    Measured {
        attempted: untraced_commands + traced.commands,
        failed,
        notes: Vec::new(),
        trace: Some(Trace {
            log: traced.log,
            layers,
            unit: "core.step",
            children,
        }),
    }
}

/// Runs `replay_cached` (`verdict_cache`) or `replay_sweep`.
pub fn run(args: &Args, verdict_cache: bool) -> Outcome {
    run_workload(
        args,
        || setup(args.seed, verdict_cache, args.trace),
        |s, window, e2e| {
            let overhead0 = s.rabit.overhead_s();
            let mut measured = match s.probe.as_deref() {
                Some(probe) => measure_traced(&mut s.rabit, &s.pool, window, probe),
                None => measure(&mut s.rabit, &s.pool, window, e2e),
            };
            let overhead_ms = (s.rabit.overhead_s() - overhead0) * 1e3;
            measured.notes.extend([
                (
                    "verdicts_checked_against_dense",
                    Json::Num(s.compared as f64),
                ),
                (
                    "virtual_overhead_ms_per_cmd",
                    Json::Num(overhead_ms / measured.attempted.max(1) as f64),
                ),
            ]);
            measured
        },
    )
}

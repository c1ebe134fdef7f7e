//! The `study_live` workload: the paper's study as a regression suite
//! under live rule edits.
//!
//! The 16 catalogued bugs plus the two safe workflows run on each of the
//! three study configurations, in seeded order, cycling for the whole
//! window. Each trial is a cold `FleetJob::execute` on a snapshot
//! freshly resolved from the rule store (one tenant per configuration)
//! while the edit generator commits to the same tenants.

use crate::alloc::set_counting;
use crate::edits::EditService;
use crate::metrics::{EndToEnd, Layers};
use crate::probe::{Probe, ProbeShared, ValidateCall};
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::{
    nanos, run_workload, study_tenants, tenant_of, Args, Measured, Trace, Window, CONFIGS,
};
use rabit_buginject::catalog;
use rabit_core::{FaultPlan, Lab, Rabit, Stage, Substrate, TrajectoryValidator};
use rabit_devices::LatencyModel;
use rabit_geometry::noise::PositionNoise;
use rabit_rulebase::{DeviceCatalog, RulebaseSnapshot, SnapshotSource, TenantId};
use rabit_testbed::{locations, workflows, RabitStage, Testbed, TestbedSubstrate};
use rabit_tracer::{FleetJob, FleetRun, Workflow};
use rabit_util::{Json, Rng};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept in memory for the span file.
const SPAN_CAPACITY: usize = 60_000;

/// What a trial must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A catalogued bug: detected by RABIT exactly when the catalog says
    /// this configuration detects it.
    Bug { detected: bool },
    /// A safe workflow: no alert at all.
    Safe,
}

/// One trial of the suite.
struct Job {
    config: usize,
    workflow: Workflow,
    expect: Expect,
}

/// The 54 trials (18 workflows on 3 configurations) in seeded order.
fn jobs(seed: u64) -> Vec<Job> {
    let loc = locations();
    let mut jobs = Vec::new();
    for (config, &stage) in CONFIGS.iter().enumerate() {
        for bug in catalog() {
            jobs.push(Job {
                config,
                workflow: bug.buggy_workflow(&loc),
                expect: Expect::Bug {
                    detected: bug.detected_from.expected_at(stage),
                },
            });
        }
        for safe in [workflows::fig5_safe_workflow, workflows::device_tour] {
            jobs.push(Job {
                config,
                workflow: safe(&loc),
                expect: Expect::Safe,
            });
        }
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0x57d7_11fe);
    for i in (1..jobs.len()).rev() {
        let j = rng.random_range(0..i + 1);
        jobs.swap(i, j);
    }
    jobs
}

/// Whether a finished trial shows what its job expects.
fn as_expected(job: &Job, run: &FleetRun) -> bool {
    match job.expect {
        Expect::Bug { detected } => {
            run.report
                .alert
                .as_ref()
                .is_some_and(|a| a.is_rabit_detection())
                == detected
        }
        Expect::Safe => run.report.alert.is_none(),
    }
}

/// A study substrate that times `instantiate_on` and attaches a
/// [`Probe`]-wrapped simulator where the plain one attaches a simulator.
struct TracedSubstrate {
    inner: TestbedSubstrate,
    probe: Arc<ProbeShared>,
    /// When the last instantiation started and ended.
    instantiated: Mutex<Option<(Instant, Instant)>>,
}

impl Substrate for TracedSubstrate {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn build_lab(&self) -> Lab {
        self.inner.build_lab()
    }

    fn rulebase(&self) -> RulebaseSnapshot {
        self.inner.rulebase()
    }

    fn catalog(&self) -> DeviceCatalog {
        self.inner.catalog()
    }

    fn latency(&self) -> LatencyModel {
        self.inner.latency()
    }

    fn position_noise(&self) -> PositionNoise {
        self.inner.position_noise()
    }

    fn validator(&self) -> Option<Box<dyn TrajectoryValidator>> {
        (self.inner.config() == RabitStage::ModifiedWithSimulator).then(|| {
            let sim = Testbed::build_extended_simulator(false);
            Box::new(Probe::new(sim, Arc::clone(&self.probe))) as _
        })
    }

    fn fault_plan(&self) -> FaultPlan {
        self.inner.fault_plan()
    }

    /// The trait's own body, timed.
    fn instantiate_on(&self, snapshot: RulebaseSnapshot, plan: &FaultPlan) -> (Lab, Rabit) {
        let start = Instant::now();
        let mut lab = self.build_lab();
        if !plan.is_empty() {
            lab.arm_faults(plan.session());
        }
        let rabit = self.rabit_on(snapshot).with_fault_plan(plan.clone());
        let end = Instant::now();
        *self.instantiated.lock().expect("marks poisoned") = Some((start, end));
        (lab, rabit)
    }
}

/// Everything set-up produces besides the edit service.
struct Setup {
    jobs: Vec<Job>,
    substrates: Vec<TestbedSubstrate>,
    detected: [usize; 3],
}

/// Builds the suite and the store, then runs every trial once as a
/// warm-up that also checks the oracles.
fn setup(seed: u64) -> Result<(Setup, EditService), String> {
    let jobs = jobs(seed);
    let substrates: Vec<TestbedSubstrate> = CONFIGS
        .iter()
        .map(|&c| TestbedSubstrate::study(c))
        .collect();
    let edits = EditService::new(study_tenants());
    let mut detected = [0; 3];
    for job in &jobs {
        let snapshot = edits.store().snapshot(&tenant_of(CONFIGS[job.config]));
        let (run, _lab) = FleetJob {
            substrate: &substrates[job.config],
            workflow: &job.workflow,
            fault: None,
            guarded: true,
            snapshot: Some(snapshot),
        }
        .execute();
        if !as_expected(job, &run) {
            return Err(format!(
                "{} on {}: {:?} expected, alert {:?}",
                job.workflow.name(),
                run.substrate.unwrap_or_default(),
                job.expect,
                run.report.alert.map(|a| a.to_string())
            ));
        }
        if matches!(job.expect, Expect::Bug { .. })
            && run.report.alert.is_some_and(|a| a.is_rabit_detection())
        {
            detected[job.config] += 1;
        }
    }
    if detected != [8, 12, 13] {
        return Err(format!("detected {detected:?} of 16, expected [8, 12, 13]"));
    }
    let setup = Setup {
        jobs,
        substrates,
        detected,
    };
    Ok((setup, edits))
}

/// Per-tenant epoch bookkeeping across trials.
struct Epochs {
    last: Vec<Option<u64>>,
}

impl Epochs {
    /// Records a trial's snapshot epoch; false if it went backwards.
    fn observe(&mut self, tenant: usize, epoch: u64, layers: &mut Layers) -> bool {
        let ok = self.last[tenant].is_none_or(|prev| epoch >= prev);
        if let Some(prev) = self.last[tenant] {
            layers.epochs_between_snapshots += epoch.saturating_sub(prev);
        }
        self.last[tenant] = Some(epoch);
        ok
    }
}

/// Span and layer bookkeeping for traced trials.
struct Tracing {
    substrates: Vec<TracedSubstrate>,
    probe: Arc<ProbeShared>,
    log: SpanLog,
    calls: Vec<ValidateCall>,
}

impl Tracing {
    fn new() -> Self {
        let probe = ProbeShared::new();
        Tracing {
            substrates: CONFIGS
                .iter()
                .map(|&c| TracedSubstrate {
                    inner: TestbedSubstrate::study(c),
                    probe: Arc::clone(&probe),
                    instantiated: Mutex::new(None),
                })
                .collect(),
            probe,
            log: SpanLog::new(SPAN_CAPACITY),
            calls: Vec::with_capacity(64),
        }
    }
}

/// The timed window. In traced runs, whole passes over the suite
/// alternate between the plain substrates (untraced) and the traced
/// ones.
fn measure(
    s: &Setup,
    window: &Window<'_>,
    e2e: &mut EndToEnd,
    mut tracing: Option<Tracing>,
) -> Measured {
    e2e.cmd_mean_only = true;
    let tenants: Vec<TenantId> = CONFIGS.iter().map(|&c| tenant_of(c)).collect();
    let mut layers = Layers::default();
    let mut epochs = Epochs {
        last: vec![None; tenants.len()],
    };
    let (mut trials, mut failed) = (0u64, 0u64);
    while window.is_open() {
        let job = &s.jobs[trials as usize % s.jobs.len()];
        let pass = trials as usize / s.jobs.len();
        let traced = tracing.is_some() && pass % 2 == 1;
        if let Some(t) = &tracing {
            t.probe.set_enabled(traced);
        }
        set_counting(traced);
        let substrate: &dyn Substrate = match &tracing {
            Some(t) if traced => &t.substrates[job.config],
            _ => &s.substrates[job.config],
        };

        let t0 = Instant::now();
        let snapshot = window.edits.store().snapshot(&tenants[job.config]);
        let t1 = Instant::now();
        let epoch = snapshot.epoch();
        let (run, lab) = FleetJob {
            substrate,
            workflow: &job.workflow,
            fault: None,
            guarded: true,
            snapshot: Some(snapshot),
        }
        .execute();
        let t3 = Instant::now();
        drop(lab);

        let trial_ns = nanos(t0, t3);
        let commands = run.report.trace.len() as u64;
        let ok = as_expected(job, &run)
            && run.rulebase_epoch == epoch
            && epochs.observe(job.config, epoch, &mut layers);
        if !ok {
            failed += 1;
        }
        trials += 1;
        e2e.trial_ns.record_at(t3, trial_ns, 1);
        // A trial's commands are not timed one by one (the tracer runs
        // them inside `FleetJob::execute`): each counts once at the
        // trial's mean command latency, so a slice's mean is its trial
        // time over its commands.
        e2e.cmd_ns
            .record_at(t3, trial_ns / commands.max(1), commands);

        let Some(t) = tracing.as_mut() else {
            continue;
        };
        if !traced {
            layers.unit_untraced.add(trial_ns, 0);
            continue;
        }
        layers.unit_traced.add(trial_ns, 0);
        layers.snapshot.add(nanos(t0, t1), 0);
        let (i0, i1) = t.substrates[job.config]
            .instantiated
            .lock()
            .expect("marks poisoned")
            .take()
            .expect("traced trials instantiate through the traced substrate");
        layers.instantiate.add(nanos(i0, i1), 0);
        layers.tracer_run.add(nanos(i1, t3), 0);
        t.probe.drain_calls(&mut t.calls);
        for call in &t.calls {
            let ns = nanos(call.start, call.end);
            layers.validate.add(ns, call.allocs);
            if call.ik_miss {
                layers.validate_ik_miss.add(ns, call.allocs);
            } else {
                layers.validate_ik_hit.add(ns, call.allocs);
            }
        }
        let n = 4 + t.calls.len();
        if t.log.has_room(n) {
            let id = trials - 1;
            let trial = t.log.push_timed("fleet.trial", t0, t3, None, id, false);
            t.log
                .push_timed("rulebase.snapshot", t0, t1, Some(trial), id, false);
            t.log
                .push_timed("core.instantiate", i0, i1, Some(trial), id, false);
            let run_span = t
                .log
                .push_timed("tracer.run", i1, t3, Some(trial), id, false);
            for call in &t.calls {
                t.log.push_timed(
                    "sim.validate",
                    call.start,
                    call.end,
                    Some(run_span),
                    id,
                    false,
                );
            }
        } else {
            t.log.drop_spans(n as u64);
        }
    }
    set_counting(false);

    let trace = tracing.map(|t| {
        t.probe.set_enabled(false);
        layers.sim = t.probe.counters();
        let children = [&layers.snapshot, &layers.instantiate, &layers.tracer_run]
            .map(|sum| sum.ns as f64)
            .to_vec();
        Trace {
            log: t.log,
            layers,
            unit: "fleet.trial",
            children,
        }
    });
    Measured {
        attempted: trials,
        failed,
        notes: vec![(
            "detected_of_16",
            Json::Arr(s.detected.iter().map(|&d| Json::Num(d as f64)).collect()),
        )],
        trace,
    }
}

/// Runs `study_live`.
pub fn run(args: &Args) -> Outcome {
    run_workload(
        args,
        || setup(args.seed),
        |s, window, e2e| measure(s, window, e2e, args.trace.then(Tracing::new)),
    )
}

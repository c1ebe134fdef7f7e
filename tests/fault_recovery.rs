//! The fault-injection runtime, end to end: an empty plan is inert (all
//! three substrates stay verdict-identical to the fault-free baseline
//! and the per-stage detection counts are unchanged), while a seeded
//! plan produces thread-count-invariant faulted fleets whose recovery
//! counters actually move, a substrate's own plan arms in both fleet-job
//! modes, and the tracer agrees with a reference loop over the engine's
//! `initialize`/`step` under faults.

use rabit::buginject::run_study_on;
use rabit::core::{
    Alert, FaultKind, FaultPlan, FaultSchedule, Lab, Rabit, RabitConfig, RecoveryPolicy,
    RetryPolicy, RunCounters, Stage, Substrate,
};
use rabit::testbed::{locations, workflows, Testbed, TestbedSubstrate};
use rabit::tracer::{run_fleet_on, run_fleet_on_faulted, FleetJob, Tracer, Workflow};

/// With an empty fault plan armed, every substrate's verdict — alert,
/// executed count, virtual lab time, damage — is identical to a plain
/// fault-free instantiation.
#[test]
fn empty_fault_plan_is_verdict_identical_on_all_three_substrates() {
    let wf = workflows::fig5_safe_workflow(&locations());
    let sim = Testbed::simulator_substrate();
    let testbed = Testbed::new();
    let prod = TestbedSubstrate::for_stage(Stage::Production);
    let substrates: Vec<&dyn Substrate> = vec![&sim, &testbed, &prod];
    for substrate in substrates {
        let (mut lab, mut rabit) = substrate.instantiate();
        let baseline = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
        let (mut lab2, mut rabit2) = substrate.instantiate_with(&FaultPlan::none());
        let report = Tracer::guarded(&mut lab2, &mut rabit2).run(&wf);
        assert_eq!(
            baseline.alert,
            report.alert,
            "verdict drift on {}",
            substrate.name()
        );
        assert_eq!(baseline.executed, report.executed);
        assert_eq!(baseline.lab_time_s, report.lab_time_s);
        assert_eq!(baseline.rabit_overhead_s, report.rabit_overhead_s);
        assert_eq!(lab.damage_log().len(), lab2.damage_log().len());
        assert_eq!(report.counters.faults_injected, 0);
        assert!(!report.counters.recovery.any());
        assert!(!lab2.has_fault_session(), "empty plans arm nothing");
    }
}

/// The PR 3 baseline: per-stage detection counts are untouched by the
/// fault runtime riding along in the engine.
#[test]
fn detection_counts_unchanged_with_fault_support_compiled_in() {
    let pipeline = Testbed::pipeline();
    let counts: Vec<(Stage, usize)> = pipeline
        .substrates()
        .iter()
        .map(|s| (s.stage(), run_study_on(s.as_ref()).detected()))
        .collect();
    assert_eq!(
        counts,
        [
            (Stage::Simulator, 13),
            (Stage::Testbed, 12),
            (Stage::Production, 12),
        ]
    );
}

/// A faulted fleet under a seeded plan is deterministic across 1, 4, and
/// 8 worker threads — run `i` always executes under `plan.for_run(i)` —
/// and its recovery counters are non-zero: the retry policy genuinely
/// rode out injected faults.
#[test]
fn seeded_fault_fleet_is_thread_count_invariant_with_recovery() {
    let loc = locations();
    let wf = workflows::fig5_safe_workflow(&loc);
    let recovery_config = RabitConfig {
        recovery: RecoveryPolicy::Retry(RetryPolicy::default()),
        ..RabitConfig::default()
    };
    let sim = Testbed::simulator_substrate().with_engine_config(recovery_config.clone());
    let tb = TestbedSubstrate::for_stage(Stage::Testbed);
    let jobs: Vec<(&dyn Substrate, &Workflow)> = vec![
        (&sim, &wf),
        (&sim, &wf),
        (&sim, &wf),
        (&tb, &wf),
        (&sim, &wf),
        (&sim, &wf),
        (&sim, &wf),
    ];
    let plan = FaultPlan::seeded(0xDEC0).with(
        FaultKind::DropCommand,
        FaultSchedule::EveryNth {
            period: 4,
            offset: 2,
        },
    );

    let serial = run_fleet_on_faulted(&jobs, 1, &plan);
    let four = run_fleet_on_faulted(&jobs, 4, &plan);
    let eight = run_fleet_on_faulted(&jobs, 8, &plan);

    let totals = serial.totals();
    assert!(
        totals.faults_injected > 0,
        "the seeded plan must actually inject"
    );
    let recovery = totals.recovery;
    assert!(
        recovery.recovered > 0,
        "the retry policy must recover dropped commands: {recovery:?}"
    );
    assert!(recovery.retries >= recovery.recovered);

    for other in [&four, &eight] {
        assert_eq!(totals, other.totals());
        for (a, b) in serial.runs.iter().zip(other.runs.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.report.counters, b.report.counters, "run {}", a.index);
            assert_eq!(a.report.executed, b.report.executed, "run {}", a.index);
            assert_eq!(
                a.report.alert.as_ref().map(ToString::to_string),
                b.report.alert.as_ref().map(ToString::to_string),
                "run {}",
                a.index
            );
            assert_eq!(a.report.lab_time_s, b.report.lab_time_s, "run {}", a.index);
        }
    }
}

/// `run_fleet_on_faulted` with the empty plan is exactly `run_fleet_on`.
#[test]
fn faulted_fleet_with_empty_plan_matches_plain_fleet() {
    let loc = locations();
    let wf = workflows::fig5_safe_workflow(&loc);
    let tb = TestbedSubstrate::for_stage(Stage::Testbed);
    let jobs: Vec<(&dyn Substrate, &Workflow)> = vec![(&tb, &wf), (&tb, &wf)];
    let plain = run_fleet_on(&jobs, 2);
    let faulted = run_fleet_on_faulted(&jobs, 2, &FaultPlan::none());
    assert_eq!(faulted.totals().faults_injected, 0);
    for (a, b) in plain.runs.iter().zip(faulted.runs.iter()) {
        assert_eq!(a.report.executed, b.report.executed);
        assert_eq!(a.report.lab_time_s, b.report.lab_time_s);
        assert_eq!(
            a.report.alert.as_ref().map(ToString::to_string),
            b.report.alert.as_ref().map(ToString::to_string)
        );
    }
}

/// Substrate-carried plans flow through `instantiate()`: a testbed
/// profile armed with a drop-everything plan alerts on its own, and a
/// quarantine policy instead completes the run degraded.
#[test]
fn substrate_carried_plans_arm_on_instantiate() {
    let loc = locations();
    let wf = workflows::fig5_safe_workflow(&loc);
    let plan = FaultPlan::seeded(5).with(
        FaultKind::DropCommand,
        FaultSchedule::EveryNth {
            period: 1,
            offset: 0,
        },
    );
    let substrate = TestbedSubstrate::for_stage(Stage::Testbed).with_fault_plan(plan);
    let (mut lab, mut rabit) = substrate.instantiate();
    assert!(lab.has_fault_session(), "the carried plan must arm");
    let report = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
    assert!(
        !report.completed(),
        "dropping every command must trip the malfunction check"
    );
    assert!(report.counters.faults_injected > 0);

    // The same substrate under quarantine, on a workflow that only
    // drives the hopeless device: it is isolated after the first
    // exhausted retry and the run continues degraded instead of halting.
    // (On the full Fig. 5 workflow a quarantined device's un-executed
    // commands legitimately trip later rule preconditions — quarantine
    // is degraded continuation, not rule suppression.)
    let doors_only = Workflow::new("doors_only")
        .set_door("dosing_device", true)
        .set_door("dosing_device", false);
    let (mut lab, mut rabit) = substrate.instantiate();
    rabit.config_mut().recovery = RecoveryPolicy::Quarantine(RetryPolicy::default());
    let report = Tracer::guarded(&mut lab, &mut rabit).run(&doors_only);
    assert!(
        report.completed(),
        "quarantine never alerts: {:?}",
        report.alert
    );
    assert_eq!(report.counters.recovery.quarantined, 1);
    assert_eq!(report.counters.recovery.skipped_quarantined, 1);
    assert!(rabit.is_quarantined(&"dosing_device".into()));
}

/// A fleet job that names no fault plan arms the substrate's own, in
/// both modes: the run is the one an explicit copy of that plan gives.
#[test]
fn substrate_carried_plans_arm_in_pass_through_jobs() {
    let wf = workflows::fig5_safe_workflow(&locations());
    let plan = FaultPlan::seeded(3).with(
        FaultKind::LatencySpike { seconds: 1.0 },
        FaultSchedule::Bernoulli { probability: 1.0 },
    );
    let substrate = TestbedSubstrate::for_stage(Stage::Testbed).with_fault_plan(plan.clone());
    for guarded in [true, false] {
        let run = |fault| {
            FleetJob {
                substrate: &substrate,
                workflow: &wf,
                fault,
                guarded,
                snapshot: None,
            }
            .execute()
            .0
        };
        let carried = run(None);
        let explicit = run(Some(plan.clone()));
        assert!(
            carried.report.counters.faults_injected > 0,
            "guarded {guarded}: the carried plan must arm"
        );
        assert_eq!(
            carried.report.counters, explicit.report.counters,
            "guarded {guarded}"
        );
        assert_eq!(
            carried.report.lab_time_s, explicit.report.lab_time_s,
            "guarded {guarded}"
        );
    }
}

/// What the reference loop in
/// [`engine_and_tracer_runs_report_the_same_counters_under_state_faults`]
/// reports.
struct ReferenceRun {
    executed: usize,
    alert: Option<Alert>,
    lab_time_s: f64,
    rabit_overhead_s: f64,
    counters: RunCounters,
}

/// Fig. 2 written out over `initialize`/`step`: halt on the first alert,
/// snapshot the counters before `initialize`, and count a command as
/// executed when it ran on its device (a malfunction alert fires after
/// the command ran).
fn reference_run(lab: &mut Lab, rabit: &mut Rabit, wf: &Workflow) -> ReferenceRun {
    let t0 = lab.clock().now_s();
    let overhead0 = rabit.overhead_s();
    let counters0 = rabit.counters(lab);
    rabit.initialize(lab);
    let mut executed = 0;
    let mut alert = None;
    for command in wf.commands() {
        match rabit.step(lab, command) {
            Ok(outcome) => executed += usize::from(outcome.executed()),
            Err(halt) => {
                executed += usize::from(matches!(halt, Alert::DeviceMalfunction { .. }));
                alert = Some(halt);
                break;
            }
        }
    }
    ReferenceRun {
        executed,
        alert,
        lab_time_s: lab.clock().now_s() - t0,
        rabit_overhead_s: rabit.overhead_s() - overhead0,
        counters: rabit.counters(lab).since(&counters0),
    }
}

/// The tracer is the one loop over the engine. Under seeded state and
/// command faults — one of them injected into the initial state fetch,
/// one dropping the first command so the run halts on a malfunction —
/// it reports the same executed count, counters, alert and times as a
/// reference loop over `initialize`/`step`, counts every fault the lab
/// injected, and its executed count is its trace's.
#[test]
fn engine_and_tracer_runs_report_the_same_counters_under_state_faults() {
    let loc = locations();
    let wfs = [
        Workflow::new("open_door").set_door("dosing_device", true),
        workflows::fig5_safe_workflow(&loc),
        workflows::device_tour(&loc),
    ];
    let retry = RabitConfig {
        recovery: RecoveryPolicy::Retry(RetryPolicy::default()),
        ..RabitConfig::default()
    };
    let sim = Testbed::simulator_substrate().with_engine_config(retry);
    let tb = TestbedSubstrate::for_stage(Stage::Testbed);
    let substrates: [&dyn Substrate; 2] = [&sim, &tb];
    let faults = [
        (
            FaultKind::NoisyState { sigma: 1e-9 },
            FaultSchedule::AtSteps(vec![0]),
        ),
        (
            FaultKind::StaleState,
            FaultSchedule::Bernoulli { probability: 0.3 },
        ),
        (
            FaultKind::NoisyState { sigma: 0.05 },
            FaultSchedule::Bernoulli { probability: 0.2 },
        ),
        (FaultKind::DropCommand, FaultSchedule::AtSteps(vec![0])),
    ];
    let mut totals = RunCounters::default();
    let mut alerts = 0;
    let mut malfunctions = 0;
    for seed in 0..3 {
        for (kind, schedule) in &faults {
            let plan = FaultPlan::seeded(seed).with(*kind, schedule.clone());
            for substrate in substrates {
                for wf in &wfs {
                    let at = format!("seed {seed} {kind:?} {} {}", substrate.name(), wf.name());
                    let (mut lab, mut rabit) = substrate.instantiate_with(&plan);
                    let reference = reference_run(&mut lab, &mut rabit, wf);
                    assert_eq!(
                        reference.counters.faults_injected,
                        lab.fault_stats().total_injected(),
                        "{at}: every injected fault is counted"
                    );
                    let (mut lab, mut rabit) = substrate.instantiate_with(&plan);
                    let traced = Tracer::guarded(&mut lab, &mut rabit).run(wf);
                    assert_eq!(reference.executed, traced.executed, "{at}");
                    assert_eq!(
                        traced.executed,
                        traced.trace.executed_commands().count(),
                        "{at}"
                    );
                    assert_eq!(reference.counters, traced.counters, "{at}");
                    assert_eq!(reference.alert, traced.alert, "{at}");
                    assert_eq!(reference.lab_time_s, traced.lab_time_s, "{at}");
                    assert_eq!(reference.rabit_overhead_s, traced.rabit_overhead_s, "{at}");
                    totals.merge(&traced.counters);
                    alerts += usize::from(traced.alert.is_some());
                    malfunctions += usize::from(matches!(
                        traced.alert,
                        Some(Alert::DeviceMalfunction { .. })
                    ));
                }
            }
        }
    }
    // The scenario is not vacuous: faults fire, some runs halt (some on
    // a malfunction, where the two `executed` definitions used to
    // differ), the retry policy engages and the simulator stage sweeps.
    assert!(totals.faults_injected > 0);
    assert!(alerts > 0);
    assert!(malfunctions > 0);
    assert!(totals.recovery.retries > 0);
    assert!(totals.cache_hit_rate().is_some());
}

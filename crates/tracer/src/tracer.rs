//! The interception layer.
//!
//! "We reconfigure RATracer such that every time it traces a command, it
//! first checks with RABIT if the command is safe to run: if RABIT raises
//! an alert, the experiment is halted …; otherwise, the command is
//! forwarded to the device and executed." (§II-C)

use crate::trace::{Trace, TraceEvent, TraceOutcome};
use crate::workflow::Workflow;
use rabit_core::{Alert, Lab, Rabit, RunCounters, StepOutcome};
use rabit_devices::Command;

/// The result of tracing one workflow.
#[derive(Debug)]
pub struct TraceReport {
    /// The recorded trace.
    pub trace: Trace,
    /// The alert that halted the run, if any.
    pub alert: Option<Alert>,
    /// Commands that ran on their device: the trace events whose
    /// [`TraceOutcome::executed`] holds. A command that ran and then
    /// failed the malfunction check counts.
    pub executed: usize,
    /// Total virtual lab time for the run (seconds).
    pub lab_time_s: f64,
    /// RABIT's share of that time (zero in pass-through mode).
    pub rabit_overhead_s: f64,
    /// What the run cost and survived: verdict-cache, sweep and
    /// narrow-phase work, faults injected and recovery activity. The
    /// delta from a snapshot taken before [`Rabit::initialize`], so a
    /// fault injected into the initial state fetch counts too. In
    /// pass-through mode only `faults_injected` can be non-zero.
    pub counters: RunCounters,
}

impl TraceReport {
    /// Whether the workflow ran to completion.
    pub fn completed(&self) -> bool {
        self.alert.is_none()
    }
}

/// The tracer: drives a [`Workflow`] through a [`Lab`], guarded exactly
/// when it holds a [`Rabit`] engine.
pub struct Tracer<'a> {
    lab: &'a mut Lab,
    rabit: Option<&'a mut Rabit>,
}

impl<'a> Tracer<'a> {
    /// A guarded tracer: every command is checked by `rabit` first.
    pub fn guarded(lab: &'a mut Lab, rabit: &'a mut Rabit) -> Self {
        Tracer {
            lab,
            rabit: Some(rabit),
        }
    }

    /// A pass-through tracer: commands are executed and recorded only —
    /// the original RATracer behaviour, used to produce RAD-style traces
    /// and as the unguarded baseline of the latency experiment.
    pub fn pass_through(lab: &'a mut Lab) -> Self {
        Tracer { lab, rabit: None }
    }

    /// Runs the workflow, producing a trace. A guarded run halts at the
    /// first alert (the paper's `alertAndStop`); a pass-through run
    /// stops only on a hard device fault.
    pub fn run(self, workflow: &Workflow) -> TraceReport {
        let Tracer { lab, mut rabit } = self;
        let t0 = lab.clock().now_s();
        let overhead0 = rabit.as_ref().map_or(0.0, |r| r.overhead_s());
        // Without an engine only the lab's own counters can move.
        let snapshot = |rabit: Option<&Rabit>, lab: &Lab| {
            rabit.map_or_else(|| RunCounters::of_lab(lab), |r| r.counters(lab))
        };
        let counters0 = snapshot(rabit.as_deref(), lab);
        if let Some(rabit) = rabit.as_deref_mut() {
            rabit.initialize(lab);
        }

        let mut trace = Trace::new(workflow.name());
        let mut alert = None;
        for (seq, command) in workflow.commands().iter().enumerate() {
            let time_s = lab.clock().now_s();
            let result = match rabit.as_deref_mut() {
                Some(rabit) => rabit.step(lab, command),
                // Pass-through forwards as-is: only a device refusal halts.
                None => lab
                    .apply(command)
                    .map(|()| StepOutcome::Executed)
                    .map_err(|error| Alert::DeviceFault {
                        command: command.clone(),
                        error,
                    }),
            };
            trace.record(TraceEvent {
                seq,
                time_s,
                command: command.clone(),
                outcome: trace_outcome(command, &result),
            });
            if let Err(halt) = result {
                alert = Some(halt);
                break;
            }
        }

        TraceReport {
            executed: trace.executed_commands().count(),
            trace,
            alert,
            lab_time_s: lab.clock().now_s() - t0,
            rabit_overhead_s: rabit.as_ref().map_or(0.0, |r| r.overhead_s()) - overhead0,
            counters: snapshot(rabit.as_deref(), lab).since(&counters0),
        }
    }
}

/// How one [`Rabit::step`] result is traced. A malfunction alert fires
/// after the command ran on its device, so it traces as executed.
pub(crate) fn trace_outcome(
    command: &Command,
    result: &Result<StepOutcome, Alert>,
) -> TraceOutcome {
    match result {
        Ok(StepOutcome::Executed | StepOutcome::Recovered { .. }) => TraceOutcome::Forwarded,
        Ok(StepOutcome::SkippedQuarantined) => TraceOutcome::Skipped {
            reason: format!("{} quarantined", command.actor),
        },
        Ok(StepOutcome::Quarantined) => TraceOutcome::Skipped {
            reason: format!("{} quarantined after repeated faults", command.actor),
        },
        Err(Alert::DeviceFault { error, .. }) => TraceOutcome::Faulted {
            error: error.to_string(),
        },
        Err(Alert::DeviceMalfunction { diffs, .. }) => TraceOutcome::MalfunctionDetected {
            detail: diffs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; "),
        },
        Err(alert) => TraceOutcome::Blocked {
            alert: alert.headline().to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::{
        FaultKind, FaultPlan, FaultSchedule, RabitConfig, RecoveryPolicy, RetryPolicy,
    };
    use rabit_devices::{DeviceType, DosingDevice, RobotArm, StateKey, Vial};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase};

    fn lab() -> Lab {
        Lab::new()
            .with_device(RobotArm::new(
                "viperx",
                Vec3::new(0.3, 0.0, 0.3),
                Vec3::new(0.1, -0.3, 0.2),
            ))
            .with_device(DosingDevice::new(
                "doser",
                Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
            ))
            .with_device(Vial::new("vial", Vec3::new(0.537, 0.018, 0.12)))
    }

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }

    fn rabit() -> Rabit {
        Rabit::new(Rulebase::standard(), catalog(), RabitConfig::default())
    }

    fn safe_workflow() -> Workflow {
        Workflow::new("safe")
            .set_door("doser", true)
            .move_inside("viperx", "doser")
            .move_out("viperx")
            .set_door("doser", false)
    }

    fn buggy_workflow() -> Workflow {
        // Bug A shape: the door never opens.
        Workflow::new("bug_a")
            .move_inside("viperx", "doser")
            .move_out("viperx")
    }

    fn doors_only() -> Workflow {
        Workflow::new("doors")
            .set_door("doser", true)
            .set_door("doser", false)
    }

    /// Every doser command is dropped: the device is hopeless.
    fn drop_every_doser_command(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed).with_on(
            "doser",
            FaultKind::DropCommand,
            FaultSchedule::EveryNth {
                period: 1,
                offset: 0,
            },
        )
    }

    #[test]
    fn guarded_safe_run_completes() {
        let mut lab = lab();
        let mut rabit = rabit();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&safe_workflow());
        assert!(report.completed(), "alert: {:?}", report.alert);
        assert_eq!(report.executed, 4);
        assert_eq!(report.trace.len(), 4);
        assert!(report.rabit_overhead_s > 0.0);
        assert!(report.rabit_overhead_s < report.lab_time_s);
        assert!(lab.damage_log().is_empty());
        assert_eq!(
            rabit
                .current_state()
                .get_bool(&"doser".into(), &StateKey::DoorOpen),
            Some(false),
            "the engine's belief follows the run"
        );
    }

    #[test]
    fn guarded_buggy_run_halts_without_damage() {
        // (workflow, commands executed before the block)
        let cases = [
            (buggy_workflow(), 0),
            // The door closes again before the arm enters.
            (
                Workflow::new("closed_again")
                    .set_door("doser", true)
                    .set_door("doser", false)
                    .move_inside("viperx", "doser")
                    .set_door("doser", true),
                2,
            ),
        ];
        for (wf, executed) in cases {
            let mut lab = lab();
            let mut rabit = rabit();
            let report = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
            let name = wf.name();
            assert!(
                matches!(report.alert, Some(Alert::InvalidCommand { .. })),
                "{name}: {:?}",
                report.alert
            );
            assert_eq!(report.executed, executed, "{name}");
            assert_eq!(report.trace.len(), executed + 1, "{name}: halted");
            assert!(matches!(
                report.trace.events[executed].outcome,
                TraceOutcome::Blocked { .. }
            ));
            assert!(
                lab.damage_log().is_empty(),
                "{name}: RABIT prevented the door break"
            );
        }
    }

    #[test]
    fn pass_through_lets_damage_happen() {
        let mut lab = lab();
        let report = Tracer::pass_through(&mut lab).run(&buggy_workflow());
        assert!(report.completed(), "nothing stops the unguarded run");
        assert_eq!(report.executed, 2);
        assert_eq!(report.rabit_overhead_s, 0.0);
        assert_eq!(lab.damage_log().len(), 1, "the door broke");
    }

    #[test]
    fn pass_through_stops_on_device_fault() {
        let mut lab = lab();
        let wf = Workflow::new("fault").then(rabit_devices::Command::new(
            "vial",
            rabit_devices::ActionKind::MoveHome,
        ));
        let report = Tracer::pass_through(&mut lab).run(&wf);
        assert!(!report.completed());
        assert!(matches!(
            report.trace.events[0].outcome,
            TraceOutcome::Faulted { .. }
        ));
    }

    #[test]
    fn pass_through_runs_count_only_their_own_injected_faults() {
        let mut lab = lab();
        lab.arm_faults(drop_every_doser_command(11).session());
        let open = Workflow::new("open").set_door("doser", true);
        let first = Tracer::pass_through(&mut lab).run(&open);
        let second = Tracer::pass_through(&mut lab).run(&open);
        assert_eq!(first.counters.faults_injected, 1);
        assert_eq!(
            second.counters.faults_injected, 1,
            "the first run's fault is not recounted"
        );
        assert_eq!(lab.fault_stats().total_injected(), 2);
    }

    #[test]
    fn trace_times_are_monotone() {
        let mut lab = lab();
        let mut rabit = rabit();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&safe_workflow());
        let times: Vec<f64> = report.trace.events.iter().map(|e| e.time_s).collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(report.lab_time_s >= *times.last().unwrap());
    }

    #[test]
    fn overhead_is_part_of_lab_time() {
        let mut lab = lab();
        let mut rabit = rabit();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&doors_only());
        assert!(report.completed());
        assert!(report.rabit_overhead_s > 0.0);
        assert!(report.lab_time_s > report.rabit_overhead_s);
        // Device time ≈ 2 door motions × 2 s.
        let device_time = report.lab_time_s - report.rabit_overhead_s;
        assert!((device_time - 4.0).abs() < 1e-9, "{device_time}");
    }

    #[test]
    fn quarantine_policy_continues_degraded() {
        let mut lab = lab();
        let mut rabit = Rabit::builder()
            .catalog(catalog())
            .recovery(RecoveryPolicy::Quarantine(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }))
            .fault_plan(drop_every_doser_command(7))
            .build();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&doors_only());
        assert!(
            report.completed(),
            "quarantine never alerts: {:?}",
            report.alert
        );
        assert_eq!(report.executed, 0, "nothing actually ran");
        assert!(report
            .trace
            .events
            .iter()
            .all(|e| matches!(e.outcome, TraceOutcome::Skipped { .. })));
        assert!(rabit.is_quarantined(&"doser".into()));
        assert_eq!(rabit.quarantined_devices().count(), 1);
        assert_eq!(report.counters.recovery.quarantined, 1);
        assert_eq!(report.counters.recovery.skipped_quarantined, 1);
        assert!(report.counters.faults_injected >= 2);
    }
}

//! The interception layer.
//!
//! "We reconfigure RATracer such that every time it traces a command, it
//! first checks with RABIT if the command is safe to run: if RABIT raises
//! an alert, the experiment is halted …; otherwise, the command is
//! forwarded to the device and executed." (§II-C)

use crate::trace::{Trace, TraceEvent, TraceOutcome};
use crate::workflow::Workflow;
use rabit_core::{Alert, Lab, Rabit, RunCounters, StepOutcome};

/// How the tracer treats each intercepted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Check with RABIT before forwarding; halt on alert (the deployed
    /// configuration).
    #[default]
    Guarded,
    /// Forward everything and just record — the original RATracer
    /// behaviour, used to produce RAD-style traces and as the unguarded
    /// baseline of the latency experiment.
    PassThrough,
}

/// The result of tracing one workflow.
#[derive(Debug)]
pub struct TraceReport {
    /// The recorded trace.
    pub trace: Trace,
    /// The alert that halted the run, if any.
    pub alert: Option<Alert>,
    /// Commands that executed on devices.
    pub executed: usize,
    /// Total virtual lab time for the run (seconds).
    pub lab_time_s: f64,
    /// RABIT's share of that time (zero in pass-through mode).
    pub rabit_overhead_s: f64,
    /// The run's counters, as in [`rabit_core::RunReport::counters`]. In
    /// pass-through mode only `faults_injected` can be non-zero.
    pub counters: RunCounters,
}

impl TraceReport {
    /// Whether the workflow ran to completion.
    pub fn completed(&self) -> bool {
        self.alert.is_none()
    }
}

/// The tracer: drives a [`Workflow`] through a [`Lab`], optionally
/// guarded by a [`Rabit`] engine.
pub struct Tracer<'a> {
    lab: &'a mut Lab,
    rabit: Option<&'a mut Rabit>,
    mode: TraceMode,
}

impl<'a> Tracer<'a> {
    /// A guarded tracer: every command is checked by `rabit` first.
    pub fn guarded(lab: &'a mut Lab, rabit: &'a mut Rabit) -> Self {
        Tracer {
            lab,
            rabit: Some(rabit),
            mode: TraceMode::Guarded,
        }
    }

    /// A pass-through tracer: commands are executed and recorded only.
    pub fn pass_through(lab: &'a mut Lab) -> Self {
        Tracer {
            lab,
            rabit: None,
            mode: TraceMode::PassThrough,
        }
    }

    /// Runs the workflow, producing a trace. In guarded mode the run
    /// halts at the first alert (the paper's `alertAndStop`); in
    /// pass-through mode only hard device faults stop it.
    pub fn run(mut self, workflow: &Workflow) -> TraceReport {
        let mut trace = Trace::new(workflow.name());
        let t0 = self.lab.clock().now_s();
        let mut executed = 0;
        let mut halt_alert = None;

        let overhead0 = self.rabit.as_ref().map_or(0.0, |r| r.overhead_s());
        // Without an engine only the lab's own counters can move.
        let snapshot = |rabit: Option<&Rabit>, lab: &Lab| {
            rabit.map_or_else(|| RunCounters::of_lab(lab), |r| r.counters(lab))
        };
        let counters0 = snapshot(self.rabit.as_deref(), self.lab);
        if let Some(rabit) = self.rabit.as_deref_mut() {
            rabit.initialize(self.lab);
        }

        for (seq, command) in workflow.commands().iter().enumerate() {
            let time_s = self.lab.clock().now_s();
            let outcome = match (self.mode, self.rabit.as_deref_mut()) {
                (TraceMode::Guarded, Some(rabit)) => match rabit.step(self.lab, command) {
                    Ok(StepOutcome::SkippedQuarantined) => TraceOutcome::Skipped {
                        reason: format!("{} quarantined", command.actor),
                    },
                    Ok(StepOutcome::Quarantined) => TraceOutcome::Skipped {
                        reason: format!("{} quarantined after repeated faults", command.actor),
                    },
                    Ok(_) => {
                        executed += 1;
                        TraceOutcome::Forwarded
                    }
                    Err(alert) => {
                        let outcome = match &alert {
                            Alert::DeviceFault { error, .. } => TraceOutcome::Faulted {
                                error: error.to_string(),
                            },
                            Alert::DeviceMalfunction { diffs, .. } => {
                                executed += 1;
                                TraceOutcome::MalfunctionDetected {
                                    detail: diffs
                                        .iter()
                                        .map(ToString::to_string)
                                        .collect::<Vec<_>>()
                                        .join("; "),
                                }
                            }
                            _ => TraceOutcome::Blocked {
                                alert: alert.headline().to_string(),
                            },
                        };
                        halt_alert = Some(alert);
                        outcome
                    }
                },
                _ => match self.lab.apply(command) {
                    Ok(()) => {
                        executed += 1;
                        TraceOutcome::Forwarded
                    }
                    Err(error) => {
                        let outcome = TraceOutcome::Faulted {
                            error: error.to_string(),
                        };
                        halt_alert = Some(Alert::DeviceFault {
                            command: command.clone(),
                            error,
                        });
                        outcome
                    }
                },
            };
            trace.record(TraceEvent {
                seq,
                time_s,
                command: command.clone(),
                outcome,
            });
            if halt_alert.is_some() {
                break;
            }
        }

        let rabit_overhead_s = self.rabit.as_ref().map_or(0.0, |r| r.overhead_s()) - overhead0;
        TraceReport {
            trace,
            alert: halt_alert,
            executed,
            lab_time_s: self.lab.clock().now_s() - t0,
            rabit_overhead_s,
            counters: snapshot(self.rabit.as_deref(), self.lab).since(&counters0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::RabitConfig;
    use rabit_devices::{DeviceType, DosingDevice, RobotArm, Vial};
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

    fn rabit() -> Rabit {
        let catalog = DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container));
        Rabit::new(Rulebase::standard(), catalog, RabitConfig::default())
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

    #[test]
    fn guarded_safe_run_completes() {
        let mut lab = lab();
        let mut rabit = rabit();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&safe_workflow());
        assert!(report.completed());
        assert_eq!(report.executed, 4);
        assert_eq!(report.trace.len(), 4);
        assert!(report.rabit_overhead_s > 0.0);
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn guarded_buggy_run_halts_without_damage() {
        let mut lab = lab();
        let mut rabit = rabit();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&buggy_workflow());
        assert!(!report.completed());
        assert_eq!(report.executed, 0);
        assert_eq!(report.trace.len(), 1, "halted at the first command");
        assert!(matches!(
            report.trace.events[0].outcome,
            TraceOutcome::Blocked { .. }
        ));
        assert!(
            lab.damage_log().is_empty(),
            "RABIT prevented the door break"
        );
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
}

//! Concurrent workflow execution under space multiplexing.
//!
//! Time multiplexing serialises the arms; the software wall exists so
//! that arms can move *concurrently*, "pushing for more concurrency in
//! their experiments" (§IV). This module executes several command
//! streams — one per arm — with a deterministic discrete-event scheduler:
//! at every step the stream with the smallest local clock issues its next
//! command through the guarded engine, and the command's duration
//! advances only that stream's clock. The makespan (the slowest stream's
//! clock) is what a wall-clock observer of the concurrent lab would see;
//! the serialised time (every command end to end) is what time
//! multiplexing would cost.

use crate::trace::{Trace, TraceEvent};
use crate::tracer::trace_outcome;
use crate::workflow::Workflow;
use rabit_core::{Alert, Lab, Rabit};

/// Per-stream outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The stream's (workflow's) name.
    pub name: String,
    /// The stream's local clock at the end (seconds).
    pub local_time_s: f64,
    /// Commands executed from this stream.
    pub executed: usize,
}

/// Outcome of a concurrent run.
#[derive(Debug)]
pub struct ConcurrentReport {
    /// Per-stream outcomes, in input order.
    pub streams: Vec<StreamReport>,
    /// The alert that stopped everything, if any.
    pub alert: Option<Alert>,
    /// Wall-clock makespan of the concurrent execution (seconds): the
    /// largest stream clock.
    pub makespan_s: f64,
    /// The same work executed one command at a time (seconds) — the time
    /// multiplexing would cost.
    pub serialized_s: f64,
    /// The interleaved command trace (timestamps are stream-local issue
    /// times).
    pub trace: Trace,
}

impl ConcurrentReport {
    /// Whether every stream ran to completion.
    pub fn completed(&self) -> bool {
        self.alert.is_none()
    }

    /// Fraction of wall-clock time concurrency saves over serialising.
    pub fn concurrency_gain(&self) -> f64 {
        if self.serialized_s <= 0.0 {
            0.0
        } else {
            1.0 - self.makespan_s / self.serialized_s
        }
    }
}

/// Executes `streams` concurrently under the guarded engine.
///
/// Commands are interleaved earliest-stream-first (ties broken by input
/// order), which is deterministic; each command is rule-checked against
/// the engine's current believed state exactly as in a serial run. The
/// first alert stops every stream, matching `alertAndStop`.
pub fn run_concurrent(lab: &mut Lab, rabit: &mut Rabit, streams: &[Workflow]) -> ConcurrentReport {
    rabit.initialize(lab);
    let mut cursors = vec![0usize; streams.len()];
    let mut clocks = vec![0.0f64; streams.len()];
    let mut executed = vec![0usize; streams.len()];
    let mut trace = Trace::new("concurrent");
    let mut alert = None;
    let mut serialized = 0.0;
    let mut seq = 0usize;

    loop {
        // The earliest stream that still has work.
        let next = (0..streams.len())
            .filter(|&i| cursors[i] < streams[i].len())
            .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]));
        let Some(i) = next else { break };
        let command = &streams[i].commands()[cursors[i]];
        cursors[i] += 1;

        let t0 = lab.clock().now_s();
        let issue_time = clocks[i];
        let result = rabit.step(lab, command);
        let dt = lab.clock().now_s() - t0;
        clocks[i] += dt;
        serialized += dt;

        let outcome = trace_outcome(command, &result);
        if outcome.executed() {
            executed[i] += 1;
        }
        trace.record(TraceEvent {
            seq,
            time_s: issue_time,
            command: command.clone(),
            outcome,
        });
        seq += 1;
        if let Err(a) = result {
            alert = Some(a);
            break;
        }
    }

    let makespan_s = clocks.iter().copied().fold(0.0, f64::max);
    ConcurrentReport {
        streams: streams
            .iter()
            .zip(clocks.iter().zip(executed.iter()))
            .map(|(wf, (&local_time_s, &executed))| StreamReport {
                name: wf.name().to_string(),
                local_time_s,
                executed,
            })
            .collect(),
        alert,
        makespan_s,
        serialized_s: serialized,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::RabitConfig;
    use rabit_devices::{DeviceType, RobotArm};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::{extensions, DeviceCatalog, DeviceMeta, Rulebase};

    fn two_arm_lab() -> Lab {
        Lab::new()
            .with_device(RobotArm::new(
                "viperx",
                Vec3::new(0.3, 0.0, 0.3),
                Vec3::new(0.1, -0.3, 0.2),
            ))
            .with_device(RobotArm::new(
                "ned2",
                Vec3::new(1.2, 0.0, 0.3),
                Vec3::new(1.4, -0.3, 0.2),
            ))
    }

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2))
                    .with_allowed_region(Aabb::new(
                        Vec3::new(-0.5, -0.5, 0.0),
                        Vec3::new(0.7, 0.5, 1.0),
                    )),
            )
            .with(
                DeviceMeta::new("ned2", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(1.2, 0.0, 0.3), Vec3::new(1.4, -0.3, 0.2))
                    .with_allowed_region(Aabb::new(
                        Vec3::new(0.8, -0.5, 0.0),
                        Vec3::new(2.0, 0.5, 1.0),
                    )),
            )
    }

    fn space_mux_rabit() -> Rabit {
        let mut rulebase = Rulebase::standard();
        rulebase.push(extensions::space_multiplexing_rule());
        Rabit::new(rulebase, catalog(), RabitConfig::default())
    }

    fn time_mux_rabit() -> Rabit {
        let mut rulebase = Rulebase::standard();
        rulebase.push(extensions::time_multiplexing_rule());
        Rabit::new(rulebase, catalog(), RabitConfig::default())
    }

    fn viperx_stream() -> Workflow {
        Workflow::new("viperx_side")
            .move_to("viperx", Vec3::new(0.4, 0.2, 0.3))
            .move_to("viperx", Vec3::new(0.2, -0.2, 0.4))
            .move_to("viperx", Vec3::new(0.5, 0.0, 0.3))
            .go_home("viperx")
    }

    fn ned2_stream() -> Workflow {
        Workflow::new("ned2_side")
            .move_to("ned2", Vec3::new(1.3, 0.2, 0.3))
            .move_to("ned2", Vec3::new(1.1, -0.2, 0.4))
            .go_home("ned2")
    }

    #[test]
    fn concurrent_streams_run_under_the_software_wall() {
        let mut lab = two_arm_lab();
        let mut rabit = space_mux_rabit();
        let report = run_concurrent(&mut lab, &mut rabit, &[viperx_stream(), ned2_stream()]);
        assert!(report.completed(), "alert: {:?}", report.alert);
        assert_eq!(report.streams[0].executed, 4);
        assert_eq!(report.streams[1].executed, 3);
        // The makespan is the slower side, not the sum.
        let slower = report
            .streams
            .iter()
            .map(|s| s.local_time_s)
            .fold(0.0, f64::max);
        assert!((report.makespan_s - slower).abs() < 1e-9);
        assert!(report.makespan_s < report.serialized_s);
        assert!(
            report.concurrency_gain() > 0.25,
            "{}",
            report.concurrency_gain()
        );
        // The trace interleaves the two streams.
        assert_eq!(report.trace.len(), 7);
    }

    #[test]
    fn time_multiplexing_rejects_the_same_concurrency() {
        let mut lab = two_arm_lab();
        let mut rabit = time_mux_rabit();
        let report = run_concurrent(&mut lab, &mut rabit, &[viperx_stream(), ned2_stream()]);
        let alert = report
            .alert
            .expect("neither arm is asleep: motion must be blocked");
        assert!(alert.to_string().contains("time_multiplexing"), "{alert}");
    }

    #[test]
    fn wall_violations_stop_all_streams() {
        let mut lab = two_arm_lab();
        let mut rabit = space_mux_rabit();
        // Ned2's second move reaches across the wall into ViperX's side.
        let rogue = Workflow::new("rogue_ned2")
            .move_to("ned2", Vec3::new(1.3, 0.2, 0.3))
            .move_to("ned2", Vec3::new(0.4, 0.0, 0.3));
        let report = run_concurrent(&mut lab, &mut rabit, &[viperx_stream(), rogue]);
        let alert = report.alert.expect("the wall crossing must be blocked");
        assert!(alert.to_string().contains("software wall"), "{alert}");
        // Streams stop where they were; total executed < total commands.
        let executed: usize = report.streams.iter().map(|s| s.executed).sum();
        assert!(executed < 6);
    }

    #[test]
    fn single_stream_degenerates_to_serial() {
        let mut lab = two_arm_lab();
        let mut rabit = space_mux_rabit();
        let report = run_concurrent(&mut lab, &mut rabit, &[viperx_stream()]);
        assert!(report.completed());
        assert!((report.makespan_s - report.serialized_s).abs() < 1e-9);
        assert_eq!(report.concurrency_gain(), 0.0);
    }

    #[test]
    fn scheduler_is_deterministic() {
        let run = || {
            let mut lab = two_arm_lab();
            let mut rabit = space_mux_rabit();
            let r = run_concurrent(&mut lab, &mut rabit, &[viperx_stream(), ned2_stream()]);
            (r.makespan_s, r.serialized_s, r.trace.to_jsonl())
        };
        assert_eq!(run(), run());
    }
}

//! The runtime [`Device`] trait, errors, latencies, and malfunction
//! injection.

use crate::command::ActionKind;
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use rabit_geometry::Aabb;
use std::fmt;

/// Errors a device can raise while executing a command.
///
/// These model *firmware-level* refusals — the first line of defence the
/// paper describes ("device-specific thresholds embedded inside device
/// firmware", §I) — plus mechanical failure modes used by the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The action is not supported by this device type (e.g. asking a
    /// hotplate to pick up a vial).
    UnsupportedAction {
        /// The acting device.
        device: DeviceId,
        /// The rejected action label.
        action: &'static str,
    },
    /// A firmware threshold was exceeded (e.g. the IKA hotplate's safe
    /// temperature limit).
    FirmwareLimit {
        /// The acting device.
        device: DeviceId,
        /// Requested value.
        requested: f64,
        /// Firmware maximum.
        limit: f64,
    },
    /// The command is inconsistent with the device's own state in a way
    /// its firmware detects (e.g. a dosing device asked to dose while
    /// already dosing).
    InvalidState {
        /// The acting device.
        device: DeviceId,
        /// Human-readable reason.
        reason: String,
    },
    /// The device's controller could not compute a trajectory and raised
    /// an exception — the Ned2 behaviour for infeasible targets.
    TrajectoryFault {
        /// The acting device.
        device: DeviceId,
        /// Why the trajectory failed.
        reason: String,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnsupportedAction { device, action } => {
                write!(f, "{device}: unsupported action '{action}'")
            }
            DeviceError::FirmwareLimit {
                device,
                requested,
                limit,
            } => {
                write!(
                    f,
                    "{device}: requested {requested} exceeds firmware limit {limit}"
                )
            }
            DeviceError::InvalidState { device, reason } => {
                write!(f, "{device}: invalid state: {reason}")
            }
            DeviceError::TrajectoryFault { device, reason } => {
                write!(f, "{device}: trajectory fault: {reason}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Injectable malfunctions, used by the evaluation to make
/// `S_actual ≠ S_expected` (Fig. 2, Lines 14-15) without physical damage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Malfunction {
    /// The device acknowledges commands but its actuator does nothing
    /// (e.g. a stuck door, the ViperX silently skipping a move).
    SilentNoop,
    /// Numeric state reads are offset by this amount (drifted sensor).
    SensorOffset(f64),
    /// A robot arm's gripper fails to retain objects: any pick appears to
    /// succeed but the object is immediately dropped.
    DropsObject,
}

/// Simulated command latencies, in seconds of lab time.
///
/// RABIT's latency-overhead experiment (§II-C) compares per-command device
/// execution time (~2 s for physical motion) against RABIT's checking
/// overhead (~0.03 s) and the Extended Simulator's GUI overhead (~2 s).
/// Devices report how long each action takes so the harness can accumulate
/// virtual lab time deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Seconds for a motion action (arm move, door actuation).
    pub motion_s: f64,
    /// Seconds for a process action (dosing, heating ramp start).
    pub process_s: f64,
    /// Seconds for a status query (the `FetchState()` building block).
    pub status_s: f64,
}

impl LatencyModel {
    /// Typical production-lab latencies: ~2 s motions, 1 s process
    /// actions, 10 ms status reads.
    pub const PRODUCTION: LatencyModel = LatencyModel {
        motion_s: 2.0,
        process_s: 1.0,
        status_s: 0.01,
    };

    /// Testbed latencies: slower, jerkier educational arms.
    pub const TESTBED: LatencyModel = LatencyModel {
        motion_s: 3.0,
        process_s: 1.0,
        status_s: 0.02,
    };

    /// Simulator latencies: no physics, everything is quick.
    pub const SIMULATED: LatencyModel = LatencyModel {
        motion_s: 0.05,
        process_s: 0.01,
        status_s: 0.001,
    };

    /// Zero-cost model for pure logic tests.
    pub const ZERO: LatencyModel = LatencyModel {
        motion_s: 0.0,
        process_s: 0.0,
        status_s: 0.0,
    };

    /// The simulated duration of `action` on a device using this model.
    pub fn action_latency(&self, action: &ActionKind) -> f64 {
        if action.is_robot_motion() || matches!(action, ActionKind::SetDoor { .. }) {
            self.motion_s
        } else {
            self.process_s
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::PRODUCTION
    }
}

/// A runtime lab device: the object RABIT fetches state from and forwards
/// validated commands to.
///
/// `Send + Sync` is required so labs (and the substrates that build them)
/// can be shared across fleet worker threads; devices hold no interior
/// mutability, so any ordinary device satisfies this automatically.
pub trait Device: Send + Sync {
    /// The device's unique id.
    fn id(&self) -> &DeviceId;

    /// Which of the four taxonomy types (or a custom type) this device is.
    fn device_type(&self) -> DeviceType;

    /// Status command: writes the device's state variables into `state`,
    /// clearing it first. This is the per-device building block of
    /// `FetchState()` in Fig. 2; the lab refills one snapshot in place
    /// with it, so a warm fetch allocates nothing.
    fn write_status(&self, state: &mut DeviceState);

    /// The status command's result as an owned snapshot.
    fn fetch_state(&self) -> DeviceState {
        let mut state = DeviceState::new();
        self.write_status(&mut state);
        state
    }

    /// Executes an action, updating internal state.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] for firmware refusals or unsupported
    /// actions. **No safety checking happens here** — that is RABIT's
    /// job; firmware checks are deliberately narrow (paper §I).
    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError>;

    /// The stationary cuboid this device occupies on the deck, if it is
    /// stationary (robot arms return `None`; their volume is dynamic).
    fn footprint(&self) -> Option<Aabb> {
        None
    }

    /// The device's command-latency model.
    fn latency(&self) -> LatencyModel {
        LatencyModel::default()
    }

    /// Injects (or clears) a malfunction. Default: ignored, for devices
    /// that do not support injection.
    fn inject_malfunction(&mut self, _malfunction: Option<Malfunction>) {}
}

/// Helper shared by the concrete devices: apply a sensor-offset
/// malfunction to a numeric reading.
pub(crate) fn offset_reading(value: f64, malfunction: Option<Malfunction>) -> f64 {
    match malfunction {
        Some(Malfunction::SensorOffset(off)) => value + off,
        _ => value,
    }
}

/// Helper shared by the concrete devices: should this execute be silently
/// swallowed?
pub(crate) fn is_silent_noop(malfunction: Option<Malfunction>) -> bool {
    matches!(malfunction, Some(Malfunction::SilentNoop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_geometry::Vec3;

    #[test]
    fn latency_classification() {
        let m = LatencyModel::PRODUCTION;
        assert_eq!(
            m.action_latency(&ActionKind::MoveToLocation { target: Vec3::ZERO }),
            2.0
        );
        assert_eq!(m.action_latency(&ActionKind::SetDoor { open: true }), 2.0);
        assert_eq!(
            m.action_latency(&ActionKind::StartAction { value: 60.0 }),
            1.0
        );
        assert_eq!(m.action_latency(&ActionKind::Cap), 1.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn latency_presets_are_ordered() {
        assert!(LatencyModel::SIMULATED.motion_s < LatencyModel::PRODUCTION.motion_s);
        assert!(LatencyModel::PRODUCTION.motion_s <= LatencyModel::TESTBED.motion_s);
        assert_eq!(LatencyModel::ZERO.status_s, 0.0);
        assert_eq!(LatencyModel::default(), LatencyModel::PRODUCTION);
    }

    #[test]
    fn error_display() {
        let e = DeviceError::FirmwareLimit {
            device: DeviceId::new("hotplate"),
            requested: 400.0,
            limit: 340.0,
        };
        assert!(e.to_string().contains("exceeds firmware limit"));
        let e = DeviceError::UnsupportedAction {
            device: DeviceId::new("x"),
            action: "cap_vial",
        };
        assert!(e.to_string().contains("unsupported"));
        let e = DeviceError::TrajectoryFault {
            device: DeviceId::new("ned2"),
            reason: "target out of reach".into(),
        };
        assert!(e.to_string().contains("trajectory fault"));
    }

    #[test]
    fn malfunction_helpers() {
        assert_eq!(
            offset_reading(10.0, Some(Malfunction::SensorOffset(2.0))),
            12.0
        );
        assert_eq!(offset_reading(10.0, Some(Malfunction::SilentNoop)), 10.0);
        assert_eq!(offset_reading(10.0, None), 10.0);
        assert!(is_silent_noop(Some(Malfunction::SilentNoop)));
        assert!(!is_silent_noop(Some(Malfunction::DropsObject)));
        assert!(!is_silent_noop(None));
    }
}

//! The logical **Robot Arm** device.
//!
//! This is the arm as RABIT observes it through status commands: a
//! location, a gripper, what it is holding, and which device it is inside.
//! The *physical* arm (joints, links, trajectories) lives in the
//! `rabit-kinematics` crate and is bound to this logical device by the
//! stage crates (simulator / testbed / production).

use crate::command::ActionKind;
use crate::device::{Device, DeviceError, LatencyModel, Malfunction};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::Vec3;

/// A six-axis robot arm's logical state.
#[derive(Debug, Clone, PartialEq)]
pub struct RobotArm {
    id: DeviceId,
    location: Vec3,
    home_location: Vec3,
    sleep_location: Vec3,
    gripper_open: bool,
    holding: Option<DeviceId>,
    inside_of: Option<DeviceId>,
    at_sleep: bool,
    /// ViperX-style failure mode: infeasible moves are silently skipped
    /// instead of raising an error (paper §IV, category 4).
    silent_on_infeasible: bool,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl RobotArm {
    /// Creates an arm at its home location, gripper open, holding nothing.
    pub fn new(id: impl Into<DeviceId>, home_location: Vec3, sleep_location: Vec3) -> Self {
        RobotArm {
            id: id.into(),
            location: home_location,
            home_location,
            sleep_location,
            gripper_open: true,
            holding: None,
            inside_of: None,
            at_sleep: false,
            silent_on_infeasible: false,
            malfunction: None,
            latency: LatencyModel::PRODUCTION,
        }
    }

    /// Configures the ViperX-style silent-skip behaviour for infeasible
    /// commands.
    pub fn with_silent_on_infeasible(mut self, silent: bool) -> Self {
        self.silent_on_infeasible = silent;
        self
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Whether infeasible moves are silently skipped (ViperX) rather than
    /// raised (Ned2).
    pub fn silent_on_infeasible(&self) -> bool {
        self.silent_on_infeasible
    }

    /// Current tool location (in this arm's own coordinate frame).
    pub fn location(&self) -> Vec3 {
        self.location
    }

    /// The home (ready) location.
    pub fn home_location(&self) -> Vec3 {
        self.home_location
    }

    /// The sleep (stowed) location.
    pub fn sleep_location(&self) -> Vec3 {
        self.sleep_location
    }

    /// What the gripper is holding, if anything.
    pub fn holding(&self) -> Option<&DeviceId> {
        self.holding.as_ref()
    }

    /// Which device the arm is currently inside, if any.
    pub fn inside_of(&self) -> Option<&DeviceId> {
        self.inside_of.as_ref()
    }

    /// Whether the gripper jaws are open.
    pub fn gripper_open(&self) -> bool {
        self.gripper_open
    }

    /// Whether the arm is parked at its sleep position.
    pub fn at_sleep(&self) -> bool {
        self.at_sleep
    }

    /// Forces the holding state (used by the environment when a pick
    /// physically fails, e.g. the gripper closed on air — the Bug-C
    /// scenario where "ViperX … continues the remaining experiment
    /// without a vial").
    pub fn set_holding(&mut self, object: Option<DeviceId>) {
        self.holding = object;
    }

    /// Forces the location (used by the environment after physical
    /// simulation resolves the actual reached position).
    pub fn set_location(&mut self, location: Vec3) {
        self.location = location;
    }
}

impl Device for RobotArm {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::RobotArm
    }

    fn write_status(&self, state: &mut DeviceState) {
        // The controller reports its *command-level* state: gripper jaws,
        // what it believes it holds, which device it entered, whether it
        // parked. It does NOT report a Cartesian tool position — RABIT
        // compares command-level states, which is why a silently skipped
        // move (the ViperX behaviour in §IV, category 4) goes unnoticed.
        state.clear();
        state.set(StateKey::GripperOpen, self.gripper_open);
        state.set(StateKey::Holding, self.holding.clone());
        state.set(StateKey::InsideOf, self.inside_of.clone());
        state.set(StateKey::AtSleep, self.at_sleep);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::MoveToLocation { target } => {
                if !target.is_finite() {
                    return Err(DeviceError::TrajectoryFault {
                        device: self.id.clone(),
                        reason: "non-finite target".to_string(),
                    });
                }
                self.location = *target;
                self.inside_of = None;
                self.at_sleep = false;
                Ok(())
            }
            ActionKind::MoveInsideDevice { device } => {
                self.inside_of = Some(device.clone());
                self.at_sleep = false;
                Ok(())
            }
            ActionKind::MoveOutOfDevice => {
                self.inside_of = None;
                Ok(())
            }
            ActionKind::MoveHome => {
                self.location = self.home_location;
                self.inside_of = None;
                self.at_sleep = false;
                Ok(())
            }
            ActionKind::MoveToSleep => {
                self.location = self.sleep_location;
                self.inside_of = None;
                self.at_sleep = true;
                Ok(())
            }
            ActionKind::OpenGripper => {
                self.gripper_open = true;
                // Opening the gripper releases whatever was held.
                self.holding = None;
                Ok(())
            }
            ActionKind::CloseGripper => {
                self.gripper_open = false;
                Ok(())
            }
            ActionKind::PickObject { object } => {
                self.gripper_open = false;
                self.at_sleep = false;
                if matches!(self.malfunction, Some(Malfunction::DropsObject)) {
                    // The gripper closed but failed to retain the object.
                    self.holding = None;
                } else {
                    self.holding = Some(object.clone());
                }
                Ok(())
            }
            ActionKind::PlaceObject { object, into: _ } => {
                if self.holding.as_ref() != Some(object) {
                    // The arm executes the motion regardless; whether it
                    // actually released anything is reflected in state.
                    // (The paper's Bug-C workflow "continued without a
                    // vial" — no firmware error was raised.)
                    self.gripper_open = true;
                    return Ok(());
                }
                self.holding = None;
                self.gripper_open = true;
                self.at_sleep = false;
                Ok(())
            }
            other => Err(DeviceError::UnsupportedAction {
                device: self.id.clone(),
                action: other.label(),
            }),
        }
    }

    fn latency(&self) -> LatencyModel {
        self.latency
    }

    fn inject_malfunction(&mut self, malfunction: Option<Malfunction>) {
        self.malfunction = malfunction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm() -> RobotArm {
        RobotArm::new("viperx", Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, 0.0, 0.1))
    }

    #[test]
    fn starts_at_home_holding_nothing() {
        let a = arm();
        assert_eq!(a.location(), a.home_location());
        assert!(a.holding().is_none());
        assert!(a.gripper_open());
        assert!(!a.at_sleep());
        assert_eq!(a.device_type(), DeviceType::RobotArm);
        assert!(a.footprint().is_none(), "arms are dynamic, not cuboids");
    }

    #[test]
    fn move_commands_update_location() {
        let mut a = arm();
        let target = Vec3::new(0.537, 0.018, 0.12);
        a.execute(&ActionKind::MoveToLocation { target }).unwrap();
        assert_eq!(a.location(), target);
        a.execute(&ActionKind::MoveToSleep).unwrap();
        assert!(a.at_sleep());
        assert_eq!(a.location(), a.sleep_location());
        a.execute(&ActionKind::MoveHome).unwrap();
        assert!(!a.at_sleep());
        assert_eq!(a.location(), a.home_location());
    }

    #[test]
    fn non_finite_target_is_a_trajectory_fault() {
        let mut a = arm();
        let err = a
            .execute(&ActionKind::MoveToLocation {
                target: Vec3::new(f64::NAN, 0.0, 0.0),
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::TrajectoryFault { .. }));
    }

    #[test]
    fn pick_and_place_lifecycle() {
        let mut a = arm();
        a.execute(&ActionKind::PickObject {
            object: "vial".into(),
        })
        .unwrap();
        assert_eq!(a.holding().unwrap().as_str(), "vial");
        assert!(!a.gripper_open());
        a.execute(&ActionKind::PlaceObject {
            object: "vial".into(),
            into: None,
        })
        .unwrap();
        assert!(a.holding().is_none());
        assert!(a.gripper_open());
    }

    #[test]
    fn open_gripper_drops_held_object() {
        let mut a = arm();
        a.execute(&ActionKind::PickObject {
            object: "vial".into(),
        })
        .unwrap();
        a.execute(&ActionKind::OpenGripper).unwrap();
        assert!(a.holding().is_none());
    }

    #[test]
    fn place_without_holding_is_silently_tolerated() {
        // The Bug-C behaviour: no firmware error, experiment continues.
        let mut a = arm();
        assert!(a
            .execute(&ActionKind::PlaceObject {
                object: "vial".into(),
                into: None
            })
            .is_ok());
        assert!(a.holding().is_none());
    }

    #[test]
    fn drops_object_malfunction() {
        let mut a = arm();
        a.inject_malfunction(Some(Malfunction::DropsObject));
        a.execute(&ActionKind::PickObject {
            object: "vial".into(),
        })
        .unwrap();
        assert!(a.holding().is_none(), "gripper failed to retain the vial");
        assert!(!a.gripper_open(), "the jaws did close");
    }

    #[test]
    fn inside_device_tracking() {
        let mut a = arm();
        a.execute(&ActionKind::MoveInsideDevice {
            device: "dosing_device".into(),
        })
        .unwrap();
        assert_eq!(a.inside_of().unwrap().as_str(), "dosing_device");
        a.execute(&ActionKind::MoveOutOfDevice).unwrap();
        assert!(a.inside_of().is_none());
        // Any other move also exits the device volume.
        a.execute(&ActionKind::MoveInsideDevice {
            device: "dosing_device".into(),
        })
        .unwrap();
        a.execute(&ActionKind::MoveHome).unwrap();
        assert!(a.inside_of().is_none());
    }

    #[test]
    fn state_snapshot_contains_all_arm_variables() {
        let mut a = arm();
        a.execute(&ActionKind::PickObject {
            object: "vial".into(),
        })
        .unwrap();
        let s = a.fetch_state();
        assert_eq!(s.get_bool(&StateKey::GripperOpen), Some(false));
        assert_eq!(
            s.get_id(&StateKey::Holding).unwrap().unwrap().as_str(),
            "vial"
        );
        assert_eq!(s.get_id(&StateKey::InsideOf), Some(None));
        assert_eq!(s.get_bool(&StateKey::AtSleep), Some(false));
        // No Cartesian readback: position is a believed variable.
        assert!(s.get(&StateKey::Location).is_none());
    }

    #[test]
    fn rejects_foreign_actions() {
        let mut a = arm();
        assert!(matches!(
            a.execute(&ActionKind::StartAction { value: 1.0 }),
            Err(DeviceError::UnsupportedAction { .. })
        ));
        assert!(matches!(
            a.execute(&ActionKind::Cap),
            Err(DeviceError::UnsupportedAction { .. })
        ));
    }

    #[test]
    fn failure_mode_flag() {
        let a = arm().with_silent_on_infeasible(true);
        assert!(a.silent_on_infeasible());
        assert!(!arm().silent_on_infeasible());
    }
}

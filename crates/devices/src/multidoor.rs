//! Multi-door devices: one of the paper's open challenges.
//!
//! "Devices might have multiple doors, for instance, for two robot arms
//! to approach the device simultaneously. In its current state, RABIT
//! does not handle this." (§V-C)
//!
//! [`MultiDoorDevice`] is a working chamber with *named* doors, each
//! reported as the custom state variable `door:<name>`. Doors are
//! actuated with the custom actions `open_door:<name>` /
//! `close_door:<name>`, and the companion extension rules (in
//! `rabit-rulebase::extensions::multi_door`) generalise rules III-1/2 to
//! per-door, per-arm form.

use crate::command::ActionKind;
use crate::device::{is_silent_noop, Device, DeviceError, LatencyModel, Malfunction};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::Aabb;
use std::collections::BTreeMap;

/// The state-variable prefix for a named door.
pub const DOOR_KEY_PREFIX: &str = "door:";

/// The custom-action prefix for opening a named door.
pub const OPEN_DOOR_PREFIX: &str = "open_door:";
/// The custom-action prefix for closing a named door.
pub const CLOSE_DOOR_PREFIX: &str = "close_door:";

/// Builds the command that opens door `door` of `device`.
pub fn open_door_command(device: impl Into<DeviceId>, door: &str) -> crate::command::Command {
    crate::command::Command::new(
        device,
        ActionKind::Custom {
            name: format!("{OPEN_DOOR_PREFIX}{door}"),
            params: vec![],
        },
    )
}

/// Builds the command that closes door `door` of `device`.
pub fn close_door_command(device: impl Into<DeviceId>, door: &str) -> crate::command::Command {
    crate::command::Command::new(
        device,
        ActionKind::Custom {
            name: format!("{CLOSE_DOOR_PREFIX}{door}"),
            params: vec![],
        },
    )
}

/// The state key of a named door.
pub fn door_key(door: &str) -> StateKey {
    StateKey::Custom(format!("{DOOR_KEY_PREFIX}{door}"))
}

/// A processing chamber with several independently actuated doors — e.g.
/// a glovebox-style station served by two arms at once.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDoorDevice {
    id: DeviceId,
    footprint: Aabb,
    doors: BTreeMap<String, bool>,
    active: bool,
    contained: Vec<DeviceId>,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl MultiDoorDevice {
    /// Creates the chamber with the given doors, all initially closed.
    ///
    /// # Panics
    ///
    /// Panics if no doors are given.
    pub fn new<S: Into<String>>(
        id: impl Into<DeviceId>,
        footprint: Aabb,
        doors: impl IntoIterator<Item = S>,
    ) -> Self {
        let doors: BTreeMap<String, bool> = doors.into_iter().map(|d| (d.into(), false)).collect();
        assert!(
            !doors.is_empty(),
            "a multi-door device needs at least one door"
        );
        MultiDoorDevice {
            id: id.into(),
            footprint,
            doors,
            active: false,
            contained: Vec::new(),
            malfunction: None,
            latency: LatencyModel::PRODUCTION,
        }
    }

    /// Door names, in order.
    pub fn door_names(&self) -> impl Iterator<Item = &str> {
        self.doors.keys().map(String::as_str)
    }

    /// Whether the named door is open.
    pub fn door_open(&self, door: &str) -> Option<bool> {
        self.doors.get(door).copied()
    }

    /// Whether the chamber's process is running.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Places an object in the chamber (environment side-effect).
    pub fn insert_object(&mut self, object: DeviceId) {
        self.contained.push(object);
    }

    /// Removes an object from the chamber.
    pub fn remove_object(&mut self, object: &DeviceId) -> bool {
        let before = self.contained.len();
        self.contained.retain(|o| o != object);
        self.contained.len() != before
    }
}

impl Device for MultiDoorDevice {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::Custom("multi_door_chamber".to_string())
    }

    fn write_status(&self, state: &mut DeviceState) {
        state.clear();
        state.set(StateKey::ActionActive, self.active);
        state.set(StateKey::Footprint, self.footprint);
        for (door, open) in &self.doors {
            state.set(door_key(door), *open);
        }
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::Custom { name, .. } => {
                let (door, open) = if let Some(d) = name.strip_prefix(OPEN_DOOR_PREFIX) {
                    (d, true)
                } else if let Some(d) = name.strip_prefix(CLOSE_DOOR_PREFIX) {
                    (d, false)
                } else {
                    return Err(DeviceError::UnsupportedAction {
                        device: self.id.clone(),
                        action: "custom",
                    });
                };
                let Some(slot) = self.doors.get_mut(door) else {
                    return Err(DeviceError::InvalidState {
                        device: self.id.clone(),
                        reason: format!("no door named '{door}'"),
                    });
                };
                if !is_silent_noop(self.malfunction) {
                    *slot = open;
                }
                Ok(())
            }
            ActionKind::StartAction { .. } => {
                self.active = true;
                Ok(())
            }
            ActionKind::StopAction => {
                self.active = false;
                Ok(())
            }
            other => Err(DeviceError::UnsupportedAction {
                device: self.id.clone(),
                action: other.label(),
            }),
        }
    }

    fn footprint(&self) -> Option<Aabb> {
        Some(self.footprint)
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
    use rabit_geometry::Vec3;

    fn chamber() -> MultiDoorDevice {
        MultiDoorDevice::new(
            "glovebox",
            Aabb::new(Vec3::ZERO, Vec3::new(0.4, 0.4, 0.4)),
            ["north", "south"],
        )
    }

    #[test]
    fn doors_start_closed_and_actuate_independently() {
        let mut c = chamber();
        assert_eq!(c.door_names().count(), 2);
        assert_eq!(c.door_open("north"), Some(false));
        assert_eq!(c.door_open("south"), Some(false));
        assert_eq!(c.door_open("west"), None);
        c.execute(&open_door_command("glovebox", "north").action)
            .unwrap();
        assert_eq!(c.door_open("north"), Some(true));
        assert_eq!(c.door_open("south"), Some(false), "doors are independent");
        c.execute(&close_door_command("glovebox", "north").action)
            .unwrap();
        assert_eq!(c.door_open("north"), Some(false));
    }

    #[test]
    fn state_reports_each_door() {
        let mut c = chamber();
        c.execute(&open_door_command("glovebox", "south").action)
            .unwrap();
        let s = c.fetch_state();
        assert_eq!(s.get_bool(&door_key("north")), Some(false));
        assert_eq!(s.get_bool(&door_key("south")), Some(true));
        assert_eq!(s.get_bool(&StateKey::ActionActive), Some(false));
    }

    #[test]
    fn unknown_door_rejected() {
        let mut c = chamber();
        let err = c
            .execute(&open_door_command("glovebox", "west").action)
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidState { .. }));
        let err = c
            .execute(&ActionKind::Custom {
                name: "blink".into(),
                params: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::UnsupportedAction { .. }));
    }

    #[test]
    fn process_and_contents() {
        let mut c = chamber();
        c.execute(&ActionKind::StartAction { value: 1.0 }).unwrap();
        assert!(c.active());
        c.execute(&ActionKind::StopAction).unwrap();
        assert!(!c.active());
        c.insert_object("vial".into());
        assert!(c.remove_object(&"vial".into()));
        assert!(!c.remove_object(&"vial".into()));
    }

    #[test]
    fn stuck_door_malfunction() {
        let mut c = chamber();
        c.inject_malfunction(Some(Malfunction::SilentNoop));
        c.execute(&open_door_command("glovebox", "north").action)
            .unwrap();
        assert_eq!(c.door_open("north"), Some(false));
    }

    #[test]
    #[should_panic(expected = "at least one door")]
    fn doorless_chamber_rejected() {
        let _ = MultiDoorDevice::new(
            "x",
            Aabb::new(Vec3::ZERO, Vec3::splat(0.1)),
            Vec::<String>::new(),
        );
    }
}

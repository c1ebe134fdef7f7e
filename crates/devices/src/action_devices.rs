//! Action devices: hotplate, centrifuge, thermoshaker.

use crate::command::ActionKind;
use crate::device::{
    is_silent_noop, offset_reading, Device, DeviceError, LatencyModel, Malfunction,
};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::Aabb;

/// Shared implementation for the three action devices: an active/inactive
/// state, an action value, a firmware threshold, an optional door, and an
/// optional contained object.
#[derive(Debug, Clone, PartialEq)]
struct ActionCore {
    id: DeviceId,
    footprint: Aabb,
    active: bool,
    value: f64,
    /// Firmware threshold on the action value (the IKA hotplate's safe
    /// temperature limit, a centrifuge's max rpm, …).
    firmware_limit: f64,
    has_door: bool,
    door_open: bool,
    contained: Option<DeviceId>,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl ActionCore {
    fn new(id: DeviceId, footprint: Aabb, firmware_limit: f64, has_door: bool) -> Self {
        ActionCore {
            id,
            footprint,
            active: false,
            value: 0.0,
            firmware_limit,
            has_door,
            door_open: false,
            contained: None,
            malfunction: None,
            latency: LatencyModel::PRODUCTION,
        }
    }

    fn write_status(&self, state: &mut DeviceState) {
        // Controller-sensed variables only; the contained container is a
        // believed variable (no sensor in the chamber).
        state.clear();
        state.set(StateKey::ActionActive, self.active);
        state.set(
            StateKey::ActionValue,
            offset_reading(self.value, self.malfunction),
        );
        state.set(StateKey::ActionThreshold, self.firmware_limit);
        state.set(StateKey::Footprint, self.footprint);
        if self.has_door {
            state.set(StateKey::DoorOpen, self.door_open);
        }
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::StartAction { value } => {
                if *value > self.firmware_limit {
                    return Err(DeviceError::FirmwareLimit {
                        device: self.id.clone(),
                        requested: *value,
                        limit: self.firmware_limit,
                    });
                }
                if is_silent_noop(self.malfunction) {
                    return Ok(());
                }
                self.active = true;
                self.value = *value;
                Ok(())
            }
            ActionKind::StopAction => {
                if is_silent_noop(self.malfunction) {
                    return Ok(());
                }
                self.active = false;
                self.value = 0.0;
                Ok(())
            }
            ActionKind::SetDoor { open } if self.has_door => {
                if is_silent_noop(self.malfunction) {
                    return Ok(());
                }
                self.door_open = *open;
                Ok(())
            }
            other => Err(DeviceError::UnsupportedAction {
                device: self.id.clone(),
                action: other.label(),
            }),
        }
    }
}

macro_rules! action_device {
    ($(#[$doc:meta])* $name:ident, $limit:expr, $has_door:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            core: ActionCore,
        }

        impl $name {
            /// Creates the device occupying `footprint` with the default
            /// firmware threshold.
            pub fn new(id: impl Into<DeviceId>, footprint: Aabb) -> Self {
                $name { core: ActionCore::new(id.into(), footprint, $limit, $has_door) }
            }

            /// Overrides the firmware threshold on the action value.
            pub fn with_firmware_limit(mut self, limit: f64) -> Self {
                self.core.firmware_limit = limit;
                self
            }

            /// Overrides the latency model.
            pub fn with_latency(mut self, latency: LatencyModel) -> Self {
                self.core.latency = latency;
                self
            }

            /// Whether the action is currently running.
            pub fn active(&self) -> bool {
                self.core.active
            }

            /// Current action value (0 when inactive).
            pub fn value(&self) -> f64 {
                self.core.value
            }

            /// The firmware threshold on the action value.
            pub fn firmware_limit(&self) -> f64 {
                self.core.firmware_limit
            }

            /// The container inside the device, if any.
            pub fn contained(&self) -> Option<&DeviceId> {
                self.core.contained.as_ref()
            }

            /// Places a container inside.
            pub fn insert_container(&mut self, container: DeviceId) {
                self.core.contained = Some(container);
            }

            /// Removes the contained container.
            pub fn remove_container(&mut self) -> Option<DeviceId> {
                self.core.contained.take()
            }
        }

        impl Device for $name {
            fn id(&self) -> &DeviceId {
                &self.core.id
            }

            fn device_type(&self) -> DeviceType {
                DeviceType::ActionDevice
            }

            fn write_status(&self, state: &mut DeviceState) {
                self.core.write_status(state);
            }

            fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
                self.core.execute(action)
            }

            fn footprint(&self) -> Option<Aabb> {
                Some(self.core.footprint)
            }

            fn latency(&self) -> LatencyModel {
                self.core.latency
            }

            fn inject_malfunction(&mut self, malfunction: Option<Malfunction>) {
                self.core.malfunction = malfunction;
            }
        }
    };
}

action_device!(
    /// An IKA hotplate stirrer: heats and stirs. The firmware threshold is
    /// the "safe temperature limit" the paper cites from the IKA manual
    /// (default 340 °C plate limit).
    Hotplate,
    340.0,
    false
);

action_device!(
    /// An IKA thermoshaker: heats and shakes vials.
    Thermoshaker,
    3_000.0,
    false
);

/// A Fisher Scientific centrifuge: an **Action Device** with a lid (door)
/// and a red alignment dot that must face North before a container may be
/// loaded (Hein custom rule IV-3).
#[derive(Debug, Clone, PartialEq)]
pub struct Centrifuge {
    core: ActionCore,
    red_dot_north: bool,
}

impl Centrifuge {
    /// Creates a centrifuge occupying `footprint`. The rotor parks with
    /// the red dot facing North.
    pub fn new(id: impl Into<DeviceId>, footprint: Aabb) -> Self {
        Centrifuge {
            core: ActionCore::new(id.into(), footprint, 15_000.0, true),
            red_dot_north: true,
        }
    }

    /// Overrides the firmware rpm threshold.
    pub fn with_firmware_limit(mut self, limit: f64) -> Self {
        self.core.firmware_limit = limit;
        self
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.core.latency = latency;
        self
    }

    /// Whether the spin is currently running.
    pub fn active(&self) -> bool {
        self.core.active
    }

    /// Current rpm (0 when inactive).
    pub fn value(&self) -> f64 {
        self.core.value
    }

    /// The firmware rpm threshold.
    pub fn firmware_limit(&self) -> f64 {
        self.core.firmware_limit
    }

    /// The container inside the rotor, if any.
    pub fn contained(&self) -> Option<&DeviceId> {
        self.core.contained.as_ref()
    }

    /// Places a container inside the rotor.
    pub fn insert_container(&mut self, container: DeviceId) {
        self.core.contained = Some(container);
    }

    /// Removes the contained container.
    pub fn remove_container(&mut self) -> Option<DeviceId> {
        self.core.contained.take()
    }

    /// Whether the red alignment dot currently faces North.
    pub fn red_dot_north(&self) -> bool {
        self.red_dot_north
    }

    /// Sets the rotor park orientation (e.g. after a spin leaves the dot
    /// askew, or a technician re-aligns it).
    pub fn set_red_dot_north(&mut self, north: bool) {
        self.red_dot_north = north;
    }
}

impl Device for Centrifuge {
    fn id(&self) -> &DeviceId {
        &self.core.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::ActionDevice
    }

    fn write_status(&self, state: &mut DeviceState) {
        self.core.write_status(state);
        state.set(StateKey::RedDotNorth, self.red_dot_north);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        let was_active = self.core.active;
        self.core.execute(action)?;
        // A spin leaves the rotor at an arbitrary orientation; assume the
        // dot is no longer North after any start.
        if !was_active && self.core.active {
            self.red_dot_north = false;
        }
        Ok(())
    }

    fn footprint(&self) -> Option<Aabb> {
        Some(self.core.footprint)
    }

    fn latency(&self) -> LatencyModel {
        self.core.latency
    }

    fn inject_malfunction(&mut self, malfunction: Option<Malfunction>) {
        self.core.malfunction = malfunction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_geometry::Vec3;

    fn fp() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::new(0.2, 0.2, 0.2))
    }

    #[test]
    fn hotplate_start_stop() {
        let mut h = Hotplate::new("hotplate", fp());
        assert!(!h.active());
        h.execute(&ActionKind::StartAction { value: 60.0 }).unwrap();
        assert!(h.active());
        assert_eq!(h.value(), 60.0);
        h.execute(&ActionKind::StopAction).unwrap();
        assert!(!h.active());
        assert_eq!(h.value(), 0.0);
    }

    #[test]
    fn hotplate_firmware_temperature_limit() {
        let mut h = Hotplate::new("hotplate", fp()).with_firmware_limit(120.0);
        let err = h
            .execute(&ActionKind::StartAction { value: 150.0 })
            .unwrap_err();
        assert!(matches!(err, DeviceError::FirmwareLimit { limit, .. } if limit == 120.0));
        assert!(!h.active());
        assert!(h.execute(&ActionKind::StartAction { value: 100.0 }).is_ok());
        assert_eq!(h.firmware_limit(), 120.0);
    }

    #[test]
    fn hotplate_has_no_door() {
        let mut h = Hotplate::new("hotplate", fp());
        assert!(matches!(
            h.execute(&ActionKind::SetDoor { open: true }),
            Err(DeviceError::UnsupportedAction { .. })
        ));
        assert!(h.fetch_state().get(&StateKey::DoorOpen).is_none());
    }

    #[test]
    fn centrifuge_door_and_contents() {
        let mut c = Centrifuge::new("centrifuge", fp());
        c.execute(&ActionKind::SetDoor { open: true }).unwrap();
        assert_eq!(c.fetch_state().get_bool(&StateKey::DoorOpen), Some(true));
        c.insert_container(DeviceId::new("vial"));
        assert_eq!(c.contained().unwrap().as_str(), "vial");
        assert_eq!(c.remove_container().unwrap().as_str(), "vial");
    }

    #[test]
    fn centrifuge_red_dot_tracks_spins() {
        let mut c = Centrifuge::new("centrifuge", fp());
        assert!(c.red_dot_north());
        assert_eq!(c.fetch_state().get_bool(&StateKey::RedDotNorth), Some(true));
        c.execute(&ActionKind::StartAction { value: 4_000.0 })
            .unwrap();
        assert!(!c.red_dot_north(), "a spin leaves the dot askew");
        c.execute(&ActionKind::StopAction).unwrap();
        assert!(!c.red_dot_north(), "stopping does not re-align");
        c.set_red_dot_north(true);
        assert!(c.red_dot_north());
        // Over-limit spin rejected by firmware.
        let err = c
            .execute(&ActionKind::StartAction { value: 99_999.0 })
            .unwrap_err();
        assert!(matches!(err, DeviceError::FirmwareLimit { .. }));
        assert!(c.red_dot_north(), "rejected spin must not move the rotor");
    }

    #[test]
    fn sensor_offset_malfunction_skews_reading() {
        let mut h = Hotplate::new("hotplate", fp());
        h.execute(&ActionKind::StartAction { value: 60.0 }).unwrap();
        h.inject_malfunction(Some(Malfunction::SensorOffset(5.0)));
        assert_eq!(
            h.fetch_state().get_number(&StateKey::ActionValue),
            Some(65.0)
        );
        // The internal truth is unchanged.
        assert_eq!(h.value(), 60.0);
    }

    #[test]
    fn silent_noop_malfunction_ignores_commands() {
        let mut t = Thermoshaker::new("shaker", fp());
        t.inject_malfunction(Some(Malfunction::SilentNoop));
        t.execute(&ActionKind::StartAction { value: 500.0 })
            .unwrap();
        assert!(!t.active());
    }

    #[test]
    fn thresholds_exposed_in_state() {
        let t = Thermoshaker::new("shaker", fp());
        assert_eq!(
            t.fetch_state().get_number(&StateKey::ActionThreshold),
            Some(3_000.0)
        );
        assert_eq!(t.device_type(), DeviceType::ActionDevice);
        assert!(t.footprint().is_some());
    }
}

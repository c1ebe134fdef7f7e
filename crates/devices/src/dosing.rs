//! Dosing systems: the solid dosing device (Mettler Toledo) and the
//! automated syringe pump (Tecan).

use crate::command::ActionKind;
use crate::device::{is_silent_noop, Device, DeviceError, LatencyModel, Malfunction};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::Aabb;

/// The solid dosing device: a **Dosing System** with a software-controlled
/// glass door — the device whose door "there have been instances of …
/// breaking because the programmer forgot to call `open_door()`"
/// (paper footnote 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DosingDevice {
    id: DeviceId,
    footprint: Aabb,
    door_open: bool,
    dosing: bool,
    contained: Option<DeviceId>,
    /// Pending amount dispensed by the last `DoseSolid` (consumed by the
    /// environment when crediting the receiving vial).
    last_dose_mg: f64,
    /// Optional firmware cap on a single dose (mg).
    firmware_max_dose_mg: Option<f64>,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl DosingDevice {
    /// Creates a dosing device occupying `footprint`, door closed, empty.
    pub fn new(id: impl Into<DeviceId>, footprint: Aabb) -> Self {
        DosingDevice {
            id: id.into(),
            footprint,
            door_open: false,
            dosing: false,
            contained: None,
            last_dose_mg: 0.0,
            firmware_max_dose_mg: None,
            malfunction: None,
            latency: LatencyModel::PRODUCTION,
        }
    }

    /// Sets a firmware limit on the dose size.
    pub fn with_firmware_max_dose(mut self, mg: f64) -> Self {
        self.firmware_max_dose_mg = Some(mg);
        self
    }

    /// Overrides the latency model (testbed mockups are cardboard-quick).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Whether the glass door is open.
    pub fn door_open(&self) -> bool {
        self.door_open
    }

    /// Whether the device is currently dispensing.
    pub fn dosing(&self) -> bool {
        self.dosing
    }

    /// The container inside the device, if any.
    pub fn contained(&self) -> Option<&DeviceId> {
        self.contained.as_ref()
    }

    /// Places a container inside (called by the environment when an arm
    /// drops a vial in).
    pub fn insert_container(&mut self, container: DeviceId) {
        self.contained = Some(container);
    }

    /// Removes the contained container, returning it.
    pub fn remove_container(&mut self) -> Option<DeviceId> {
        self.contained.take()
    }

    /// Takes (and clears) the amount dispensed by the last dose command.
    pub fn take_last_dose(&mut self) -> f64 {
        std::mem::take(&mut self.last_dose_mg)
    }
}

impl Device for DosingDevice {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::DosingSystem
    }

    fn write_status(&self, state: &mut DeviceState) {
        // The door actuator and the dosing controller report their own
        // state; whether a vial sits in the chamber is NOT sensed — RABIT
        // believes it via pick/place postconditions.
        state.clear();
        state.set(StateKey::DoorOpen, self.door_open);
        state.set(StateKey::ActionActive, self.dosing);
        state.set(StateKey::Footprint, self.footprint);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::SetDoor { open } => {
                if is_silent_noop(self.malfunction) {
                    return Ok(()); // stuck door: acknowledged, unmoved
                }
                self.door_open = *open;
                Ok(())
            }
            ActionKind::DoseSolid { amount_mg, into: _ } => {
                if let Some(limit) = self.firmware_max_dose_mg {
                    if *amount_mg > limit {
                        return Err(DeviceError::FirmwareLimit {
                            device: self.id.clone(),
                            requested: *amount_mg,
                            limit,
                        });
                    }
                }
                if self.dosing {
                    return Err(DeviceError::InvalidState {
                        device: self.id.clone(),
                        reason: "already dosing".to_string(),
                    });
                }
                if is_silent_noop(self.malfunction) {
                    return Ok(());
                }
                // Dosing completes synchronously in the model: "Dosing
                // stops when amount is dispensed" (Fig. 1(b) comment).
                self.last_dose_mg = *amount_mg;
                Ok(())
            }
            ActionKind::StartAction { value } => {
                // `run_action(delay, quantity)` in Fig. 5 is a dose start.
                self.execute(&ActionKind::DoseSolid {
                    amount_mg: *value,
                    into: self
                        .contained
                        .clone()
                        .unwrap_or_else(|| DeviceId::new("unknown")),
                })?;
                self.dosing = true;
                Ok(())
            }
            ActionKind::StopAction => {
                self.dosing = false;
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

/// The automated syringe pump: a doorless **Dosing System** for liquids.
#[derive(Debug, Clone, PartialEq)]
pub struct SyringePump {
    id: DeviceId,
    footprint: Aabb,
    dispensing: bool,
    last_volume_ml: f64,
    /// Optional firmware cap on a single dispense (mL).
    firmware_max_volume_ml: Option<f64>,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl SyringePump {
    /// Creates a syringe pump occupying `footprint`.
    pub fn new(id: impl Into<DeviceId>, footprint: Aabb) -> Self {
        SyringePump {
            id: id.into(),
            footprint,
            dispensing: false,
            last_volume_ml: 0.0,
            firmware_max_volume_ml: None,
            malfunction: None,
            latency: LatencyModel::PRODUCTION,
        }
    }

    /// Sets a firmware limit on the dispense volume.
    pub fn with_firmware_max_volume(mut self, ml: f64) -> Self {
        self.firmware_max_volume_ml = Some(ml);
        self
    }

    /// Takes (and clears) the volume dispensed by the last command.
    pub fn take_last_volume(&mut self) -> f64 {
        std::mem::take(&mut self.last_volume_ml)
    }

    /// Whether the pump is mid-dispense.
    pub fn dispensing(&self) -> bool {
        self.dispensing
    }
}

impl Device for SyringePump {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::DosingSystem
    }

    fn write_status(&self, state: &mut DeviceState) {
        state.clear();
        state.set(StateKey::ActionActive, self.dispensing);
        state.set(StateKey::Footprint, self.footprint);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::DoseLiquid { volume_ml, into: _ } => {
                if let Some(limit) = self.firmware_max_volume_ml {
                    if *volume_ml > limit {
                        return Err(DeviceError::FirmwareLimit {
                            device: self.id.clone(),
                            requested: *volume_ml,
                            limit,
                        });
                    }
                }
                if is_silent_noop(self.malfunction) {
                    return Ok(());
                }
                self.last_volume_ml = *volume_ml;
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

    fn doser() -> DosingDevice {
        DosingDevice::new(
            "dosing_device",
            Aabb::new(Vec3::new(0.1, 0.3, 0.0), Vec3::new(0.3, 0.55, 0.35)),
        )
    }

    #[test]
    fn door_lifecycle() {
        let mut d = doser();
        assert!(!d.door_open());
        d.execute(&ActionKind::SetDoor { open: true }).unwrap();
        assert!(d.door_open());
        d.execute(&ActionKind::SetDoor { open: false }).unwrap();
        assert!(!d.door_open());
    }

    #[test]
    fn dose_and_collect() {
        let mut d = doser();
        d.execute(&ActionKind::DoseSolid {
            amount_mg: 5.0,
            into: "vial".into(),
        })
        .unwrap();
        assert_eq!(d.take_last_dose(), 5.0);
        assert_eq!(d.take_last_dose(), 0.0); // consumed
    }

    #[test]
    fn run_action_is_a_dose_with_active_state() {
        let mut d = doser();
        d.insert_container(DeviceId::new("vial"));
        d.execute(&ActionKind::StartAction { value: 5.0 }).unwrap();
        assert!(d.dosing());
        // Starting again while running is a firmware InvalidState.
        let err = d
            .execute(&ActionKind::StartAction { value: 2.0 })
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidState { .. }));
        d.execute(&ActionKind::StopAction).unwrap();
        assert!(!d.dosing());
    }

    #[test]
    fn firmware_dose_limit() {
        let mut d = doser().with_firmware_max_dose(10.0);
        let err = d
            .execute(&ActionKind::DoseSolid {
                amount_mg: 12.0,
                into: "vial".into(),
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::FirmwareLimit { limit, .. } if limit == 10.0));
        assert!(d
            .execute(&ActionKind::DoseSolid {
                amount_mg: 9.0,
                into: "vial".into()
            })
            .is_ok());
    }

    #[test]
    fn stuck_door_malfunction() {
        let mut d = doser();
        d.inject_malfunction(Some(Malfunction::SilentNoop));
        d.execute(&ActionKind::SetDoor { open: true }).unwrap();
        assert!(!d.door_open(), "stuck door must not move");
        // fetch_state reflects the stuck reality — this is what makes
        // S_actual differ from S_expected.
        assert_eq!(d.fetch_state().get_bool(&StateKey::DoorOpen), Some(false));
    }

    #[test]
    fn container_insertion() {
        let mut d = doser();
        assert!(d.contained().is_none());
        d.insert_container(DeviceId::new("vial_NW"));
        assert_eq!(d.contained().unwrap().as_str(), "vial_NW");
        // The chamber has no sensor: containment is never reported.
        assert!(d.fetch_state().get(&StateKey::ContainedObject).is_none());
        assert_eq!(d.remove_container().unwrap().as_str(), "vial_NW");
        assert!(d.contained().is_none());
    }

    #[test]
    fn doser_rejects_foreign_actions() {
        let mut d = doser();
        assert!(matches!(
            d.execute(&ActionKind::Cap),
            Err(DeviceError::UnsupportedAction { .. })
        ));
        assert_eq!(d.device_type(), DeviceType::DosingSystem);
        assert!(d.footprint().is_some());
    }

    #[test]
    fn pump_dispenses_with_firmware_cap() {
        let mut p = SyringePump::new(
            "syringe_pump",
            Aabb::new(Vec3::ZERO, Vec3::new(0.1, 0.1, 0.2)),
        )
        .with_firmware_max_volume(10.0);
        p.execute(&ActionKind::DoseLiquid {
            volume_ml: 2.0,
            into: "vial".into(),
        })
        .unwrap();
        assert_eq!(p.take_last_volume(), 2.0);
        let err = p
            .execute(&ActionKind::DoseLiquid {
                volume_ml: 15.0,
                into: "vial".into(),
            })
            .unwrap_err();
        assert!(matches!(err, DeviceError::FirmwareLimit { .. }));
        assert!(matches!(
            p.execute(&ActionKind::MoveHome),
            Err(DeviceError::UnsupportedAction { .. })
        ));
        assert!(!p.dispensing());
    }

    #[test]
    fn pump_silent_noop() {
        let mut p = SyringePump::new("pump", Aabb::new(Vec3::ZERO, Vec3::splat(0.1)));
        p.inject_malfunction(Some(Malfunction::SilentNoop));
        p.execute(&ActionKind::DoseLiquid {
            volume_ml: 2.0,
            into: "vial".into(),
        })
        .unwrap();
        assert_eq!(p.take_last_volume(), 0.0);
    }
}

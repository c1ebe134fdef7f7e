//! Proximity sensors: the new device class the paper's Berlinguette visit
//! motivates.
//!
//! "For safety concerns, they used sensors earlier, but due to the
//! possibility of frequent false alarms and malfunction, they do not use
//! them anymore. … by incorporating sensors, which could be treated as a
//! new device class, one could imagine enhancing RABIT to respond to
//! sensor inputs that indicate a robot arm is approaching the area that
//! is occupied." (§V-B)
//!
//! A [`ProximitySensor`] watches a region of the deck and reports whether
//! something (typically a person) occupies it. Unlike the lab's abandoned
//! hard-wired interlocks, a sensor under RABIT feeds a *rule*
//! ([`occupied`-gated motion][crate::StateKey::Custom]) — so its false
//! alarms stop an experiment gracefully instead of killing power.

use crate::command::ActionKind;
use crate::device::{Device, DeviceError, LatencyModel, Malfunction};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::Aabb;

/// The custom state variable a proximity sensor reports.
pub const OCCUPIED_KEY: &str = "occupied";

/// A proximity/occupancy sensor watching a region of the deck.
#[derive(Debug, Clone, PartialEq)]
pub struct ProximitySensor {
    id: DeviceId,
    watched_region: Aabb,
    occupied: bool,
    malfunction: Option<Malfunction>,
}

impl ProximitySensor {
    /// Creates a sensor watching `region`, initially clear.
    pub fn new(id: impl Into<DeviceId>, watched_region: Aabb) -> Self {
        ProximitySensor {
            id: id.into(),
            watched_region,
            occupied: false,
            malfunction: None,
        }
    }

    /// The watched region.
    pub fn watched_region(&self) -> Aabb {
        self.watched_region
    }

    /// Ground truth: something entered/left the region (set by the
    /// environment or test harness, the way a person walks up to a deck).
    pub fn set_occupied(&mut self, occupied: bool) {
        self.occupied = occupied;
    }

    /// Whether the region is physically occupied.
    pub fn occupied(&self) -> bool {
        self.occupied
    }
}

impl Device for ProximitySensor {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::Custom("proximity_sensor".to_string())
    }

    fn write_status(&self, state: &mut DeviceState) {
        // A stuck sensor reads clear regardless of reality — the
        // malfunction class that made the Berlinguette Lab abandon
        // hard-wired sensors.
        let reading = match self.malfunction {
            Some(Malfunction::SilentNoop) => false,
            _ => self.occupied,
        };
        state.clear();
        state.set(StateKey::Custom(OCCUPIED_KEY.to_string()), reading);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        Err(DeviceError::UnsupportedAction {
            device: self.id.clone(),
            action: action.label(),
        })
    }

    fn latency(&self) -> LatencyModel {
        LatencyModel {
            motion_s: 0.0,
            process_s: 0.0,
            status_s: 0.002,
        }
    }

    fn inject_malfunction(&mut self, malfunction: Option<Malfunction>) {
        self.malfunction = malfunction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_geometry::Vec3;

    fn sensor() -> ProximitySensor {
        ProximitySensor::new(
            "deck_sensor",
            Aabb::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 2.0)),
        )
    }

    #[test]
    fn reports_occupancy() {
        let mut s = sensor();
        assert!(!s.occupied());
        assert_eq!(
            s.fetch_state()
                .get_bool(&StateKey::Custom(OCCUPIED_KEY.into())),
            Some(false)
        );
        s.set_occupied(true);
        assert!(s.occupied());
        assert_eq!(
            s.fetch_state()
                .get_bool(&StateKey::Custom(OCCUPIED_KEY.into())),
            Some(true)
        );
    }

    #[test]
    fn sensors_are_passive() {
        let mut s = sensor();
        assert!(s.execute(&ActionKind::MoveHome).is_err());
        assert_eq!(
            s.device_type(),
            DeviceType::Custom("proximity_sensor".into())
        );
        assert!(s.watched_region().contains_point(Vec3::ZERO));
    }

    #[test]
    fn stuck_sensor_reads_clear() {
        let mut s = sensor();
        s.set_occupied(true);
        s.inject_malfunction(Some(Malfunction::SilentNoop));
        assert_eq!(
            s.fetch_state()
                .get_bool(&StateKey::Custom(OCCUPIED_KEY.into())),
            Some(false),
            "a stuck sensor is blind — the failure mode the lab feared"
        );
    }
}

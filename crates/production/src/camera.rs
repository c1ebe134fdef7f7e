//! The imaging camera used by the solubility measurement.
//!
//! `recordImage()` / `measureSolubility(image)` in Fig. 1(b). The camera
//! is not one of the four device types — it demonstrates RABIT's custom
//! device-category escape hatch (§II-C: labs "can define … new device
//! categories, if they have devices that do not belong to any of the four
//! specified device types").

use rabit_devices::{
    ActionKind, Device, DeviceError, DeviceId, DeviceState, DeviceType, LatencyModel,
};

/// A fixed overhead camera.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    id: DeviceId,
    images_taken: u64,
}

/// The camera's custom action name.
pub const RECORD_IMAGE: &str = "record_image";

impl Camera {
    /// Creates a camera.
    pub fn new(id: impl Into<DeviceId>) -> Self {
        Camera {
            id: id.into(),
            images_taken: 0,
        }
    }

    /// Number of images captured so far.
    pub fn images_taken(&self) -> u64 {
        self.images_taken
    }
}

impl Device for Camera {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::Custom("camera".to_string())
    }

    fn write_status(&self, state: &mut DeviceState) {
        // The image counter is deliberately not a state variable: custom
        // actions have no generic postconditions (§V-C), so exposing it
        // would trip the malfunction check on every capture.
        state.clear();
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        match action {
            ActionKind::Custom { name, .. } if name == RECORD_IMAGE => {
                self.images_taken += 1;
                Ok(())
            }
            other => Err(DeviceError::UnsupportedAction {
                device: self.id.clone(),
                action: other.label(),
            }),
        }
    }

    fn latency(&self) -> LatencyModel {
        LatencyModel {
            motion_s: 0.0,
            process_s: 0.5,
            status_s: 0.005,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_increment_the_counter() {
        let mut cam = Camera::new("camera");
        assert_eq!(cam.images_taken(), 0);
        cam.execute(&ActionKind::Custom {
            name: RECORD_IMAGE.to_string(),
            params: vec![],
        })
        .unwrap();
        cam.execute(&ActionKind::Custom {
            name: RECORD_IMAGE.to_string(),
            params: vec![],
        })
        .unwrap();
        assert_eq!(cam.images_taken(), 2);
    }

    #[test]
    fn rejects_other_actions() {
        let mut cam = Camera::new("camera");
        assert!(cam.execute(&ActionKind::MoveHome).is_err());
        assert!(cam
            .execute(&ActionKind::Custom {
                name: "zoom".to_string(),
                params: vec![]
            })
            .is_err());
    }

    #[test]
    fn state_is_sensorless() {
        let cam = Camera::new("camera");
        assert!(cam.fetch_state().is_empty());
        assert_eq!(cam.device_type(), DeviceType::Custom("camera".to_string()));
        assert!(cam.footprint().is_none());
    }
}

//! Device identity and the four-type taxonomy.
use std::fmt;
use std::sync::Arc;

/// A unique device identifier (e.g. `"ur3e"`, `"dosing_device"`,
/// `"vial_NW"`).
///
/// The name lives in a shared `Arc<str>`, so cloning an id (which every
/// lab snapshot, diff and alert does) never allocates. Equality,
/// ordering, hashing, `Display` and JSON all go by the name's content.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(Arc<str>);

impl DeviceId {
    /// Creates a device id, copying `name` into one shared allocation.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(!name.is_empty(), "device id must not be empty");
        DeviceId(Arc::from(name))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DeviceId {
    fn from(s: &str) -> Self {
        DeviceId::new(s)
    }
}

impl From<String> for DeviceId {
    fn from(s: String) -> Self {
        DeviceId::new(s)
    }
}

impl AsRef<str> for DeviceId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// The paper's four device types, plus an escape hatch for labs with
/// devices "that do not belong to any of the four specified device types"
/// (§II-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Holds substances; typically has a stopper (vials, flasks).
    Container,
    /// Moves between locations; picks up, moves, and places objects.
    RobotArm,
    /// Adds substances into containers (solid dosing device, syringe pump).
    DosingSystem,
    /// Has active/inactive states: heating, stirring, shaking, spinning.
    ActionDevice,
    /// A lab-defined category outside the standard four.
    Custom(String),
}

impl DeviceType {
    /// Returns `true` for types that may have a door in front of their
    /// working volume (dosing systems and action devices — paper §II-A:
    /// "Both dosing systems and action devices might have doors").
    pub fn may_have_door(&self) -> bool {
        matches!(self, DeviceType::DosingSystem | DeviceType::ActionDevice)
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceType::Container => f.write_str("container"),
            DeviceType::RobotArm => f.write_str("robot_arm"),
            DeviceType::DosingSystem => f.write_str("dosing_system"),
            DeviceType::ActionDevice => f.write_str("action_device"),
            DeviceType::Custom(name) => write!(f, "custom:{name}"),
        }
    }
}

impl rabit_util::ToJson for DeviceId {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::Str(self.0.to_string())
    }
}

impl rabit_util::FromJson for DeviceId {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        let s = String::from_json(json)?;
        if s.is_empty() {
            return Err(rabit_util::JsonError::decode("device id must not be empty"));
        }
        Ok(DeviceId::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_compare_and_display() {
        let a = DeviceId::new("ur3e");
        let b: DeviceId = "ur3e".into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "ur3e");
        assert_eq!(a.as_str(), "ur3e");
        let c: DeviceId = String::from("ned2").into();
        assert_ne!(a, c);
        assert!(c < a); // lexicographic: "ned2" < "ur3e"
    }

    #[test]
    fn clones_share_the_name_and_compare_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = DeviceId::new("vial_NW");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        // A separately built id is a different allocation but the same id.
        let c = DeviceId::new(String::from("vial_NW"));
        assert!(!std::ptr::eq(a.as_str(), c.as_str()));
        assert_eq!(a, c);
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Equal);
        let hash = |id: &DeviceId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&c));
        // Debug prints the tuple-struct form.
        assert_eq!(format!("{a:?}"), "DeviceId(\"vial_NW\")");
    }

    #[test]
    fn ids_roundtrip_through_json() {
        use rabit_util::{FromJson, Json, ToJson};
        let id = DeviceId::new("ned2");
        assert_eq!(id.to_json().to_compact(), "\"ned2\"");
        assert_eq!(DeviceId::from_json(&id.to_json()).unwrap(), id);
        assert!(DeviceId::from_json(&Json::Str(String::new())).is_err());
        assert!(DeviceId::from_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_id_panics() {
        let _ = DeviceId::new("");
    }

    #[test]
    fn door_capability_by_type() {
        assert!(DeviceType::DosingSystem.may_have_door());
        assert!(DeviceType::ActionDevice.may_have_door());
        assert!(!DeviceType::Container.may_have_door());
        assert!(!DeviceType::RobotArm.may_have_door());
        assert!(!DeviceType::Custom("xrf".into()).may_have_door());
    }

    #[test]
    fn type_display() {
        assert_eq!(DeviceType::RobotArm.to_string(), "robot_arm");
        assert_eq!(
            DeviceType::Custom("decapper".into()).to_string(),
            "custom:decapper"
        );
    }
}

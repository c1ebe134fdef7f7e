//! Lab state snapshots: `S_current`, `S_expected`, `S_actual`.
//!
//! A guarded step writes the command's postconditions into `S_current`,
//! refills the lab's `S_actual` in place, and compares and commits the
//! two (Fig. 2, Lines 11-16), so this layout is on every command's path.
//! Device ids are shared (`Arc<str>`), a device's variables sit in one
//! key-sorted vector, and [`LabState::commit_reported`] compares and
//! commits in a single ordered pass.

use crate::id::DeviceId;
use crate::value::{StateKey, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The state of a single device: a map from state variable to value.
///
/// The variables live in one vector sorted by key, each key at most
/// once. A device reports a handful of variables, so a binary search
/// over one small allocation serves lookups and a clone costs one
/// allocation.
#[derive(Clone, PartialEq, Default)]
pub struct DeviceState {
    vars: Vec<(StateKey, Value)>,
}

impl DeviceState {
    /// An empty device state.
    pub fn new() -> Self {
        DeviceState::default()
    }

    /// An empty device state with room for `capacity` variables, for
    /// status commands that know how many variables they report.
    pub fn with_capacity(capacity: usize) -> Self {
        DeviceState {
            vars: Vec::with_capacity(capacity),
        }
    }

    /// Where `key` is, or where it would be inserted.
    fn find(&self, key: &StateKey) -> Result<usize, usize> {
        self.vars.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Sets a state variable (builder style).
    pub fn with(mut self, key: StateKey, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a state variable.
    pub fn set(&mut self, key: StateKey, value: impl Into<Value>) {
        let value = value.into();
        match self.find(&key) {
            Ok(i) => self.vars[i].1 = value,
            Err(i) => self.vars.insert(i, (key, value)),
        }
    }

    /// Reads a state variable.
    pub fn get(&self, key: &StateKey) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.vars[i].1)
    }

    /// Convenience: reads a boolean variable.
    pub fn get_bool(&self, key: &StateKey) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Convenience: reads a numeric variable.
    pub fn get_number(&self, key: &StateKey) -> Option<f64> {
        self.get(key).and_then(Value::as_number)
    }

    /// Convenience: reads a device-reference variable. Returns
    /// `Some(None)` when the variable exists but references nothing.
    pub fn get_id(&self, key: &StateKey) -> Option<Option<&DeviceId>> {
        self.get(key).and_then(Value::as_id)
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&StateKey, &Value)> {
        self.vars.iter().map(|(k, v)| (k, v))
    }

    /// Number of state variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if no variables are set.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Removes every variable, keeping the vector's capacity, so a status
    /// command can refill the state without allocating.
    pub fn clear(&mut self) {
        self.vars.clear();
    }

    /// This device's share of [`LabState::commit_reported`]: one merged
    /// walk of the two sorted vectors. A reported value that contradicts
    /// the held one beyond `tol` is recorded in `findings`; every
    /// reported value is then written, in the held key's slot or as a new
    /// key.
    fn commit_reported(
        &mut self,
        device: &DeviceId,
        reported: &DeviceState,
        tol: f64,
        findings: &mut Vec<StateDiff>,
    ) {
        let mut i = 0;
        for (key, value) in &reported.vars {
            while self.vars.get(i).is_some_and(|(k, _)| k < key) {
                i += 1;
            }
            match self.vars.get_mut(i) {
                Some((k, held)) if k == key => {
                    if !held.approx_eq(value, tol) {
                        findings.push(StateDiff {
                            device: device.clone(),
                            key: key.clone(),
                            left: Some(held.clone()),
                            right: Some(value.clone()),
                        });
                    }
                    held.clone_from(value);
                }
                _ => self.vars.insert(i, (key.clone(), value.clone())),
            }
            i += 1;
        }
    }
}

/// Prints the variables as a map: `DeviceState { vars: {key: value, ..} }`.
impl fmt::Debug for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Vars<'a>(&'a DeviceState);
        impl fmt::Debug for Vars<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("DeviceState")
            .field("vars", &Vars(self))
            .finish()
    }
}

impl FromIterator<(StateKey, Value)> for DeviceState {
    fn from_iter<I: IntoIterator<Item = (StateKey, Value)>>(iter: I) -> Self {
        let mut state = DeviceState::new();
        state.extend(iter);
        state
    }
}

/// Later pairs overwrite earlier ones with the same key.
impl Extend<(StateKey, Value)> for DeviceState {
    fn extend<I: IntoIterator<Item = (StateKey, Value)>>(&mut self, iter: I) {
        for (key, value) in iter {
            self.set(key, value);
        }
    }
}

/// A full lab snapshot: the state of every device. This is the `S` of the
/// Fig. 2 algorithm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabState {
    devices: BTreeMap<DeviceId, DeviceState>,
}

impl LabState {
    /// An empty lab.
    pub fn new() -> Self {
        LabState::default()
    }

    /// Inserts or replaces a device's state (builder style).
    pub fn with_device(mut self, id: impl Into<DeviceId>, state: DeviceState) -> Self {
        self.devices.insert(id.into(), state);
        self
    }

    /// Inserts or replaces a device's state.
    pub fn insert(&mut self, id: impl Into<DeviceId>, state: DeviceState) {
        self.devices.insert(id.into(), state);
    }

    /// The state of one device.
    pub fn device(&self, id: &DeviceId) -> Option<&DeviceState> {
        self.devices.get(id)
    }

    /// Mutable access to one device's state (inserted empty if missing).
    /// The id is cloned only when the device is new.
    pub fn device_mut(&mut self, id: &DeviceId) -> &mut DeviceState {
        if !self.devices.contains_key(id) {
            self.devices.insert(id.clone(), DeviceState::new());
        }
        self.devices.get_mut(id).expect("device inserted above")
    }

    /// Reads one variable of one device.
    pub fn get(&self, id: &DeviceId, key: &StateKey) -> Option<&Value> {
        self.devices.get(id).and_then(|d| d.get(key))
    }

    /// Convenience: boolean variable of a device.
    pub fn get_bool(&self, id: &DeviceId, key: &StateKey) -> Option<bool> {
        self.get(id, key).and_then(Value::as_bool)
    }

    /// Convenience: numeric variable of a device.
    pub fn get_number(&self, id: &DeviceId, key: &StateKey) -> Option<f64> {
        self.get(id, key).and_then(Value::as_number)
    }

    /// Convenience: device-reference variable of a device.
    pub fn get_id(&self, id: &DeviceId, key: &StateKey) -> Option<Option<&DeviceId>> {
        self.get(id, key).and_then(Value::as_id)
    }

    /// Sets one variable of one device.
    pub fn set(&mut self, id: &DeviceId, key: StateKey, value: impl Into<Value>) {
        self.device_mut(id).set(key, value);
    }

    /// All device ids in the snapshot, in order.
    pub fn device_ids(&self) -> impl Iterator<Item = &DeviceId> {
        self.devices.keys()
    }

    /// Iterates over `(device, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &DeviceState)> {
        self.devices.iter()
    }

    /// Iterates over `(device, state)` pairs with mutable states, for
    /// refilling a snapshot in place.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&DeviceId, &mut DeviceState)> {
        self.devices.iter_mut()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the snapshot has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Compares the reported snapshot `S_actual` with this one and
    /// commits it, in one ordered pass (Fig. 2, Lines 13-16).
    ///
    /// Returns every variable a device reports whose value contradicts
    /// the one held here beyond `tol`, in device-then-key order, with
    /// `left` the held value and `right` the reported one. A non-empty
    /// result is what raises the "Device malfunction!" alert (Lines
    /// 14-15). Numeric and position values compare within `tol`.
    ///
    /// Every reported variable then overwrites the held value; reported
    /// variables and devices missing here are added. Believed variables
    /// that no device reports (vial contents, containment, held objects)
    /// are neither compared nor touched: an unsensed variable can never
    /// contradict anything — the blind spot behind the paper's undetected
    /// Bug-C class. This is how `S_current` rolls forward on Line 16 in a
    /// lab where not every state variable has a sensor.
    ///
    /// A device missing here is copied over after the walk, the only case
    /// that clones an id.
    pub fn commit_reported(&mut self, reported: &LabState, tol: f64) -> Vec<StateDiff> {
        let mut findings = Vec::new();
        let mut missing = false;
        let mut mine = self.devices.iter_mut().peekable();
        for (id, theirs) in &reported.devices {
            // Equality first: both sides usually hold the same devices
            // under the same shared ids, which compare by pointer.
            let held = loop {
                if let Some((_, state)) = mine.next_if(|(k, _)| *k == id) {
                    break Some(state);
                }
                if mine.next_if(|(k, _)| *k < id).is_none() {
                    break None;
                }
            };
            match held {
                Some(state) => state.commit_reported(id, theirs, tol, &mut findings),
                None => missing = true,
            }
        }
        if missing {
            for (id, theirs) in &reported.devices {
                if !self.devices.contains_key(id) {
                    self.devices.insert(id.clone(), theirs.clone());
                }
            }
        }
        findings
    }
}

/// Writes `(device, key, value)` triples in order, adding devices and
/// variables that are missing; a later write to the same variable wins.
/// Each write searches the device map once, taking the id it is given.
impl Extend<(DeviceId, StateKey, Value)> for LabState {
    fn extend<I: IntoIterator<Item = (DeviceId, StateKey, Value)>>(&mut self, iter: I) {
        for (id, key, value) in iter {
            self.devices.entry(id).or_default().set(key, value);
        }
    }
}

impl FromIterator<(DeviceId, DeviceState)> for LabState {
    fn from_iter<I: IntoIterator<Item = (DeviceId, DeviceState)>>(iter: I) -> Self {
        LabState {
            devices: iter.into_iter().collect(),
        }
    }
}

impl rabit_util::ToJson for DeviceState {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::Obj(
            self.vars
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl rabit_util::FromJson for DeviceState {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        let pairs = json.as_obj().ok_or_else(|| {
            rabit_util::JsonError::decode(format!("expected device state object, got {json}"))
        })?;
        let mut state = DeviceState::with_capacity(pairs.len());
        for (k, v) in pairs {
            let key: StateKey = k.parse().expect("StateKey parsing is infallible");
            state.set(key, Value::from_json(v)?);
        }
        Ok(state)
    }
}

impl rabit_util::ToJson for LabState {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::Obj(
            self.devices
                .iter()
                .map(|(id, d)| (id.to_string(), d.to_json()))
                .collect(),
        )
    }
}

impl rabit_util::FromJson for LabState {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        let pairs = json.as_obj().ok_or_else(|| {
            rabit_util::JsonError::decode(format!("expected lab state object, got {json}"))
        })?;
        let mut devices = BTreeMap::new();
        for (id, d) in pairs {
            // Through `DeviceId::from_json`, so an empty name is an error.
            let id = DeviceId::from_json(&rabit_util::Json::Str(id.clone()))?;
            devices.insert(id, DeviceState::from_json(d)?);
        }
        Ok(LabState { devices })
    }
}

/// One differing state variable between two lab snapshots. In a
/// finding of [`LabState::commit_reported`], the left-hand snapshot is
/// `S_expected` and the right-hand one `S_actual`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDiff {
    /// The device whose variable differs.
    pub device: DeviceId,
    /// The differing variable.
    pub key: StateKey,
    /// Value on the left-hand snapshot (`None` if absent).
    pub left: Option<Value>,
    /// Value on the right-hand snapshot (`None` if absent).
    pub right: Option<Value>,
}

impl fmt::Display for StateDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_opt = |v: &Option<Value>| match v {
            Some(v) => v.to_string(),
            None => "<absent>".to_string(),
        };
        write!(
            f,
            "{}.{}: {} vs {}",
            self.device,
            self.key,
            fmt_opt(&self.left),
            fmt_opt(&self.right)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door_state(open: bool) -> DeviceState {
        DeviceState::new().with(StateKey::DoorOpen, open)
    }

    #[test]
    fn device_state_roundtrip() {
        let mut s = DeviceState::new();
        assert!(s.is_empty());
        s.set(StateKey::DoorOpen, true);
        s.set(StateKey::ActionValue, 25.0);
        s.set(StateKey::Holding, Some(DeviceId::new("vial")));
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_bool(&StateKey::DoorOpen), Some(true));
        assert_eq!(s.get_number(&StateKey::ActionValue), Some(25.0));
        assert_eq!(
            s.get_id(&StateKey::Holding).unwrap().unwrap().as_str(),
            "vial"
        );
        assert_eq!(s.get(&StateKey::RedDotNorth), None);
        // Wrong-type convenience reads return None.
        assert_eq!(s.get_bool(&StateKey::ActionValue), None);
    }

    #[test]
    fn lab_state_accessors() {
        let mut lab = LabState::new();
        assert!(lab.is_empty());
        lab.insert(
            "hotplate",
            door_state(false).with(StateKey::ActionValue, 25.0),
        );
        lab.insert("doser", door_state(true));
        assert_eq!(lab.len(), 2);
        let hp = DeviceId::new("hotplate");
        assert_eq!(lab.get_bool(&hp, &StateKey::DoorOpen), Some(false));
        assert_eq!(lab.get_number(&hp, &StateKey::ActionValue), Some(25.0));
        assert_eq!(lab.device_ids().count(), 2);
        lab.set(&hp, StateKey::ActionValue, 60.0);
        assert_eq!(lab.get_number(&hp, &StateKey::ActionValue), Some(60.0));
    }

    #[test]
    fn commit_of_an_identical_report_finds_nothing() {
        let mut lab = LabState::new().with_device("d", door_state(true));
        let reported = lab.clone();
        assert!(lab.commit_reported(&reported, 0.0).is_empty());
        assert_eq!(lab, reported);
    }

    #[test]
    fn commit_reports_and_overwrites_a_changed_value() {
        let mut held = LabState::new().with_device("doser", door_state(true));
        let reported = LabState::new().with_device("doser", door_state(false));
        let d = held.commit_reported(&reported, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].device.as_str(), "doser");
        assert_eq!(d[0].key, StateKey::DoorOpen);
        // `left` is the held value, `right` the reported one.
        assert_eq!(d[0].left, Some(Value::Bool(true)));
        assert_eq!(d[0].right, Some(Value::Bool(false)));
        assert!(d[0].to_string().contains("doser.deviceDoorStatus"));
        assert_eq!(d[0].to_string(), "doser.deviceDoorStatus: true vs false");
        // The report is committed.
        assert_eq!(held, reported);
    }

    #[test]
    fn commit_adds_missing_devices_and_variables_without_findings() {
        let hp = DeviceId::new("hotplate");
        let doser = DeviceId::new("doser");
        let vial = DeviceId::new("vial");
        let mut held = LabState::new()
            .with_device(
                "doser",
                door_state(true).with(StateKey::ContainedObject, Some(vial.clone())),
            )
            .with_device("vial", DeviceState::new().with(StateKey::SolidMg, 3.0));
        // The hotplate is new, the doser reports one variable the held
        // side lacks, and the vial reports nothing.
        let reported = LabState::new()
            .with_device(
                "doser",
                door_state(true).with(StateKey::ActionActive, false),
            )
            .with_device("hotplate", door_state(false));
        assert!(held.commit_reported(&reported, 0.0).is_empty());
        assert_eq!(held.len(), 3);
        assert_eq!(held.get_bool(&hp, &StateKey::DoorOpen), Some(false));
        assert_eq!(held.get_bool(&doser, &StateKey::ActionActive), Some(false));
        // Believed-only variables and unreported devices survive.
        assert_eq!(
            held.get_id(&doser, &StateKey::ContainedObject),
            Some(Some(&vial))
        );
        assert_eq!(held.get_number(&vial, &StateKey::SolidMg), Some(3.0));
    }

    #[test]
    fn commit_tolerates_numeric_jitter() {
        let hp = DeviceId::new("hp");
        let held =
            LabState::new().with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.0));
        let reported = LabState::new()
            .with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.004));
        let mut loose = held.clone();
        assert!(loose.commit_reported(&reported, 0.01).is_empty());
        // Jitter within tolerance is still committed.
        assert_eq!(loose.get_number(&hp, &StateKey::ActionValue), Some(60.004));
        let mut strict = held.clone();
        assert_eq!(strict.commit_reported(&reported, 0.001).len(), 1);
        assert_eq!(strict, reported);
    }

    #[test]
    fn lab_state_from_json_rejects_an_empty_device_name() {
        use rabit_util::{FromJson, Json, ToJson};
        // The id is decoded before the device's variables, so this is
        // rejected for its name alone.
        let json = Json::parse(r#"{"": {"deviceDoorStatus": true}}"#).unwrap();
        let error = LabState::from_json(&json).unwrap_err();
        assert!(error.to_string().contains("device id"), "{error}");
        let lab = LabState::new().with_device("doser", door_state(true));
        assert_eq!(LabState::from_json(&lab.to_json()), Ok(lab));
    }

    #[test]
    fn collect_from_iterators() {
        let ds: DeviceState = vec![(StateKey::DoorOpen, Value::Bool(true))]
            .into_iter()
            .collect();
        assert_eq!(ds.len(), 1);
        let lab: LabState = vec![(DeviceId::new("x"), ds)].into_iter().collect();
        assert_eq!(lab.len(), 1);
        let mut ds2 = DeviceState::new();
        ds2.extend(vec![(StateKey::ActionActive, Value::Bool(false))]);
        assert_eq!(ds2.len(), 1);
    }
}

//! Lab state snapshots: `S_current`, `S_expected`, `S_actual`.
//!
//! A guarded step builds `S_expected`, fetches `S_actual`, diffs the two
//! and overlays one on the other (Fig. 2, Lines 11-16), so this layout is
//! on every command's path. Device ids are shared (`Arc<str>`), a device's
//! variables sit in one key-sorted vector, and the diff and overlay walk
//! both snapshots in a single ordered pass.

use crate::id::DeviceId;
use crate::value::{StateKey, Value};
use std::cmp::Ordering;
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

    /// Writes every variable of `reported` into `self` in one merged
    /// walk of the two sorted vectors. A key already present keeps its
    /// slot and only takes the new value; only new keys are cloned.
    fn overlay(&mut self, reported: &DeviceState) {
        let mut i = 0;
        for (key, value) in &reported.vars {
            while self.vars.get(i).is_some_and(|(k, _)| k < key) {
                i += 1;
            }
            match self.vars.get_mut(i) {
                Some((k, v)) if k == key => v.clone_from(value),
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

/// Walks two key-sorted sequences in one pass, yielding every key of
/// either side in order with its value on each side (`None` where that
/// side lacks the key).
fn outer_join<'a, K: Ord + 'a, A: 'a, B: 'a>(
    left: impl IntoIterator<Item = (&'a K, &'a A)>,
    right: impl IntoIterator<Item = (&'a K, &'a B)>,
) -> impl Iterator<Item = (&'a K, Option<&'a A>, Option<&'a B>)> {
    let mut left = left.into_iter().peekable();
    let mut right = right.into_iter().peekable();
    std::iter::from_fn(move || {
        let order = match (left.peek(), right.peek()) {
            (Some((a, _)), Some((b, _))) => a.cmp(b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        Some(match order {
            Ordering::Less => {
                let (k, a) = left.next()?;
                (k, Some(a), None)
            }
            Ordering::Greater => {
                let (k, b) = right.next()?;
                (k, None, Some(b))
            }
            Ordering::Equal => {
                let (k, a) = left.next()?;
                let (_, b) = right.next()?;
                (k, Some(a), Some(b))
            }
        })
    })
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

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the snapshot has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Overlays `reported` on top of this snapshot: every variable a
    /// device actually reports overwrites the believed value; believed
    /// variables the devices cannot sense (vial contents, containment,
    /// held objects) are retained. This is how `S_current` is rolled
    /// forward on Line 16 of the Fig. 2 algorithm in a lab where not
    /// every state variable has a sensor.
    ///
    /// One ordered walk over both snapshots; a device missing here is
    /// copied over afterwards, the only case that clones an id.
    pub fn overlay(&mut self, reported: &LabState) {
        let mut missing = false;
        let mut mine = self.devices.iter_mut().peekable();
        for (id, theirs) in &reported.devices {
            while mine.next_if(|(k, _)| *k < id).is_some() {}
            match mine.next_if(|(k, _)| *k == id) {
                Some((_, state)) => state.overlay(theirs),
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
    }

    /// Compares expected (`self`) against the *reported* snapshot,
    /// returning a difference for every variable the devices actually
    /// report that contradicts the expectation. Believed-only variables
    /// (present in `self` but absent from `reported`) are NOT mismatches:
    /// an unsensed variable can never contradict anything — the blind
    /// spot behind the paper's undetected Bug-C class.
    pub fn diff_reported(&self, reported: &LabState, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        for (device, expected, actual) in outer_join(&self.devices, &reported.devices) {
            let (Some(expected), Some(actual)) = (expected, actual) else {
                continue;
            };
            for (key, e, a) in outer_join(expected.iter(), actual.iter()) {
                if let (Some(e), Some(a)) = (e, a) {
                    if !e.approx_eq(a, tol) {
                        out.push(StateDiff {
                            device: device.clone(),
                            key: key.clone(),
                            left: Some(e.clone()),
                            right: Some(a.clone()),
                        });
                    }
                }
            }
        }
        out
    }

    /// Compares two snapshots variable-by-variable, returning every
    /// difference. An empty diff means `S_actual = S_expected`; a
    /// non-empty diff is what triggers the "Device malfunction!" alert
    /// (Fig. 2, Lines 14-15).
    ///
    /// Numeric and position values compare within `tol`; variables present
    /// on only one side are reported with `None` for the missing side.
    pub fn diff(&self, other: &LabState, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        for (device, a, b) in outer_join(&self.devices, &other.devices) {
            let vars = outer_join(
                a.into_iter().flat_map(DeviceState::iter),
                b.into_iter().flat_map(DeviceState::iter),
            );
            for (key, va, vb) in vars {
                let equal = matches!((va, vb), (Some(x), Some(y)) if x.approx_eq(y, tol));
                if !equal {
                    out.push(StateDiff {
                        device: device.clone(),
                        key: key.clone(),
                        left: va.cloned(),
                        right: vb.cloned(),
                    });
                }
            }
        }
        out
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
            devices.insert(DeviceId::new(id), DeviceState::from_json(d)?);
        }
        Ok(LabState { devices })
    }
}

/// One differing state variable between two lab snapshots.
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
    fn identical_states_have_empty_diff() {
        let lab = LabState::new().with_device("d", door_state(true));
        assert!(lab.diff(&lab.clone(), 0.0).is_empty());
    }

    #[test]
    fn diff_detects_changed_value() {
        let a = LabState::new().with_device("doser", door_state(true));
        let b = LabState::new().with_device("doser", door_state(false));
        let d = a.diff(&b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].device.as_str(), "doser");
        assert_eq!(d[0].key, StateKey::DoorOpen);
        assert_eq!(d[0].left, Some(Value::Bool(true)));
        assert_eq!(d[0].right, Some(Value::Bool(false)));
        assert!(d[0].to_string().contains("doser.deviceDoorStatus"));
    }

    #[test]
    fn diff_detects_missing_device_and_variable() {
        let a = LabState::new().with_device("doser", door_state(true));
        let b = LabState::new();
        let d = a.diff(&b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].right, None);
        // Variable missing on one side only.
        let c = LabState::new().with_device(
            "doser",
            door_state(true).with(StateKey::ActionActive, false),
        );
        let d = a.diff(&c, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key, StateKey::ActionActive);
        assert_eq!(d[0].left, None);
    }

    #[test]
    fn diff_tolerates_numeric_jitter() {
        let a =
            LabState::new().with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.0));
        let b = LabState::new()
            .with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.004));
        assert!(a.diff(&b, 0.01).is_empty());
        assert_eq!(a.diff(&b, 0.001).len(), 1);
    }

    #[test]
    fn diff_is_antisymmetric_in_sides() {
        let a = LabState::new().with_device("d", door_state(true));
        let b = LabState::new().with_device("d", door_state(false));
        let ab = a.diff(&b, 0.0);
        let ba = b.diff(&a, 0.0);
        assert_eq!(ab.len(), ba.len());
        assert_eq!(ab[0].left, ba[0].right);
        assert_eq!(ab[0].right, ba[0].left);
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

//! Containers: vials and the grid that holds them.

use crate::command::ActionKind;
use crate::device::{is_silent_noop, Device, DeviceError, LatencyModel, Malfunction};
use crate::id::{DeviceId, DeviceType};
use crate::state::DeviceState;
use crate::value::StateKey;
use rabit_geometry::{Aabb, Vec3};
use std::collections::BTreeMap;

/// A vial: the canonical **Container** device. Holds solid (mg) and
/// liquid (mL), and has a stopper (cap).
#[derive(Debug, Clone, PartialEq)]
pub struct Vial {
    id: DeviceId,
    location: Vec3,
    solid_mg: f64,
    liquid_ml: f64,
    capacity_mg: f64,
    capacity_ml: f64,
    stopper_on: bool,
    malfunction: Option<Malfunction>,
    latency: LatencyModel,
}

impl Vial {
    /// Standard Hein-Lab 20 mL vial capacity in millilitres.
    pub const DEFAULT_CAPACITY_ML: f64 = 20.0;
    /// Default solid capacity in milligrams (Fig. 1(b) caps doses at 10 mg).
    pub const DEFAULT_CAPACITY_MG: f64 = 10.0;

    /// Creates an empty, capped vial resting at `location`.
    pub fn new(id: impl Into<DeviceId>, location: Vec3) -> Self {
        Vial {
            id: id.into(),
            location,
            solid_mg: 0.0,
            liquid_ml: 0.0,
            capacity_mg: Self::DEFAULT_CAPACITY_MG,
            capacity_ml: Self::DEFAULT_CAPACITY_ML,
            stopper_on: true,
            malfunction: None,
            latency: LatencyModel::ZERO,
        }
    }

    /// Overrides the capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is not strictly positive.
    pub fn with_capacities(mut self, capacity_mg: f64, capacity_ml: f64) -> Self {
        assert!(
            capacity_mg > 0.0 && capacity_ml > 0.0,
            "capacities must be positive"
        );
        self.capacity_mg = capacity_mg;
        self.capacity_ml = capacity_ml;
        self
    }

    /// Current solid contents (mg).
    pub fn solid_mg(&self) -> f64 {
        self.solid_mg
    }

    /// Current liquid contents (mL).
    pub fn liquid_ml(&self) -> f64 {
        self.liquid_ml
    }

    /// Whether the stopper is on.
    pub fn has_stopper(&self) -> bool {
        self.stopper_on
    }

    /// Returns `true` if the vial holds neither solid nor liquid.
    pub fn is_empty(&self) -> bool {
        self.solid_mg <= 0.0 && self.liquid_ml <= 0.0
    }

    /// Current resting location.
    pub fn location(&self) -> Vec3 {
        self.location
    }

    /// Moves the vial (called by the environment when an arm carries it).
    pub fn set_location(&mut self, location: Vec3) {
        self.location = location;
    }

    /// Adds solid. Overflow spills: contents saturate at capacity and the
    /// overflow amount is returned (the "spilling solid out of the vial"
    /// low-severity damage class of Table V).
    pub fn add_solid(&mut self, mg: f64) -> f64 {
        let space = (self.capacity_mg - self.solid_mg).max(0.0);
        let added = mg.min(space);
        self.solid_mg += added;
        mg - added
    }

    /// Adds liquid; returns the spilled overflow (mL).
    pub fn add_liquid(&mut self, ml: f64) -> f64 {
        let space = (self.capacity_ml - self.liquid_ml).max(0.0);
        let added = ml.min(space);
        self.liquid_ml += added;
        ml - added
    }

    /// Removes up to `mg` of solid, returning the amount actually removed.
    pub fn take_solid(&mut self, mg: f64) -> f64 {
        let taken = mg.min(self.solid_mg);
        self.solid_mg -= taken;
        taken
    }

    /// Removes up to `ml` of liquid, returning the amount actually removed.
    pub fn take_liquid(&mut self, ml: f64) -> f64 {
        let taken = ml.min(self.liquid_ml);
        self.liquid_ml -= taken;
        taken
    }
}

impl Device for Vial {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::Container
    }

    fn write_status(&self, state: &mut DeviceState) {
        // A vial has no sensors: its status "command" can only report the
        // static facts from its datasheet. Location, contents, and
        // stopper state are *believed* variables that RABIT rolls forward
        // through postconditions — which is why a workflow that lost its
        // vial (Bug C) looks indistinguishable from a healthy one.
        state.clear();
        state.set(StateKey::CapacityMg, self.capacity_mg);
        state.set(StateKey::CapacityMl, self.capacity_ml);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        if is_silent_noop(self.malfunction) {
            return Ok(());
        }
        match action {
            ActionKind::Cap => {
                self.stopper_on = true;
                Ok(())
            }
            ActionKind::Decap => {
                self.stopper_on = false;
                Ok(())
            }
            other => Err(DeviceError::UnsupportedAction {
                device: self.id.clone(),
                action: other.label(),
            }),
        }
    }

    fn footprint(&self) -> Option<Aabb> {
        // A vial is ~28 mm wide and ~60 mm tall.
        Some(Aabb::from_center_half_extents(
            self.location + Vec3::new(0.0, 0.0, 0.03),
            Vec3::new(0.014, 0.014, 0.03),
        ))
    }

    fn latency(&self) -> LatencyModel {
        self.latency
    }

    fn inject_malfunction(&mut self, malfunction: Option<Malfunction>) {
        self.malfunction = malfunction;
    }
}

/// A vial grid/rack: a stationary holder with named slots ("NW", "SE", …).
/// Not one of the four interactive types — it is a passive obstacle with
/// occupancy, which rule III-3 ("robot arm can move to any location not
/// occupied by any object") consults.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    id: DeviceId,
    footprint: Aabb,
    slots: BTreeMap<String, Vec3>,
    occupancy: BTreeMap<String, Option<DeviceId>>,
}

impl Grid {
    /// Creates a grid occupying `footprint` with the given named slots.
    pub fn new(
        id: impl Into<DeviceId>,
        footprint: Aabb,
        slots: impl IntoIterator<Item = (String, Vec3)>,
    ) -> Self {
        let slots: BTreeMap<String, Vec3> = slots.into_iter().collect();
        let occupancy = slots.keys().map(|k| (k.clone(), None)).collect();
        Grid {
            id: id.into(),
            footprint,
            slots,
            occupancy,
        }
    }

    /// The position of a named slot.
    pub fn slot_position(&self, slot: &str) -> Option<Vec3> {
        self.slots.get(slot).copied()
    }

    /// Slot names in order.
    pub fn slot_names(&self) -> impl Iterator<Item = &str> {
        self.slots.keys().map(String::as_str)
    }

    /// The object occupying `slot`, if any.
    pub fn occupant(&self, slot: &str) -> Option<&DeviceId> {
        self.occupancy.get(slot).and_then(Option::as_ref)
    }

    /// Marks `slot` occupied by `object`.
    ///
    /// # Errors
    ///
    /// Fails if the slot does not exist or is already occupied.
    pub fn occupy(&mut self, slot: &str, object: DeviceId) -> Result<(), DeviceError> {
        match self.occupancy.get_mut(slot) {
            None => Err(DeviceError::InvalidState {
                device: self.id.clone(),
                reason: format!("no slot named '{slot}'"),
            }),
            Some(Some(existing)) => Err(DeviceError::InvalidState {
                device: self.id.clone(),
                reason: format!("slot '{slot}' already holds {existing}"),
            }),
            Some(empty) => {
                *empty = Some(object);
                Ok(())
            }
        }
    }

    /// Clears `slot`, returning the previous occupant.
    pub fn vacate(&mut self, slot: &str) -> Option<DeviceId> {
        self.occupancy.get_mut(slot).and_then(Option::take)
    }

    /// Clears every slot `object` occupies.
    pub fn vacate_object(&mut self, object: &DeviceId) {
        for occupant in self.occupancy.values_mut() {
            if occupant.as_ref() == Some(object) {
                *occupant = None;
            }
        }
    }

    /// Settles `object` into the first slot, in name order, within
    /// `radius` of `point`, if that slot is free. Returns whether any
    /// slot was that close, occupied or not.
    pub fn settle_near(&mut self, point: Vec3, radius: f64, object: &DeviceId) -> bool {
        let Some((slot, _)) = self
            .slots
            .iter()
            .find(|(_, position)| position.distance(point) <= radius)
        else {
            return false;
        };
        if let Some(free @ None) = self.occupancy.get_mut(slot) {
            *free = Some(object.clone());
        }
        true
    }
}

impl Device for Grid {
    fn id(&self) -> &DeviceId {
        &self.id
    }

    fn device_type(&self) -> DeviceType {
        DeviceType::Custom("grid".to_string())
    }

    fn write_status(&self, state: &mut DeviceState) {
        // A cardboard grid has no sensors: its status command reports
        // only the static cuboid. Slot occupancy is physical ground truth
        // (used by the damage oracle), invisible to RABIT — which is why
        // vial-less experiments (Bug C) go undetected.
        state.clear();
        state.set(StateKey::Footprint, self.footprint);
    }

    fn execute(&mut self, action: &ActionKind) -> Result<(), DeviceError> {
        Err(DeviceError::UnsupportedAction {
            device: self.id.clone(),
            action: action.label(),
        })
    }

    fn footprint(&self) -> Option<Aabb> {
        Some(self.footprint)
    }

    fn latency(&self) -> LatencyModel {
        LatencyModel::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vial_contents_lifecycle() {
        let mut v = Vial::new("vial_NW", Vec3::new(0.537, 0.018, 0.1));
        assert!(v.is_empty());
        assert!(v.has_stopper());
        assert_eq!(v.add_solid(5.0), 0.0);
        assert_eq!(v.solid_mg(), 5.0);
        assert!(!v.is_empty());
        // Overflow spills.
        assert_eq!(v.add_solid(8.0), 3.0);
        assert_eq!(v.solid_mg(), 10.0);
        assert_eq!(v.add_liquid(25.0), 5.0);
        assert_eq!(v.liquid_ml(), 20.0);
        assert_eq!(v.take_solid(4.0), 4.0);
        assert_eq!(v.take_solid(100.0), 6.0);
        assert_eq!(v.solid_mg(), 0.0);
        assert_eq!(v.take_liquid(30.0), 20.0);
        assert!(v.is_empty());
    }

    #[test]
    fn vial_cap_decap() {
        let mut v = Vial::new("v", Vec3::ZERO);
        v.execute(&ActionKind::Decap).unwrap();
        assert!(!v.has_stopper());
        v.execute(&ActionKind::Cap).unwrap();
        assert!(v.has_stopper());
        let err = v.execute(&ActionKind::MoveHome).unwrap_err();
        assert!(matches!(err, DeviceError::UnsupportedAction { .. }));
    }

    #[test]
    fn vial_state_snapshot_reports_only_static_facts() {
        let v = Vial::new("v", Vec3::new(0.1, 0.2, 0.0));
        let s = v.fetch_state();
        // No sensors: only the datasheet capacities are reported.
        assert_eq!(s.len(), 2);
        assert_eq!(s.get_number(&StateKey::CapacityMg), Some(10.0));
        assert_eq!(s.get_number(&StateKey::CapacityMl), Some(20.0));
        assert!(s.get(&StateKey::HasStopper).is_none());
        assert!(s.get(&StateKey::Location).is_none());
        assert_eq!(v.device_type(), DeviceType::Container);
        assert!(v
            .footprint()
            .unwrap()
            .contains_point(Vec3::new(0.1, 0.2, 0.02)));
    }

    #[test]
    fn vial_silent_noop_malfunction() {
        let mut v = Vial::new("v", Vec3::ZERO);
        v.inject_malfunction(Some(Malfunction::SilentNoop));
        v.execute(&ActionKind::Decap).unwrap(); // acknowledged…
        assert!(v.has_stopper()); // …but nothing happened
        v.inject_malfunction(None);
        v.execute(&ActionKind::Decap).unwrap();
        assert!(!v.has_stopper());
    }

    #[test]
    fn vial_relocation() {
        let mut v = Vial::new("v", Vec3::ZERO);
        v.set_location(Vec3::new(0.15, 0.45, 0.1));
        assert_eq!(v.location(), Vec3::new(0.15, 0.45, 0.1));
        assert!(v
            .footprint()
            .unwrap()
            .contains_point(Vec3::new(0.15, 0.45, 0.12)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Vial::new("v", Vec3::ZERO).with_capacities(0.0, 1.0);
    }

    fn test_grid() -> Grid {
        Grid::new(
            "grid",
            Aabb::new(Vec3::new(0.4, -0.1, 0.0), Vec3::new(0.7, 0.2, 0.1)),
            vec![
                ("NW".to_string(), Vec3::new(0.45, 0.15, 0.1)),
                ("SE".to_string(), Vec3::new(0.65, -0.05, 0.1)),
            ],
        )
    }

    #[test]
    fn grid_slots_and_occupancy() {
        let mut g = test_grid();
        assert_eq!(g.slot_names().count(), 2);
        assert!(g.slot_position("NW").is_some());
        assert!(g.slot_position("XX").is_none());
        assert!(g.occupant("NW").is_none());
        g.occupy("NW", DeviceId::new("vial_1")).unwrap();
        assert_eq!(g.occupant("NW").unwrap().as_str(), "vial_1");
        // Double occupancy rejected.
        let err = g.occupy("NW", DeviceId::new("vial_2")).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidState { .. }));
        // Unknown slot rejected.
        assert!(g.occupy("XX", DeviceId::new("vial_2")).is_err());
        assert_eq!(g.vacate("NW").unwrap().as_str(), "vial_1");
        assert!(g.occupant("NW").is_none());
        assert!(g.vacate("NW").is_none());
    }

    #[test]
    fn grid_settles_and_vacates_by_object() {
        let mut g = test_grid();
        let vial = DeviceId::new("vial_1");
        // Nothing within 2 cm of the deck centre.
        assert!(!g.settle_near(Vec3::new(0.55, 0.05, 0.1), 0.02, &vial));
        assert!(g.settle_near(Vec3::new(0.46, 0.15, 0.1), 0.02, &vial));
        assert_eq!(g.occupant("NW"), Some(&vial));
        // A close but occupied slot still counts as found; it keeps its
        // occupant.
        let other = DeviceId::new("vial_2");
        assert!(g.settle_near(Vec3::new(0.45, 0.15, 0.1), 0.02, &other));
        assert_eq!(g.occupant("NW"), Some(&vial));
        g.occupy("SE", vial.clone()).unwrap();
        g.vacate_object(&vial);
        assert!(g.occupant("NW").is_none());
        assert!(g.occupant("SE").is_none());
    }

    #[test]
    fn grid_is_passive() {
        let mut g = test_grid();
        assert!(g.execute(&ActionKind::MoveHome).is_err());
        assert!(g.footprint().is_some());
        let s = g.fetch_state();
        assert!(s.get(&StateKey::Footprint).is_some());
        // No slot sensors: occupancy is not part of the status snapshot.
        assert_eq!(s.len(), 1);
    }
}

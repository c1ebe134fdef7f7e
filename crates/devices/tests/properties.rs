//! Property-based tests over the device-state layer.
//!
//! Hand-rolled property loops over the in-tree seeded PRNG — each
//! property runs `CASES` deterministic cases.

use rabit_devices::{DeviceId, DeviceState, LabState, StateKey, Value, Vial};
use rabit_geometry::{Aabb, Vec3};
use rabit_util::{FromJson, Json, Rng, ToJson};

const CASES: usize = 256;

fn lowercase_name(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.random_range(1..max_len + 1);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

fn state_key(rng: &mut Rng) -> StateKey {
    match rng.random_range(0..8u32) {
        0 => StateKey::DoorOpen,
        1 => StateKey::ActionActive,
        2 => StateKey::ActionValue,
        3 => StateKey::SolidMg,
        4 => StateKey::LiquidMl,
        5 => StateKey::HasStopper,
        6 => StateKey::AtSleep,
        _ => StateKey::Custom(lowercase_name(rng, 8)),
    }
}

fn value(rng: &mut Rng) -> Value {
    match rng.random_range(0..4u32) {
        0 => Value::Bool(rng.random_bool(0.5)),
        1 => Value::Number(rng.random_range(-1e3..1e3)),
        2 => Value::Position(Vec3::new(
            rng.random_range(-2.0..2.0),
            rng.random_range(-2.0..2.0),
            rng.random_range(0.0..2.0),
        )),
        _ => {
            if rng.random_bool(0.5) {
                Value::Id(None)
            } else {
                Value::Id(Some(DeviceId::new(lowercase_name(rng, 6))))
            }
        }
    }
}

fn device_state(rng: &mut Rng) -> DeviceState {
    let n = rng.random_range(0..6usize);
    (0..n).map(|_| (state_key(rng), value(rng))).collect()
}

fn lab_state(rng: &mut Rng) -> LabState {
    let n = rng.random_range(0..5usize);
    (0..n)
        .map(|_| (DeviceId::new(lowercase_name(rng, 6)), device_state(rng)))
        .collect()
}

/// Commit semantics: every reported variable wins; everything else is
/// retained.
#[test]
fn committed_report_wins_and_rest_is_retained() {
    let mut rng = Rng::seed_from_u64(101);
    for _ in 0..CASES {
        let believed = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let mut merged = believed.clone();
        merged.commit_reported(&reported, 0.0);
        // Reported values are present verbatim.
        for (dev, st) in reported.iter() {
            for (key, val) in st.iter() {
                assert_eq!(merged.get(dev, key), Some(val));
            }
        }
        // Believed-only values survive.
        for (dev, st) in believed.iter() {
            for (key, val) in st.iter() {
                if reported.get(dev, key).is_none() {
                    assert_eq!(merged.get(dev, key), Some(val));
                }
            }
        }
    }
}

/// A snapshot never contradicts itself, at any tolerance.
#[test]
fn self_diff_is_empty() {
    let mut rng = Rng::seed_from_u64(102);
    for _ in 0..CASES {
        let state = lab_state(&mut rng);
        let tol = rng.random_range(0.0..1.0);
        let mut merged = state.clone();
        assert!(merged.commit_reported(&state, tol).is_empty());
        assert_eq!(merged, state);
    }
}

/// A commit only ever cites variables both sides have, and loosening the
/// tolerance never creates new findings.
#[test]
fn commit_findings_are_sound_and_monotone() {
    let mut rng = Rng::seed_from_u64(103);
    for _ in 0..CASES {
        let expected = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let tol = rng.random_range(0.0..0.5);
        let strict = expected.clone().commit_reported(&reported, tol);
        for d in &strict {
            assert!(reported.get(&d.device, &d.key).is_some());
            assert!(expected.get(&d.device, &d.key).is_some());
        }
        let loose = expected.clone().commit_reported(&reported, tol + 0.5);
        assert!(loose.len() <= strict.len());
    }
}

/// Committing the reported snapshot resolves every reported discrepancy:
/// the merged state agrees with the report.
#[test]
fn commit_resolves_all_reported_diffs() {
    let mut rng = Rng::seed_from_u64(104);
    for _ in 0..CASES {
        let expected = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let mut merged = expected.clone();
        merged.commit_reported(&reported, 0.5);
        assert!(merged.clone().commit_reported(&reported, 0.0).is_empty());
    }
}

/// LabState survives a JSON round trip (up to sub-nanometre float drift
/// near decimal ties).
#[test]
fn lab_state_json_roundtrip() {
    let mut rng = Rng::seed_from_u64(105);
    for _ in 0..CASES {
        let state = lab_state(&mut rng);
        let json = state.to_json().to_compact();
        let back = LabState::from_json(&Json::parse(&json).unwrap()).unwrap();
        // Same devices and variables, and no value drifts beyond 1e-9.
        let keys = |lab: &LabState| -> Vec<(DeviceId, Vec<StateKey>)> {
            lab.iter()
                .map(|(id, d)| (id.clone(), d.iter().map(|(k, _)| k.clone()).collect()))
                .collect()
        };
        assert_eq!(keys(&back), keys(&state));
        let diffs = back.clone().commit_reported(&state, 1e-9);
        assert!(diffs.is_empty(), "roundtrip drift: {diffs:?}");
    }
}

/// Vial contents conservation: arbitrary add/take sequences keep the
/// contents within [0, capacity], and every gram is accounted for.
#[test]
fn vial_contents_are_conserved() {
    let mut rng = Rng::seed_from_u64(106);
    for _ in 0..CASES {
        let mut vial = Vial::new("v", Vec3::ZERO).with_capacities(10.0, 20.0);
        let mut ledger = 0.0; // what we believe is inside
        let ops = rng.random_range(1..40usize);
        for _ in 0..ops {
            let add = rng.random_bool(0.5);
            let amount = rng.random_range(0.0..30.0);
            if add {
                let spilled = vial.add_solid(amount);
                assert!(spilled >= 0.0 && spilled <= amount + 1e-9);
                ledger += amount - spilled;
            } else {
                let taken = vial.take_solid(amount);
                assert!(taken >= 0.0 && taken <= amount + 1e-9);
                ledger -= taken;
            }
            assert!((vial.solid_mg() - ledger).abs() < 1e-6);
            assert!(vial.solid_mg() >= -1e-9);
            assert!(vial.solid_mg() <= 10.0 + 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// Differential check of the snapshot layout against a map-of-maps model.
// ---------------------------------------------------------------------

/// A `BTreeMap`-of-`BTreeMap` model of `LabState` and `DeviceState`,
/// with a map-based diff and overlay written the straightforward way.
/// The one-pass `LabState::commit_reported` must equal the model's
/// `diff_reported` followed by its `overlay`.
/// Type and field names match the real types, so the derived `Debug`
/// text is the map-style text the real types must print.
mod reference {
    use rabit_devices::{DeviceId, StateDiff, StateKey, Value};
    use rabit_util::{Json, ToJson};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct DeviceState {
        pub vars: BTreeMap<StateKey, Value>,
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct LabState {
        pub devices: BTreeMap<DeviceId, DeviceState>,
    }

    impl LabState {
        pub fn device_mut(&mut self, id: &DeviceId) -> &mut DeviceState {
            self.devices.entry(id.clone()).or_default()
        }

        pub fn get(&self, id: &DeviceId, key: &StateKey) -> Option<&Value> {
            self.devices.get(id).and_then(|d| d.vars.get(key))
        }

        pub fn overlay(&mut self, reported: &LabState) {
            for (device, dstate) in &reported.devices {
                let entry = self.device_mut(device);
                for (key, value) in &dstate.vars {
                    entry.vars.insert(key.clone(), value.clone());
                }
            }
        }

        pub fn diff_reported(&self, reported: &LabState, tol: f64) -> Vec<StateDiff> {
            let mut out = Vec::new();
            for (device, dstate) in &reported.devices {
                for (key, actual) in &dstate.vars {
                    if let Some(expected) = self.get(device, key) {
                        if !expected.approx_eq(actual, tol) {
                            out.push(StateDiff {
                                device: device.clone(),
                                key: key.clone(),
                                left: Some(expected.clone()),
                                right: Some(actual.clone()),
                            });
                        }
                    }
                }
            }
            out
        }

        pub fn to_json(&self) -> Json {
            Json::Obj(
                self.devices
                    .iter()
                    .map(|(id, d)| (id.to_string(), d.to_json()))
                    .collect(),
            )
        }
    }

    impl DeviceState {
        pub fn to_json(&self) -> Json {
            Json::Obj(
                self.vars
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            )
        }
    }
}

/// A small pool, so snapshots share devices and calls hit existing ones.
const DEVICE_POOL: [&str; 6] = ["arm", "centrifuge", "doser", "grid", "vial_a", "vial_b"];

fn any_device(rng: &mut Rng) -> DeviceId {
    DeviceId::new(DEVICE_POOL[rng.random_range(0..DEVICE_POOL.len())])
}

/// Every `StateKey` variant. Custom names come from a small pool (the
/// empty name and one spelled like a built-in included), so custom keys
/// collide and sort among themselves.
fn any_state_key(rng: &mut Rng) -> StateKey {
    match rng.random_range(0..18u32) {
        0 => StateKey::DoorOpen,
        1 => StateKey::Holding,
        2 => StateKey::InsideOf,
        3 => StateKey::GripperOpen,
        4 => StateKey::Location,
        5 => StateKey::AtSleep,
        6 => StateKey::ActionActive,
        7 => StateKey::ActionValue,
        8 => StateKey::ActionThreshold,
        9 => StateKey::ContainedObject,
        10 => StateKey::SolidMg,
        11 => StateKey::LiquidMl,
        12 => StateKey::CapacityMl,
        13 => StateKey::CapacityMg,
        14 => StateKey::HasStopper,
        15 => StateKey::RedDotNorth,
        16 => StateKey::Footprint,
        _ => {
            let names = ["", "location", "occupied", "rpm2", "slot:NW"];
            StateKey::Custom(names[rng.random_range(0..names.len())].to_string())
        }
    }
}

/// Every `Value` variant. Numbers and positions sit near a few centres,
/// so tolerance-based comparisons see both near and far pairs.
fn any_value(rng: &mut Rng) -> Value {
    let near = |rng: &mut Rng, centre: f64| centre + rng.random_range(-0.02..0.02);
    match rng.random_range(0..6u32) {
        0 => Value::Bool(rng.random_bool(0.5)),
        1 => {
            let centres = [0.0, 25.0, 60.0];
            let centre = centres[rng.random_range(0..centres.len())];
            Value::Number(near(rng, centre))
        }
        2 => Value::Position(Vec3::new(near(rng, 0.3), near(rng, 0.1), near(rng, 0.2))),
        3 => Value::Id(rng.random_bool(0.7).then(|| any_device(rng))),
        4 => {
            let min = Vec3::new(near(rng, 0.4), near(rng, -0.1), 0.0);
            Value::Box3(Aabb::new(min, min + Vec3::new(0.2, 0.3, near(rng, 0.1))))
        }
        _ => {
            let texts = ["", "idle", "spinning", "é \"quoted\""];
            Value::Text(texts[rng.random_range(0..texts.len())].to_string())
        }
    }
}

fn any_vars(rng: &mut Rng) -> Vec<(StateKey, Value)> {
    let n = rng.random_range(0..7usize);
    (0..n)
        .map(|_| (any_state_key(rng), any_value(rng)))
        .collect()
}

/// Applies one random mutating call to both layouts: `insert` of a
/// collected device state, `LabState::set`, `device_mut`, or `extend`.
fn mutate(rng: &mut Rng, lab: &mut LabState, model: &mut reference::LabState) {
    let id = any_device(rng);
    match rng.random_range(0..4u32) {
        0 => {
            let vars = any_vars(rng);
            model.devices.insert(
                id.clone(),
                reference::DeviceState {
                    vars: vars.iter().cloned().collect(),
                },
            );
            lab.insert(id, vars.into_iter().collect());
        }
        1 => {
            let (key, value) = (any_state_key(rng), any_value(rng));
            model
                .device_mut(&id)
                .vars
                .insert(key.clone(), value.clone());
            lab.set(&id, key, value);
        }
        2 => {
            model.device_mut(&id);
            lab.device_mut(&id);
        }
        _ => {
            let vars = any_vars(rng);
            model.device_mut(&id).vars.extend(vars.iter().cloned());
            lab.device_mut(&id).extend(vars);
        }
    }
}

fn any_lab(rng: &mut Rng) -> (LabState, reference::LabState) {
    let mut lab = LabState::new();
    let mut model = reference::LabState::default();
    for _ in 0..rng.random_range(0..10usize) {
        mutate(rng, &mut lab, &mut model);
    }
    (lab, model)
}

/// Every `(device, key, value)` in iteration order.
fn triples(lab: &LabState) -> Vec<(DeviceId, StateKey, Value)> {
    lab.iter()
        .flat_map(|(id, d)| d.iter().map(|(k, v)| (id.clone(), k.clone(), v.clone())))
        .collect()
}

fn model_triples(model: &reference::LabState) -> Vec<(DeviceId, StateKey, Value)> {
    model
        .devices
        .iter()
        .flat_map(|(id, d)| {
            d.vars
                .iter()
                .map(|(k, v)| (id.clone(), k.clone(), v.clone()))
        })
        .collect()
}

/// Same contents, order, lookups, `Debug` text and JSON text.
fn assert_matches(lab: &LabState, model: &reference::LabState) {
    assert_eq!(triples(lab), model_triples(model));
    assert_eq!(
        lab.device_ids().collect::<Vec<_>>(),
        model.devices.keys().collect::<Vec<_>>()
    );
    assert_eq!(lab.len(), model.devices.len());
    for (id, d) in &model.devices {
        let state = lab.device(id).expect("device present");
        assert_eq!(state.len(), d.vars.len());
        assert_eq!(format!("{state:?}"), format!("{d:?}"));
        assert_eq!(state.to_json().to_compact(), d.to_json().to_compact());
        for (key, value) in &d.vars {
            assert_eq!(lab.get(id, key), Some(value));
        }
    }
    assert_eq!(format!("{lab:?}"), format!("{model:?}"));
    assert_eq!(format!("{lab:#?}"), format!("{model:#?}"));
    assert_eq!(lab.to_json().to_compact(), model.to_json().to_compact());
}

/// Built through any mix of calls, a snapshot iterates, prints and
/// serialises exactly like the map-of-maps model.
#[test]
fn snapshots_match_the_map_model() {
    let mut rng = Rng::seed_from_u64(107);
    for _ in 0..CASES {
        let (lab, model) = any_lab(&mut rng);
        assert_matches(&lab, &model);
    }
}

/// The one-pass commit of `reported` into `held` gives the findings of the
/// model's `diff_reported`, in the model's order, and the state of the
/// model's `overlay` after it.
fn assert_commit_matches(
    (held, held_model): (&LabState, &reference::LabState),
    (reported, reported_model): (&LabState, &reference::LabState),
    tol: f64,
) {
    let mut merged = held.clone();
    let findings = merged.commit_reported(reported, tol);
    let mut merged_model = held_model.clone();
    let model_findings = merged_model.diff_reported(reported_model, tol);
    merged_model.overlay(reported_model);
    assert_eq!(findings, model_findings);
    assert_matches(&merged, &merged_model);
}

/// On unrelated snapshots, the commit gives the model's findings and
/// merged state.
#[test]
fn commit_matches_the_map_model() {
    let mut rng = Rng::seed_from_u64(108);
    for _ in 0..CASES {
        let (lab, model) = any_lab(&mut rng);
        let (reported, reported_model) = any_lab(&mut rng);
        assert_commit_matches((&lab, &model), (&reported, &reported_model), 0.0);
    }
}

/// On near and far pairs, at several tolerances, the commit gives the
/// model's findings and merged state.
#[test]
fn commit_findings_match_the_map_model() {
    let mut rng = Rng::seed_from_u64(109);
    for _ in 0..CASES {
        let (expected, expected_model) = any_lab(&mut rng);
        // Half the time the other side is a lightly edited copy, so
        // finding lists are short as well as long.
        let (actual, actual_model) = if rng.random_bool(0.5) {
            let (mut lab, mut model) = (expected.clone(), expected_model.clone());
            for _ in 0..rng.random_range(0..3usize) {
                mutate(&mut rng, &mut lab, &mut model);
            }
            (lab, model)
        } else {
            any_lab(&mut rng)
        };
        for tol in [0.0, 0.01, 1.0] {
            assert_commit_matches((&expected, &expected_model), (&actual, &actual_model), tol);
        }
    }
}

/// Equality agrees with the model's, on pairs that are often equal.
#[test]
fn equality_matches_the_map_model() {
    let mut rng = Rng::seed_from_u64(110);
    let mut equal_pairs = 0;
    for _ in 0..CASES {
        let (a, a_model) = any_lab(&mut rng);
        let (mut b, mut b_model) = (a.clone(), a_model.clone());
        for _ in 0..rng.random_range(0..2usize) {
            mutate(&mut rng, &mut b, &mut b_model);
        }
        assert_eq!(a == b, a_model == b_model);
        for (id, d) in &a_model.devices {
            let same = b_model.devices.get(id) == Some(d);
            assert_eq!(a.device(id) == b.device(id), same);
        }
        equal_pairs += usize::from(a == b);
    }
    // Both outcomes are exercised.
    assert!(equal_pairs > CASES / 8 && equal_pairs < CASES);
}

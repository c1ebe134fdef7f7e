//! The state-transition function: postconditions.
//!
//! `UpdateState(S_current, a_next)` from the Fig. 2 algorithm (Line 11):
//! given the current lab snapshot and a command, compute what the lab
//! *should* look like after the command executes. A command's
//! postconditions touch one or two devices (Table II), so
//! [`expected_state`] returns them as [`StateWrites`] — the variables
//! that change, in order — rather than a whole snapshot. The engine
//! writes them into `S_current` once the command has executed, which
//! makes it `S_expected`, and then compares it with the fetched
//! `S_actual` to detect device malfunctions (Lines 13-15).

use crate::catalog::DeviceCatalog;
use rabit_devices::{ActionKind, Command, DeviceId, LabState, StateKey, Substance, Value};
use rabit_util::InlineVec;

/// Inline capacity of [`StateWrites`]. A command writes at most four
/// variables — a move with a held object, a start that doses — unless a
/// pick empties several devices at once.
const WRITES_INLINE: usize = 4;

/// One postcondition: `device.key` becomes `value`.
pub type StateWrite = (DeviceId, StateKey, Value);

/// The postconditions of one command as ordered writes: the first four
/// live inline, the rest spill to the heap, so [`expected_state`]
/// performs no allocation on the hot path. A later write to the same
/// variable wins; `S_current.extend(writes)` applies them.
pub type StateWrites = InlineVec<StateWrite, WRITES_INLINE>;

/// Computes the postconditions of `command` executed in `current`: the
/// writes that turn `current` into the expected lab state.
///
/// The function is total: commands that would be rule violations still
/// produce a prediction (RABIT would have stopped them earlier; the
/// transition function itself is not a safety check). Reads see
/// `current` as the command found it, except container levels, which
/// see the command's earlier writes (a transfer from a vial into itself
/// removes, then adds back).
pub fn expected_state(
    catalog: &DeviceCatalog,
    current: &LabState,
    command: &Command,
) -> StateWrites {
    let mut next = Postconditions {
        current,
        writes: StateWrites::new(),
    };
    let actor = &command.actor;
    match &command.action {
        ActionKind::MoveToLocation { target } => {
            next.set(actor, StateKey::Location, *target);
            next.set(actor, StateKey::InsideOf, None::<DeviceId>);
            next.set(actor, StateKey::AtSleep, false);
            // A held object travels with the gripper.
            if let Some(held) = current.get_id(actor, &StateKey::Holding).flatten() {
                next.set(held, StateKey::Location, *target);
            }
        }
        ActionKind::MoveInsideDevice { device } => {
            next.set(actor, StateKey::InsideOf, Some(device.clone()));
            next.set(actor, StateKey::AtSleep, false);
        }
        ActionKind::MoveOutOfDevice => {
            next.set(actor, StateKey::InsideOf, None::<DeviceId>);
        }
        ActionKind::MoveHome => {
            if let Some(home) = catalog.get(actor).and_then(|m| m.home_location) {
                next.set(actor, StateKey::Location, home);
                if let Some(held) = current.get_id(actor, &StateKey::Holding).flatten() {
                    next.set(held, StateKey::Location, home);
                }
            }
            next.set(actor, StateKey::InsideOf, None::<DeviceId>);
            next.set(actor, StateKey::AtSleep, false);
        }
        ActionKind::MoveToSleep => {
            if let Some(sleep) = catalog.get(actor).and_then(|m| m.sleep_location) {
                next.set(actor, StateKey::Location, sleep);
                if let Some(held) = current.get_id(actor, &StateKey::Holding).flatten() {
                    next.set(held, StateKey::Location, sleep);
                }
            }
            next.set(actor, StateKey::InsideOf, None::<DeviceId>);
            next.set(actor, StateKey::AtSleep, true);
        }
        ActionKind::PickObject { object } => {
            next.set(actor, StateKey::Holding, Some(object.clone()));
            next.set(actor, StateKey::GripperOpen, false);
            next.set(actor, StateKey::AtSleep, false);
            // If the object sat inside a device, it leaves it.
            for meta in catalog.iter() {
                if current
                    .get_id(&meta.id, &StateKey::ContainedObject)
                    .flatten()
                    == Some(object)
                {
                    next.set(&meta.id, StateKey::ContainedObject, None::<DeviceId>);
                }
            }
        }
        ActionKind::PlaceObject { object, into } => {
            next.set(actor, StateKey::Holding, None::<DeviceId>);
            next.set(actor, StateKey::GripperOpen, true);
            if let Some(device) = into {
                next.set(device, StateKey::ContainedObject, Some(object.clone()));
            }
        }
        ActionKind::OpenGripper => {
            next.set(actor, StateKey::GripperOpen, true);
            next.set(actor, StateKey::Holding, None::<DeviceId>);
        }
        ActionKind::CloseGripper => {
            next.set(actor, StateKey::GripperOpen, false);
        }
        ActionKind::SetDoor { open } => {
            next.set(actor, StateKey::DoorOpen, *open);
        }
        ActionKind::DoseSolid { amount_mg, into } => {
            add_substance(&mut next, into, Substance::Solid, *amount_mg);
        }
        ActionKind::DoseLiquid { volume_ml, into } => {
            add_substance(&mut next, into, Substance::Liquid, *volume_ml);
        }
        ActionKind::StartAction { value } => {
            next.set(actor, StateKey::ActionActive, true);
            // Only devices that report an action value are expected to
            // show it (dosing systems expose just active/inactive).
            if current.get_number(actor, &StateKey::ActionValue).is_some() {
                next.set(actor, StateKey::ActionValue, *value);
            }
            // A centrifuge spin leaves the red dot askew.
            if current.get_bool(actor, &StateKey::RedDotNorth).is_some() {
                next.set(actor, StateKey::RedDotNorth, false);
            }
            // On a dosing system, `run_action(quantity)` dispenses into
            // the contained container (Fig. 5 line 21).
            if matches!(
                catalog.device_type(actor),
                Some(rabit_devices::DeviceType::DosingSystem)
            ) {
                if let Some(contained) = current
                    .get_id(actor, &StateKey::ContainedObject)
                    .flatten()
                    .cloned()
                {
                    add_substance(&mut next, &contained, Substance::Solid, *value);
                }
            }
        }
        ActionKind::StopAction => {
            next.set(actor, StateKey::ActionActive, false);
            if current.get_number(actor, &StateKey::ActionValue).is_some() {
                next.set(actor, StateKey::ActionValue, 0.0);
            }
        }
        ActionKind::Cap => {
            next.set(actor, StateKey::HasStopper, true);
        }
        ActionKind::Decap => {
            next.set(actor, StateKey::HasStopper, false);
        }
        ActionKind::Transfer {
            from,
            to,
            substance,
            amount,
        } => {
            remove_substance(&mut next, from, *substance, *amount);
            add_substance(&mut next, to, *substance, *amount);
        }
        ActionKind::Custom { name, .. } => {
            // Multi-door actuation (the §V-C extension) has a declared
            // postcondition: the named door's state variable flips.
            if let Some(door) = name.strip_prefix(rabit_devices::multidoor::OPEN_DOOR_PREFIX) {
                next.set(actor, rabit_devices::multidoor::door_key(door), true);
            } else if let Some(door) =
                name.strip_prefix(rabit_devices::multidoor::CLOSE_DOOR_PREFIX)
            {
                next.set(actor, rabit_devices::multidoor::door_key(door), false);
            }
            // Other lab-defined actions: no generic postcondition; they
            // rely on malfunction checks of the variables they declare.
        }
    }
    next.writes
}

fn substance_keys(substance: Substance) -> (StateKey, StateKey) {
    match substance {
        Substance::Solid => (StateKey::SolidMg, StateKey::CapacityMg),
        Substance::Liquid => (StateKey::LiquidMl, StateKey::CapacityMl),
    }
}

/// The writes under construction, over the snapshot they apply to.
struct Postconditions<'a> {
    current: &'a LabState,
    writes: StateWrites,
}

impl Postconditions<'_> {
    fn set(&mut self, device: &DeviceId, key: StateKey, value: impl Into<Value>) {
        self.writes.push((device.clone(), key, value.into()));
    }

    /// A numeric variable as this command's last write to it left it,
    /// else as the command found it.
    fn get_number(&self, device: &DeviceId, key: &StateKey) -> Option<f64> {
        let written = self
            .writes
            .iter()
            .rev()
            .find(|(d, k, _)| d == device && k == key);
        written
            .map(|(_, _, v)| v)
            .or_else(|| self.current.get(device, key))
            .and_then(Value::as_number)
    }
}

fn add_substance(
    state: &mut Postconditions,
    container: &DeviceId,
    substance: Substance,
    amount: f64,
) {
    let (level_key, capacity_key) = substance_keys(substance);
    let level = state.get_number(container, &level_key).unwrap_or(0.0);
    let capacity = state
        .get_number(container, &capacity_key)
        .unwrap_or(f64::INFINITY);
    // Physical saturation: overflow spills, contents cap at capacity.
    state.set(container, level_key, (level + amount).min(capacity));
}

fn remove_substance(
    state: &mut Postconditions,
    container: &DeviceId,
    substance: Substance,
    amount: f64,
) {
    let (level_key, _) = substance_keys(substance);
    let level = state.get_number(container, &level_key).unwrap_or(0.0);
    state.set(container, level_key, (level - amount).max(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DeviceMeta;
    use rabit_devices::{DeviceState, DeviceType};
    use rabit_geometry::Vec3;

    /// `current` with the command's writes applied: `S_expected`.
    fn after(catalog: &DeviceCatalog, current: &LabState, command: &Command) -> LabState {
        let mut next = current.clone();
        next.extend(expected_state(catalog, current, command));
        next
    }

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("arm", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, 0.0, 0.1)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
            .with(DeviceMeta::new("centrifuge", DeviceType::ActionDevice).with_door())
    }

    fn base() -> LabState {
        let mut s = LabState::new();
        s.insert(
            "arm",
            DeviceState::new()
                .with(StateKey::Location, Vec3::new(0.3, 0.0, 0.3))
                .with(StateKey::Holding, None::<DeviceId>)
                .with(StateKey::InsideOf, None::<DeviceId>)
                .with(StateKey::GripperOpen, true)
                .with(StateKey::AtSleep, false),
        );
        s.insert(
            "vial",
            DeviceState::new()
                .with(StateKey::SolidMg, 0.0)
                .with(StateKey::LiquidMl, 0.0)
                .with(StateKey::CapacityMg, 10.0)
                .with(StateKey::CapacityMl, 20.0)
                .with(StateKey::HasStopper, false),
        );
        s.insert(
            "doser",
            DeviceState::new()
                .with(StateKey::DoorOpen, false)
                .with(StateKey::ContainedObject, None::<DeviceId>),
        );
        s.insert(
            "centrifuge",
            DeviceState::new()
                .with(StateKey::ActionActive, false)
                .with(StateKey::ActionValue, 0.0)
                .with(StateKey::RedDotNorth, true),
        );
        s
    }

    #[test]
    fn move_updates_location_and_held_object() {
        let cat = catalog();
        let mut s = base();
        s.set(
            &"arm".into(),
            StateKey::Holding,
            Some(DeviceId::new("vial")),
        );
        let target = Vec3::new(0.5, 0.1, 0.2);
        let next = after(
            &cat,
            &s,
            &Command::new("arm", ActionKind::MoveToLocation { target }),
        );
        assert_eq!(
            next.get(&"arm".into(), &StateKey::Location)
                .unwrap()
                .as_position()
                .unwrap(),
            target
        );
        assert_eq!(
            next.get(&"vial".into(), &StateKey::Location)
                .unwrap()
                .as_position()
                .unwrap(),
            target,
            "held vial travels with the arm"
        );
    }

    #[test]
    fn home_and_sleep_use_catalog_positions() {
        let cat = catalog();
        let s = base();
        let next = after(&cat, &s, &Command::new("arm", ActionKind::MoveToSleep));
        assert_eq!(next.get_bool(&"arm".into(), &StateKey::AtSleep), Some(true));
        assert_eq!(
            next.get(&"arm".into(), &StateKey::Location)
                .unwrap()
                .as_position()
                .unwrap(),
            Vec3::new(0.1, 0.0, 0.1)
        );
        let back = after(&cat, &next, &Command::new("arm", ActionKind::MoveHome));
        assert_eq!(
            back.get_bool(&"arm".into(), &StateKey::AtSleep),
            Some(false)
        );
        assert_eq!(
            back.get(&"arm".into(), &StateKey::Location)
                .unwrap()
                .as_position()
                .unwrap(),
            Vec3::new(0.3, 0.0, 0.3)
        );
    }

    #[test]
    fn pick_place_roundtrip_moves_containment() {
        let cat = catalog();
        let mut s = base();
        s.set(
            &"doser".into(),
            StateKey::ContainedObject,
            Some(DeviceId::new("vial")),
        );
        // Picking the vial out of the doser clears the doser's containment.
        let picked = after(
            &cat,
            &s,
            &Command::new(
                "arm",
                ActionKind::PickObject {
                    object: "vial".into(),
                },
            ),
        );
        assert_eq!(
            picked
                .get_id(&"arm".into(), &StateKey::Holding)
                .unwrap()
                .unwrap()
                .as_str(),
            "vial"
        );
        assert_eq!(
            picked.get_bool(&"arm".into(), &StateKey::GripperOpen),
            Some(false)
        );
        assert_eq!(
            picked.get_id(&"doser".into(), &StateKey::ContainedObject),
            Some(None)
        );
        // Placing into the centrifuge sets its containment.
        let placed = after(
            &cat,
            &picked,
            &Command::new(
                "arm",
                ActionKind::PlaceObject {
                    object: "vial".into(),
                    into: Some("centrifuge".into()),
                },
            ),
        );
        assert_eq!(placed.get_id(&"arm".into(), &StateKey::Holding), Some(None));
        assert_eq!(
            placed
                .get_id(&"centrifuge".into(), &StateKey::ContainedObject)
                .unwrap()
                .unwrap()
                .as_str(),
            "vial"
        );
    }

    #[test]
    fn doors_and_grippers() {
        let cat = catalog();
        let s = base();
        let open = after(
            &cat,
            &s,
            &Command::new("doser", ActionKind::SetDoor { open: true }),
        );
        assert_eq!(
            open.get_bool(&"doser".into(), &StateKey::DoorOpen),
            Some(true)
        );
        let mut held = s.clone();
        held.set(
            &"arm".into(),
            StateKey::Holding,
            Some(DeviceId::new("vial")),
        );
        let dropped = after(&cat, &held, &Command::new("arm", ActionKind::OpenGripper));
        assert_eq!(
            dropped.get_id(&"arm".into(), &StateKey::Holding),
            Some(None)
        );
        assert_eq!(
            dropped.get_bool(&"arm".into(), &StateKey::GripperOpen),
            Some(true)
        );
        let closed = after(&cat, &s, &Command::new("arm", ActionKind::CloseGripper));
        assert_eq!(
            closed.get_bool(&"arm".into(), &StateKey::GripperOpen),
            Some(false)
        );
    }

    #[test]
    fn dosing_saturates_at_capacity() {
        let cat = catalog();
        let s = base();
        let next = after(
            &cat,
            &s,
            &Command::new(
                "doser",
                ActionKind::DoseSolid {
                    amount_mg: 6.0,
                    into: "vial".into(),
                },
            ),
        );
        assert_eq!(
            next.get_number(&"vial".into(), &StateKey::SolidMg),
            Some(6.0)
        );
        // Overdose: expected physical outcome is saturation (spill).
        let over = after(
            &cat,
            &next,
            &Command::new(
                "doser",
                ActionKind::DoseSolid {
                    amount_mg: 9.0,
                    into: "vial".into(),
                },
            ),
        );
        assert_eq!(
            over.get_number(&"vial".into(), &StateKey::SolidMg),
            Some(10.0)
        );
    }

    #[test]
    fn transfer_moves_substance() {
        let cat = catalog();
        let mut s = base();
        s.set(&"vial".into(), StateKey::LiquidMl, 10.0);
        s.insert(
            "vial2",
            DeviceState::new()
                .with(StateKey::LiquidMl, 0.0)
                .with(StateKey::CapacityMl, 20.0),
        );
        let next = after(
            &cat,
            &s,
            &Command::new(
                "arm",
                ActionKind::Transfer {
                    from: "vial".into(),
                    to: "vial2".into(),
                    substance: Substance::Liquid,
                    amount: 4.0,
                },
            ),
        );
        assert_eq!(
            next.get_number(&"vial".into(), &StateKey::LiquidMl),
            Some(6.0)
        );
        assert_eq!(
            next.get_number(&"vial2".into(), &StateKey::LiquidMl),
            Some(4.0)
        );
        // Removal floors at zero.
        let drained = after(
            &cat,
            &next,
            &Command::new(
                "arm",
                ActionKind::Transfer {
                    from: "vial".into(),
                    to: "vial2".into(),
                    substance: Substance::Liquid,
                    amount: 100.0,
                },
            ),
        );
        assert_eq!(
            drained.get_number(&"vial".into(), &StateKey::LiquidMl),
            Some(0.0)
        );
        assert_eq!(
            drained.get_number(&"vial2".into(), &StateKey::LiquidMl),
            Some(20.0)
        );
    }

    #[test]
    fn transfer_into_itself_reads_its_own_removal() {
        let cat = catalog();
        let mut s = base();
        s.set(&"vial".into(), StateKey::LiquidMl, 10.0);
        let cmd = Command::new(
            "arm",
            ActionKind::Transfer {
                from: "vial".into(),
                to: "vial".into(),
                substance: Substance::Liquid,
                amount: 4.0,
            },
        );
        // The add reads the level the removal left (6), not the 10 the
        // command found, so nothing changes.
        let next = after(&cat, &s, &cmd);
        assert_eq!(
            next.get_number(&"vial".into(), &StateKey::LiquidMl),
            Some(10.0)
        );
        assert_eq!(expected_state(&cat, &s, &cmd).len(), 2);
    }

    #[test]
    fn start_stop_action_and_red_dot() {
        let cat = catalog();
        let s = base();
        let spun = after(
            &cat,
            &s,
            &Command::new("centrifuge", ActionKind::StartAction { value: 4000.0 }),
        );
        assert_eq!(
            spun.get_bool(&"centrifuge".into(), &StateKey::ActionActive),
            Some(true)
        );
        assert_eq!(
            spun.get_number(&"centrifuge".into(), &StateKey::ActionValue),
            Some(4000.0)
        );
        assert_eq!(
            spun.get_bool(&"centrifuge".into(), &StateKey::RedDotNorth),
            Some(false),
            "expected postcondition: a spin leaves the dot askew"
        );
        let stopped = after(
            &cat,
            &spun,
            &Command::new("centrifuge", ActionKind::StopAction),
        );
        assert_eq!(
            stopped.get_bool(&"centrifuge".into(), &StateKey::ActionActive),
            Some(false)
        );
        assert_eq!(
            stopped.get_number(&"centrifuge".into(), &StateKey::ActionValue),
            Some(0.0)
        );
    }

    #[test]
    fn cap_decap() {
        let cat = catalog();
        let s = base();
        let capped = after(&cat, &s, &Command::new("vial", ActionKind::Cap));
        assert_eq!(
            capped.get_bool(&"vial".into(), &StateKey::HasStopper),
            Some(true)
        );
        let decapped = after(&cat, &capped, &Command::new("vial", ActionKind::Decap));
        assert_eq!(
            decapped.get_bool(&"vial".into(), &StateKey::HasStopper),
            Some(false)
        );
    }

    #[test]
    fn custom_actions_are_identity() {
        let cat = catalog();
        let s = base();
        let blink = Command::new(
            "doser",
            ActionKind::Custom {
                name: "blink".into(),
                params: vec![],
            },
        );
        assert!(expected_state(&cat, &s, &blink).is_empty());
        let next = after(&cat, &s, &blink);
        assert_eq!(next, s);
    }

    #[test]
    fn transition_never_mutates_input() {
        let cat = catalog();
        let s = base();
        let snapshot = s.clone();
        let _ = expected_state(&cat, &s, &Command::new("arm", ActionKind::MoveToSleep));
        assert_eq!(s, snapshot);
    }
}

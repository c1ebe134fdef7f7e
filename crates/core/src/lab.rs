//! The lab environment: devices plus ground-truth physics.
//!
//! A [`Lab`] owns the runtime devices and executes commands the way the
//! physical lab would: cross-device effects (a dose lands in the vial
//! inside the doser, a held vial travels with the arm), simulated command
//! latencies on a virtual clock, and — crucially for the evaluation —
//! a [`DamageEvent`] log recording what *actually* breaks when an unsafe
//! command is not stopped. RABIT never reads the damage log; it is the
//! oracle the detection-rate experiments score against.

use crate::clock::SimClock;
use crate::damage::{DamageEvent, DamageKind};
use crate::faults::{CommandFault, FaultSession, FaultStats};
use rabit_devices::physical::{
    ARM_CLEARANCE_M, ARM_COLLISION_RADIUS_M, GRASP_RADIUS_M, HELD_OBJECT_CLEARANCE_M,
};
use rabit_devices::{
    ActionKind, Centrifuge, Command, Device, DeviceError, DeviceId, DeviceState, DosingDevice,
    Grid, Hotplate, LabState, RobotArm, StateKey, SyringePump, Thermoshaker, Vial,
};
use rabit_geometry::noise::PositionNoise;
use rabit_geometry::Vec3;
use rabit_util::Rng;
use std::collections::BTreeMap;

/// Why the lab could not execute a command. The typed replacement for
/// the stringly-typed errors the lab layer used to bubble up: callers
/// can match on the failure class, and the `std::error::Error` impl
/// composes with `?` and error-reporting crates.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum LabError {
    /// The command addressed a device the lab does not contain.
    UnknownDevice {
        /// The unknown device id.
        device: DeviceId,
    },
    /// The device's own firmware refused the command.
    Device(DeviceError),
    /// The device is inside an injected crash window (see
    /// [`crate::FaultKind::DeviceCrash`]) and rejects everything until
    /// it elapses.
    DeviceCrashed {
        /// The crashed device.
        device: DeviceId,
        /// When the crash window ends (virtual seconds).
        until_s: f64,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::UnknownDevice { device } => write!(f, "unknown device {device}"),
            LabError::Device(error) => error.fmt(f),
            LabError::DeviceCrashed { device, until_s } => {
                write!(f, "{device} crashed; down until t={until_s:.2}s")
            }
        }
    }
}

impl std::error::Error for LabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LabError::Device(error) => Some(error),
            _ => None,
        }
    }
}

impl From<DeviceError> for LabError {
    fn from(error: DeviceError) -> Self {
        LabError::Device(error)
    }
}

/// A concrete device in the lab. The enum gives the environment typed
/// access for cross-device effects while still implementing the common
/// [`Device`] interface; labs with exotic hardware can fall back to
/// [`LabDevice::Custom`].
pub enum LabDevice {
    /// A vial.
    Vial(Vial),
    /// A vial grid.
    Grid(Grid),
    /// The solid dosing device.
    Dosing(DosingDevice),
    /// The automated syringe pump.
    Pump(SyringePump),
    /// A hotplate stirrer.
    Hotplate(Hotplate),
    /// A centrifuge.
    Centrifuge(Centrifuge),
    /// A thermoshaker.
    Thermoshaker(Thermoshaker),
    /// A robot arm (logical state; kinematics live in the stage crates).
    Arm(RobotArm),
    /// Any other device.
    Custom(Box<dyn Device>),
}

impl LabDevice {
    fn as_device(&self) -> &dyn Device {
        match self {
            LabDevice::Vial(d) => d,
            LabDevice::Grid(d) => d,
            LabDevice::Dosing(d) => d,
            LabDevice::Pump(d) => d,
            LabDevice::Hotplate(d) => d,
            LabDevice::Centrifuge(d) => d,
            LabDevice::Thermoshaker(d) => d,
            LabDevice::Arm(d) => d,
            LabDevice::Custom(d) => d.as_ref(),
        }
    }

    fn as_device_mut(&mut self) -> &mut dyn Device {
        match self {
            LabDevice::Vial(d) => d,
            LabDevice::Grid(d) => d,
            LabDevice::Dosing(d) => d,
            LabDevice::Pump(d) => d,
            LabDevice::Hotplate(d) => d,
            LabDevice::Centrifuge(d) => d,
            LabDevice::Thermoshaker(d) => d,
            LabDevice::Arm(d) => d,
            LabDevice::Custom(d) => d.as_mut(),
        }
    }

    /// The arm, if this is one.
    pub fn as_arm(&self) -> Option<&RobotArm> {
        match self {
            LabDevice::Arm(a) => Some(a),
            _ => None,
        }
    }

    /// The vial, if this is one.
    pub fn as_vial(&self) -> Option<&Vial> {
        match self {
            LabDevice::Vial(v) => Some(v),
            _ => None,
        }
    }
}

impl std::fmt::Debug for LabDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LabDevice({})", self.as_device().id())
    }
}

macro_rules! impl_from_device {
    ($($variant:ident <- $ty:ty),* $(,)?) => {
        $(impl From<$ty> for LabDevice {
            fn from(d: $ty) -> Self {
                LabDevice::$variant(d)
            }
        })*
    };
}

impl_from_device!(
    Vial <- Vial,
    Grid <- Grid,
    Dosing <- DosingDevice,
    Pump <- SyringePump,
    Hotplate <- Hotplate,
    Centrifuge <- Centrifuge,
    Thermoshaker <- Thermoshaker,
    Arm <- RobotArm,
);

/// Optional kinematic summary for an arm, used for reach checks in the
/// logical lab (the full kinematic model lives in the stage crates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmKinematics {
    /// Arm base position.
    pub base: Vec3,
    /// Maximum reach from the base (metres).
    pub reach: f64,
}

/// The lab: devices, virtual clock, physical held-object tracking, and
/// the damage oracle.
pub struct Lab {
    devices: BTreeMap<DeviceId, LabDevice>,
    clock: SimClock,
    damage: Vec<DamageEvent>,
    /// Which objects each arm *physically* holds. Distinct from the arm's
    /// own `Holding` belief: without a gripper pressure sensor, the
    /// controller's belief can diverge from physical reality (the Bug-C
    /// class the paper could not detect).
    physically_held: BTreeMap<DeviceId, DeviceId>,
    arm_kinematics: BTreeMap<DeviceId, ArmKinematics>,
    /// Positional repeatability noise per arm (the testbed arms' "limited
    /// capabilities and precision", §III), with a seeded RNG so runs stay
    /// deterministic.
    arm_noise: BTreeMap<DeviceId, (PositionNoise, Rng)>,
    /// An armed fault-injection session, if any (see
    /// [`crate::FaultPlan`]). `None` costs nothing on the hot path.
    faults: Option<FaultSession>,
    /// The last `FetchState()` result, refilled in place by the next one.
    snapshot: LabState,
}

impl Lab {
    /// An empty lab.
    pub fn new() -> Self {
        Lab {
            devices: BTreeMap::new(),
            clock: SimClock::new(),
            damage: Vec::new(),
            physically_held: BTreeMap::new(),
            arm_kinematics: BTreeMap::new(),
            arm_noise: BTreeMap::new(),
            faults: None,
            snapshot: LabState::new(),
        }
    }

    /// Adds a device (builder style).
    pub fn with_device(mut self, device: impl Into<LabDevice>) -> Self {
        self.add_device(device);
        self
    }

    /// Adds a device.
    pub fn add_device(&mut self, device: impl Into<LabDevice>) {
        let device = device.into();
        let id = device.as_device().id().clone();
        self.devices.insert(id, device);
    }

    /// Registers an arm's base position and reach for feasibility checks.
    pub fn set_arm_kinematics(&mut self, arm: impl Into<DeviceId>, base: Vec3, reach: f64) {
        self.arm_kinematics
            .insert(arm.into(), ArmKinematics { base, reach });
    }

    /// Gives an arm positional repeatability noise: every motion lands a
    /// Gaussian-perturbed distance from its commanded target. Seeded, so
    /// runs remain deterministic.
    pub fn set_arm_noise(&mut self, arm: impl Into<DeviceId>, noise: PositionNoise, seed: u64) {
        self.arm_noise
            .insert(arm.into(), (noise, Rng::seed_from_u64(seed)));
    }

    /// Immutable access to a device.
    pub fn device(&self, id: &DeviceId) -> Option<&LabDevice> {
        self.devices.get(id)
    }

    /// Mutable access to a device (for test setup and stage binding).
    pub fn device_mut(&mut self, id: &DeviceId) -> Option<&mut LabDevice> {
        self.devices.get_mut(id)
    }

    /// All device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = &DeviceId> {
        self.devices.keys()
    }

    /// The virtual clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Advances the virtual clock (stage crates add their own latencies,
    /// e.g. the simulator GUI).
    pub fn advance_clock(&mut self, seconds: f64) {
        self.clock.advance(seconds);
    }

    /// The damage log so far.
    pub fn damage_log(&self) -> &[DamageEvent] {
        &self.damage
    }

    /// Whether `arm` physically holds `object` (ground truth, not belief).
    pub fn physically_holds(&self, arm: &DeviceId, object: &DeviceId) -> bool {
        self.physically_held.get(arm) == Some(object)
    }

    /// Arms a fault-injection session: from now on commands and state
    /// fetches pass through it (see [`crate::FaultPlan::session`]).
    pub fn arm_faults(&mut self, session: FaultSession) {
        self.faults = Some(session);
    }

    /// Whether a fault session is armed.
    pub fn has_fault_session(&self) -> bool {
        self.faults.is_some()
    }

    /// Injection tallies of the armed fault session (all zeros when no
    /// session is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|s| *s.stats()).unwrap_or_default()
    }

    /// `FetchState()`: snapshots every device via its status command,
    /// advancing the clock by each status latency. This is the dominant
    /// cost of RABIT's ~0.03 s per-command overhead.
    ///
    /// The lab owns the snapshot and lends it out; each fetch refills it
    /// in place, so a warm fetch allocates nothing. With a fault session
    /// armed, the session may serve an older or perturbed snapshot
    /// instead.
    pub fn fetch_state(&mut self) -> &LabState {
        // The first fetch, a device added since, or an older snapshot a
        // fault session served: rebuild the entries from the device list.
        if !self.snapshot.device_ids().eq(self.devices.keys()) {
            self.snapshot = self
                .devices
                .keys()
                .map(|id| (id.clone(), DeviceState::new()))
                .collect();
        }
        let mut status_time = 0.0;
        for (device, (_, state)) in self.devices.values().zip(self.snapshot.iter_mut()) {
            let d = device.as_device();
            status_time += d.latency().status_s;
            d.write_status(state);
        }
        self.clock.advance(status_time);
        if let Some(session) = &mut self.faults {
            let fresh = std::mem::take(&mut self.snapshot);
            self.snapshot = session.intercept_state(fresh);
        }
        &self.snapshot
    }

    /// Executes a command with full physical semantics: firmware checks,
    /// command latency, cross-device effects, and damage recording. With
    /// a fault session armed (see [`Lab::arm_faults`]) the command first
    /// passes through the injector, which may drop, duplicate, delay, or
    /// reject it.
    ///
    /// # Errors
    ///
    /// Returns a [`LabError`]: an unknown actor, the device's own
    /// [`DeviceError`] (firmware refusals, Ned2-style trajectory
    /// exceptions), or an injected crash window. An error means the
    /// action did not happen.
    pub fn apply(&mut self, command: &Command) -> Result<(), LabError> {
        let Some(session) = &mut self.faults else {
            return self.apply_inner(command);
        };
        match session.intercept_command(command, self.clock.now_s()) {
            CommandFault::None => self.apply_inner(command),
            CommandFault::Drop => {
                // Acknowledged, nothing happens beyond a token ack cost.
                // The post-execution malfunction check is what notices.
                self.clock.advance(0.01);
                Ok(())
            }
            CommandFault::Duplicate => {
                self.apply_inner(command)?;
                // The ghost repeat: if the firmware refuses the second
                // round the physical world is unchanged — the first
                // execution already succeeded.
                let _ = self.apply_inner(command);
                Ok(())
            }
            CommandFault::Latency(seconds) => {
                self.clock.advance(seconds);
                self.apply_inner(command)
            }
            CommandFault::Crashed { until_s } => Err(LabError::DeviceCrashed {
                device: command.actor.clone(),
                until_s,
            }),
        }
    }

    /// The fault-free execution path `apply` wraps.
    fn apply_inner(&mut self, command: &Command) -> Result<(), LabError> {
        // Infeasible-move handling BEFORE touching the device: ViperX
        // silently skips, Ned2 raises (paper §IV, category 4).
        if let ActionKind::MoveToLocation { target } = &command.action {
            if let Some(kin) = self.arm_kinematics.get(&command.actor) {
                if target.is_finite() && kin.base.distance(*target) > kin.reach {
                    let silent = self
                        .devices
                        .get(&command.actor)
                        .and_then(LabDevice::as_arm)
                        .is_some_and(RobotArm::silent_on_infeasible);
                    if silent {
                        // Command acknowledged, nothing moves, no time
                        // passes beyond a token planning cost.
                        self.clock.advance(0.01);
                        return Ok(());
                    }
                    return Err(LabError::Device(DeviceError::TrajectoryFault {
                        device: command.actor.clone(),
                        reason: format!("target {target} beyond reach {:.3} m", kin.reach),
                    }));
                }
            }
        }

        let device =
            self.devices
                .get_mut(&command.actor)
                .ok_or_else(|| LabError::UnknownDevice {
                    device: command.actor.clone(),
                })?;

        // Pre-execution physical context needed by the hazard rules.
        let from = device.as_arm().map(RobotArm::location);

        let latency = device.as_device().latency().action_latency(&command.action);
        device.as_device_mut().execute(&command.action)?;
        self.clock.advance(latency);

        // Imperfect arms land near, not at, their commanded target.
        if matches!(
            command.action,
            ActionKind::MoveToLocation { .. } | ActionKind::MoveHome | ActionKind::MoveToSleep
        ) {
            if let Some((noise, rng)) = self.arm_noise.get_mut(&command.actor) {
                if !noise.is_none() {
                    if let Some(LabDevice::Arm(arm)) = self.devices.get_mut(&command.actor) {
                        let achieved = noise.perturb(arm.location(), rng);
                        arm.set_location(achieved);
                    }
                }
            }
        }

        self.apply_cross_effects(command, from);
        Ok(())
    }

    /// Cross-device effects and hazard detection, applied after the actor
    /// executed successfully. `from` is the arm's pre-move tool position
    /// (for straight-line path hazards).
    fn apply_cross_effects(&mut self, command: &Command, from: Option<Vec3>) {
        let actor = &command.actor;
        match &command.action {
            ActionKind::MoveToLocation { .. } | ActionKind::MoveHome | ActionKind::MoveToSleep => {
                // Use the *achieved* location (noise may have shifted it
                // off the commanded target).
                if let Some(loc) = self.arm_location(actor) {
                    self.after_arm_move(actor, loc, from);
                }
            }
            ActionKind::MoveInsideDevice { device } => {
                // Entering through a closed door breaks the door (High).
                let closed = self.device_door_closed(device);
                if closed {
                    self.damage.push(DamageEvent::new(
                        actor.clone(),
                        DamageKind::EquipmentCollision {
                            equipment: device.clone(),
                        },
                        format!("{actor} crashed into {device}'s closed door"),
                    ));
                }
            }
            ActionKind::SetDoor { open: false } => {
                // Closing the door on an arm inside crushes arm and door.
                let arms_inside = self
                    .devices
                    .values()
                    .filter_map(LabDevice::as_arm)
                    .filter(|a| a.inside_of() == Some(actor));
                for arm in arms_inside {
                    self.damage.push(DamageEvent::new(
                        actor.clone(),
                        DamageKind::EquipmentCollision {
                            equipment: actor.clone(),
                        },
                        format!("{actor} door closed onto {}", arm.id()),
                    ));
                }
            }
            ActionKind::PickObject { object } => {
                self.physical_pick(actor, object);
            }
            ActionKind::PlaceObject { object, into } => {
                self.physical_place(actor, object, into.as_ref());
            }
            ActionKind::OpenGripper => {
                // Physically releases whatever was held, wherever we are.
                if let Some(obj) = self.physically_held.remove(actor) {
                    if let Some(loc) = self.arm_location(actor) {
                        self.set_vial_location(&obj, loc);
                        // Releasing mid-air above the deck drops the vial.
                        if loc.z > HELD_OBJECT_CLEARANCE_M + 0.05 {
                            self.damage.push(DamageEvent::new(
                                actor.clone(),
                                DamageKind::GlasswareBreak,
                                format!("{actor} released {obj} in mid-air; it fell and broke"),
                            ));
                        }
                    }
                }
            }
            ActionKind::DoseSolid { .. } | ActionKind::StartAction { .. } => {
                self.settle_dose(actor);
            }
            ActionKind::DoseLiquid { volume_ml, into } => {
                self.settle_liquid(actor, *volume_ml, into);
            }
            ActionKind::Transfer {
                from,
                to,
                substance,
                amount,
            } => {
                self.settle_transfer(from, to, *substance, *amount);
            }
            _ => {}
        }
    }

    fn arm_location(&self, arm: &DeviceId) -> Option<Vec3> {
        self.devices.get(arm)?.as_arm().map(RobotArm::location)
    }

    fn device_door_closed(&self, device: &DeviceId) -> bool {
        match self.devices.get(device) {
            Some(LabDevice::Dosing(d)) => !d.door_open(),
            Some(LabDevice::Centrifuge(c)) => {
                c.fetch_state().get_bool(&StateKey::DoorOpen) == Some(false)
            }
            _ => false,
        }
    }

    fn set_vial_location(&mut self, vial: &DeviceId, location: Vec3) {
        if let Some(LabDevice::Vial(v)) = self.devices.get_mut(vial) {
            v.set_location(location);
        }
    }

    /// Physical consequences of an arm arriving at `target` from `from`.
    fn after_arm_move(&mut self, arm: &DeviceId, target: Vec3, from: Option<Vec3>) {
        // A physically held object travels with the gripper.
        if let Some(obj) = self.physically_held.get(arm).cloned() {
            self.set_vial_location(&obj, target);
            if target.z <= HELD_OBJECT_CLEARANCE_M {
                self.damage.push(DamageEvent::new(
                    arm.clone(),
                    DamageKind::GlasswareBreak,
                    format!("held {obj} crashed into the platform at z={:.3}", target.z),
                ));
            }
        }
        // Bare-arm platform collision.
        if target.z <= ARM_CLEARANCE_M {
            self.damage.push(DamageEvent::new(
                arm.clone(),
                DamageKind::EnvironmentCollision {
                    obstacle: "platform".to_string(),
                },
                format!("{arm} gripper struck the platform at z={:.3}", target.z),
            ));
        }
        // Stationary-device collisions: the tool entering a footprint, or
        // the straight carry path from `from` to `target` slicing through
        // one (the footnote-2 silent-skip hazard). Vials are exempt — a
        // gripper intentionally envelops a vial when approaching it.
        let held = self.physically_held.get(arm);
        let hits = self
            .devices
            .iter()
            .filter(|(id, d)| *id != arm && Some(*id) != held && !matches!(d, LabDevice::Vial(_)))
            .filter(|(_, d)| {
                d.as_device().footprint().is_some_and(|fp| {
                    fp.contains_point(target)
                        || from.is_some_and(|f| {
                            rabit_geometry::collide::path_hits_aabb(f, target, &fp, 0.0)
                        })
                })
            });
        for (id, d) in hits {
            let kind = if matches!(d, LabDevice::Grid(_)) {
                DamageKind::EnvironmentCollision {
                    obstacle: id.to_string(),
                }
            } else {
                DamageKind::EquipmentCollision {
                    equipment: id.clone(),
                }
            };
            self.damage.push(DamageEvent::new(
                arm.clone(),
                kind,
                format!("{arm} drove its tool into {id}"),
            ));
        }
        // Arm-on-arm collision (Bug B): two tools too close. A sleeping
        // arm is parked but still solid — driving into it is a collision.
        let others = self
            .devices
            .values()
            .filter_map(LabDevice::as_arm)
            .filter(|a| a.id() != arm);
        for other in others {
            let loc = other.location();
            let other = other.id();
            if loc.distance(target) <= ARM_COLLISION_RADIUS_M {
                self.damage.push(DamageEvent::new(
                    arm.clone(),
                    DamageKind::ArmCollision {
                        other: other.clone(),
                    },
                    format!(
                        "{arm} collided with {other} ({:.3} m apart)",
                        loc.distance(target)
                    ),
                ));
            }
        }
    }

    /// Physical pick: succeeds only if the object is within grasp range.
    fn physical_pick(&mut self, arm: &DeviceId, object: &DeviceId) {
        let Some(arm_loc) = self.arm_location(arm) else {
            return;
        };
        let obj_loc = match self.devices.get(object) {
            Some(LabDevice::Vial(v)) => v.location(),
            _ => return,
        };
        if arm_loc.distance(obj_loc) <= GRASP_RADIUS_M {
            self.physically_held.insert(arm.clone(), object.clone());
            // Leaving a containing device and vacating any grid slot.
            for device in self.devices.values_mut() {
                match device {
                    LabDevice::Dosing(d) if d.contained() == Some(object) => {
                        d.remove_container();
                    }
                    LabDevice::Centrifuge(c) if c.contained() == Some(object) => {
                        c.remove_container();
                    }
                    LabDevice::Hotplate(h) if h.contained() == Some(object) => {
                        h.remove_container();
                    }
                    LabDevice::Thermoshaker(t) if t.contained() == Some(object) => {
                        t.remove_container();
                    }
                    LabDevice::Grid(g) => g.vacate_object(object),
                    _ => {}
                }
            }
        }
        // Otherwise: the gripper closed on air. No physical change; the
        // controller's belief (set by `RobotArm::execute`) now diverges
        // from reality — the undetectable Bug-C class.
    }

    /// Physical place: only has an effect if the arm really holds the
    /// object.
    fn physical_place(&mut self, arm: &DeviceId, object: &DeviceId, into: Option<&DeviceId>) {
        if self.physically_held.get(arm) != Some(object) {
            return; // placing air
        }
        self.physically_held.remove(arm);
        let arm_loc = self.arm_location(arm).unwrap_or(Vec3::ZERO);
        match into {
            Some(device_id) => {
                // Placing into an occupied device collides the two vials
                // (paper footnote 1: the old vial "collides with the new
                // vial in the subsequent iteration").
                let prior = match self.devices.get_mut(device_id) {
                    Some(LabDevice::Dosing(d)) => {
                        let p = d.contained().cloned();
                        d.insert_container(object.clone());
                        p
                    }
                    Some(LabDevice::Centrifuge(c)) => {
                        let p = c.contained().cloned();
                        c.insert_container(object.clone());
                        p
                    }
                    Some(LabDevice::Hotplate(h)) => {
                        let p = h.contained().cloned();
                        h.insert_container(object.clone());
                        p
                    }
                    Some(LabDevice::Thermoshaker(t)) => {
                        let p = t.contained().cloned();
                        t.insert_container(object.clone());
                        p
                    }
                    _ => None,
                };
                self.set_vial_location(object, arm_loc);
                if let Some(prior) = prior {
                    if &prior != object {
                        self.damage.push(DamageEvent::new(
                            arm.clone(),
                            DamageKind::EquipmentCollision { equipment: device_id.clone() },
                            format!(
                                "{object} placed into {device_id} collided with {prior} already inside"
                            ),
                        ));
                    }
                }
            }
            None => {
                self.set_vial_location(object, arm_loc);
                // Settle into a grid slot if one is at this position.
                for device in self.devices.values_mut() {
                    if let LabDevice::Grid(g) = device {
                        if g.settle_near(arm_loc, GRASP_RADIUS_M * 2.0, object) {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Solid dose settling: the dispensed amount lands in the vial inside
    /// the doser, or spills if no (or the wrong) vial is there. Dosing
    /// with the glass door open lets powder drift out of the chamber —
    /// part of the dispensed material is wasted (a Low-severity event).
    fn settle_dose(&mut self, doser: &DeviceId) {
        let (amount, contained, door_open) = match self.devices.get_mut(doser) {
            Some(LabDevice::Dosing(d)) => {
                (d.take_last_dose(), d.contained().cloned(), d.door_open())
            }
            _ => return,
        };
        if amount <= 0.0 {
            return;
        }
        let (delivered, drifted) = if door_open {
            (amount * 0.8, amount * 0.2)
        } else {
            (amount, 0.0)
        };
        if drifted > 0.0 {
            self.damage.push(DamageEvent::new(
                doser.clone(),
                DamageKind::Spill { amount: drifted },
                format!("{drifted:.2} mg drifted out of {doser}'s open door while dosing"),
            ));
        }
        match contained {
            Some(vial_id) => {
                let spilled = match self.devices.get_mut(&vial_id) {
                    Some(LabDevice::Vial(v)) => v.add_solid(delivered),
                    _ => delivered,
                };
                if spilled > 0.0 {
                    self.damage.push(DamageEvent::new(
                        doser.clone(),
                        DamageKind::Spill { amount: spilled },
                        format!("{spilled:.2} mg of solid overflowed {vial_id}"),
                    ));
                }
            }
            None => {
                self.damage.push(DamageEvent::new(
                    doser.clone(),
                    DamageKind::Spill { amount: delivered },
                    format!("{doser} dosed {delivered:.2} mg with no vial inside"),
                ));
            }
        }
    }

    /// Liquid dose settling: the pump dispenses into the named vial (its
    /// needle reaches wherever the experimenter parked the vial).
    fn settle_liquid(&mut self, pump: &DeviceId, _volume: f64, into: &DeviceId) {
        let volume = match self.devices.get_mut(pump) {
            Some(LabDevice::Pump(p)) => p.take_last_volume(),
            _ => return,
        };
        if volume <= 0.0 {
            return;
        }
        let spilled = match self.devices.get_mut(into) {
            Some(LabDevice::Vial(v)) => v.add_liquid(volume),
            _ => volume,
        };
        if spilled > 0.0 {
            self.damage.push(DamageEvent::new(
                pump.clone(),
                DamageKind::Spill { amount: spilled },
                format!("{spilled:.2} mL of liquid overflowed {into}"),
            ));
        }
    }

    /// Container-to-container transfer settling.
    fn settle_transfer(
        &mut self,
        from: &DeviceId,
        to: &DeviceId,
        substance: rabit_devices::Substance,
        amount: f64,
    ) {
        use rabit_devices::Substance;
        let moved = match self.devices.get_mut(from) {
            Some(LabDevice::Vial(v)) => match substance {
                Substance::Solid => v.take_solid(amount),
                Substance::Liquid => v.take_liquid(amount),
            },
            _ => 0.0,
        };
        if moved <= 0.0 {
            return;
        }
        let spilled = match self.devices.get_mut(to) {
            Some(LabDevice::Vial(v)) => match substance {
                Substance::Solid => v.add_solid(moved),
                Substance::Liquid => v.add_liquid(moved),
            },
            _ => moved,
        };
        if spilled > 0.0 {
            self.damage.push(DamageEvent::new(
                from.clone(),
                DamageKind::Spill { amount: spilled },
                format!("{spilled:.2} {substance} overflowed {to} during transfer"),
            ));
        }
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damage::Severity;
    use rabit_geometry::Aabb;

    fn grid() -> Grid {
        Grid::new(
            "grid",
            Aabb::new(Vec3::new(0.45, -0.05, 0.0), Vec3::new(0.65, 0.1, 0.1)),
            vec![("NW".to_string(), Vec3::new(0.537, 0.018, 0.12))],
        )
    }

    fn small_lab() -> Lab {
        let mut lab = Lab::new()
            .with_device(RobotArm::new(
                "viperx",
                Vec3::new(0.3, 0.0, 0.3),
                Vec3::new(0.1, -0.3, 0.2),
            ))
            .with_device(Vial::new("vial", Vec3::new(0.537, 0.018, 0.12)))
            .with_device(DosingDevice::new(
                "doser",
                Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
            ))
            .with_device(grid());
        lab.device_mut(&"grid".into())
            .and_then(|d| match d {
                LabDevice::Grid(g) => Some(g),
                _ => None,
            })
            .unwrap()
            .occupy("NW", DeviceId::new("vial"))
            .unwrap();
        lab
    }

    fn mv(target: Vec3) -> Command {
        Command::new("viperx", ActionKind::MoveToLocation { target })
    }

    #[test]
    fn clock_accumulates_latencies() {
        let mut lab = small_lab();
        let t0 = lab.clock().now_s();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.2))).unwrap();
        assert!(lab.clock().now_s() > t0, "motion must take time");
        let t1 = lab.clock().now_s();
        let _ = lab.fetch_state();
        assert!(lab.clock().now_s() > t1, "status queries take time");
    }

    /// A snapshot built from every device's owned status command.
    fn owned_snapshot(lab: &Lab) -> LabState {
        lab.devices
            .iter()
            .map(|(id, d)| (id.clone(), d.as_device().fetch_state()))
            .collect()
    }

    #[test]
    fn fetch_state_covers_all_devices() {
        let mut lab = small_lab();
        let s = lab.fetch_state();
        assert_eq!(s.len(), 4);
        assert!(s.device(&"viperx".into()).is_some());
        assert!(s.device(&"grid".into()).is_some());

        // Each refill in place equals a snapshot built afresh.
        let commands = [
            Command::new("doser", ActionKind::SetDoor { open: true }),
            mv(Vec3::new(0.537, 0.018, 0.12)),
            Command::new(
                "viperx",
                ActionKind::PickObject {
                    object: "vial".into(),
                },
            ),
            mv(Vec3::new(0.2, 0.45, 0.35)),
            Command::new("viperx", ActionKind::MoveToSleep),
            Command::new("doser", ActionKind::SetDoor { open: false }),
        ];
        for cmd in &commands {
            lab.apply(cmd).unwrap();
            let fresh = owned_snapshot(&lab);
            assert_eq!(lab.fetch_state(), &fresh, "after {cmd}");
        }
        assert_eq!(
            lab.fetch_state()
                .get_id(&"viperx".into(), &StateKey::Holding),
            Some(Some(&DeviceId::new("vial")))
        );

        // A device added later shows up in the next fetch.
        lab.add_device(Hotplate::new(
            "hotplate",
            Aabb::new(Vec3::new(-0.4, -0.4, 0.0), Vec3::new(-0.2, -0.2, 0.1)),
        ));
        let s = lab.fetch_state();
        assert_eq!(s.len(), 5);
        assert!(s.device(&"hotplate".into()).is_some());
        let fresh = owned_snapshot(&lab);
        assert_eq!(lab.fetch_state(), &fresh);
    }

    #[test]
    fn pick_within_range_is_physical() {
        let mut lab = small_lab();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        assert!(lab.physically_holds(&"viperx".into(), &"vial".into()));
        // The grid slot was vacated.
        if let Some(LabDevice::Grid(g)) = lab.device(&"grid".into()) {
            assert!(g.occupant("NW").is_none());
        } else {
            panic!("grid missing");
        }
        // The held vial travels with the arm (0.35 clears the doser box).
        lab.apply(&mv(Vec3::new(0.2, 0.45, 0.35))).unwrap();
        let vial_loc = lab
            .device(&"vial".into())
            .unwrap()
            .as_vial()
            .unwrap()
            .location();
        assert_eq!(vial_loc, Vec3::new(0.2, 0.45, 0.35));
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn pick_out_of_range_closes_on_air() {
        let mut lab = small_lab();
        // Arm stays at home, far from the vial.
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        assert!(!lab.physically_holds(&"viperx".into(), &"vial".into()));
        // Belief says holding (no pressure sensor) — the Bug-C divergence.
        let believed = lab
            .device(&"viperx".into())
            .unwrap()
            .as_arm()
            .unwrap()
            .holding()
            .is_some();
        assert!(believed);
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn entering_closed_door_breaks_equipment() {
        let mut lab = small_lab();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        ))
        .unwrap();
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert_eq!(dmg[0].severity, Severity::High);
        assert!(dmg[0].description.contains("closed door"));
    }

    #[test]
    fn entering_open_door_is_safe() {
        let mut lab = small_lab();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        ))
        .unwrap();
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn closing_door_on_arm_inside() {
        let mut lab = small_lab();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        ))
        .unwrap();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: false }))
            .unwrap();
        assert_eq!(lab.damage_log().len(), 1);
        assert_eq!(lab.damage_log()[0].severity, Severity::High);
    }

    #[test]
    fn bug_d_held_vial_crashes_low() {
        let mut lab = small_lab();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        // z = 0.08: safe for the bare arm, fatal for the held vial.
        lab.apply(&mv(Vec3::new(0.3, 0.2, 0.08))).unwrap();
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert_eq!(dmg[0].severity, Severity::MediumLow);
        assert!(matches!(dmg[0].kind, DamageKind::GlasswareBreak));
    }

    #[test]
    fn bare_arm_platform_crash() {
        let mut lab = small_lab();
        lab.apply(&mv(Vec3::new(0.3, 0.2, 0.04))).unwrap();
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert_eq!(dmg[0].severity, Severity::MediumHigh);
    }

    #[test]
    fn moving_into_equipment_footprint() {
        let mut lab = small_lab();
        lab.apply(&mv(Vec3::new(0.18, 0.45, 0.15))).unwrap(); // inside doser
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert_eq!(dmg[0].severity, Severity::High);
        // Into the grid: Medium-High.
        let mut lab2 = small_lab();
        lab2.apply(&mv(Vec3::new(0.5, 0.0, 0.05))).unwrap();
        assert!(lab2
            .damage_log()
            .iter()
            .any(|d| matches!(&d.kind, DamageKind::EnvironmentCollision { obstacle } if obstacle == "grid")));
    }

    #[test]
    fn arm_arm_collision_detected() {
        let mut lab = small_lab();
        lab.add_device(RobotArm::new(
            "ned2",
            Vec3::new(0.6, 0.0, 0.3),
            Vec3::new(0.9, 0.0, 0.2),
        ));
        // Ned2 home is 0.3 m from ViperX home — safe. Move ViperX close.
        lab.apply(&mv(Vec3::new(0.55, 0.0, 0.32))).unwrap();
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert!(
            matches!(&dmg[0].kind, DamageKind::ArmCollision { other } if other.as_str() == "ned2")
        );
        // A sleeping arm is parked out of the way: same target, no event.
        let mut lab2 = small_lab();
        lab2.add_device(RobotArm::new(
            "ned2",
            Vec3::new(0.6, 0.0, 0.3),
            Vec3::new(0.9, 0.0, 0.2),
        ));
        lab2.apply(&Command::new("ned2", ActionKind::MoveToSleep))
            .unwrap();
        lab2.apply(&mv(Vec3::new(0.55, 0.0, 0.32))).unwrap();
        assert!(lab2.damage_log().is_empty());
    }

    #[test]
    fn dose_lands_in_contained_vial() {
        let mut lab = small_lab();
        // Put the vial inside the doser.
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        lab.apply(&mv(Vec3::new(0.18, 0.45, 0.35))).unwrap(); // above doser
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("doser".into()),
            },
        ))
        .unwrap();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: false }))
            .unwrap();
        lab.apply(&Command::new(
            "doser",
            ActionKind::DoseSolid {
                amount_mg: 5.0,
                into: "vial".into(),
            },
        ))
        .unwrap();
        let v = lab.device(&"vial".into()).unwrap().as_vial().unwrap();
        assert_eq!(v.solid_mg(), 5.0);
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn dose_with_no_vial_spills() {
        let mut lab = small_lab();
        lab.apply(&Command::new(
            "doser",
            ActionKind::DoseSolid {
                amount_mg: 5.0,
                into: "vial".into(),
            },
        ))
        .unwrap();
        let dmg = lab.damage_log();
        assert_eq!(dmg.len(), 1);
        assert_eq!(dmg[0].severity, Severity::Low);
        assert!(dmg[0].description.contains("no vial inside"));
    }

    #[test]
    fn overdose_spills_overflow() {
        let mut lab = small_lab();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        lab.apply(&mv(Vec3::new(0.18, 0.45, 0.35))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("doser".into()),
            },
        ))
        .unwrap();
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: false }))
            .unwrap();
        lab.apply(&Command::new(
            "doser",
            ActionKind::DoseSolid {
                amount_mg: 14.0,
                into: "vial".into(),
            },
        ))
        .unwrap();
        assert!(lab.damage_log().iter().any(
            |d| matches!(d.kind, DamageKind::Spill { amount } if (amount - 4.0).abs() < 1e-9)
        ));
        // Dosing with the door open also wastes material (drift).
        let mut lab2 = small_lab();
        lab2.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        lab2.apply(&Command::new(
            "doser",
            ActionKind::DoseSolid {
                amount_mg: 5.0,
                into: "vial".into(),
            },
        ))
        .unwrap();
        assert!(lab2
            .damage_log()
            .iter()
            .any(|d| d.description.contains("drifted out")));
    }

    #[test]
    fn placing_into_occupied_doser_collides_vials() {
        let mut lab = small_lab();
        lab.add_device(Vial::new("vial2", Vec3::new(0.3, 0.0, 0.3)));
        // Pre-load vial2 into the doser.
        if let Some(LabDevice::Dosing(d)) = lab.device_mut(&"doser".into()) {
            d.insert_container(DeviceId::new("vial2"));
        }
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        lab.apply(&mv(Vec3::new(0.18, 0.45, 0.35))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("doser".into()),
            },
        ))
        .unwrap();
        assert!(
            lab.damage_log()
                .iter()
                .any(|d| d.severity == Severity::High
                    && d.description.contains("collided with vial2"))
        );
    }

    #[test]
    fn infeasible_moves_split_by_arm_failure_mode() {
        // ViperX silently skips; Ned2 raises.
        let mut lab = Lab::new()
            .with_device(
                RobotArm::new("viperx", Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, 0.0, 0.2))
                    .with_silent_on_infeasible(true),
            )
            .with_device(RobotArm::new(
                "ned2",
                Vec3::new(0.6, 0.0, 0.3),
                Vec3::new(0.9, 0.0, 0.2),
            ));
        lab.set_arm_kinematics("viperx", Vec3::ZERO, 0.85);
        lab.set_arm_kinematics("ned2", Vec3::new(0.8, 0.0, 0.0), 0.6);
        let far = Vec3::new(3.0, 3.0, 3.0);
        // ViperX: Ok, but nothing moved.
        lab.apply(&Command::new(
            "viperx",
            ActionKind::MoveToLocation { target: far },
        ))
        .unwrap();
        let vx = lab.device(&"viperx".into()).unwrap().as_arm().unwrap();
        assert_eq!(vx.location(), Vec3::new(0.3, 0.0, 0.3), "silently skipped");
        // Ned2: hard error.
        let err = lab
            .apply(&Command::new(
                "ned2",
                ActionKind::MoveToLocation { target: far },
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            LabError::Device(DeviceError::TrajectoryFault { .. })
        ));
    }

    #[test]
    fn placing_at_grid_slot_reoccupies_it() {
        let mut lab = small_lab();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        lab.apply(&mv(Vec3::new(0.2, 0.45, 0.35))).unwrap();
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.12))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: None,
            },
        ))
        .unwrap();
        if let Some(LabDevice::Grid(g)) = lab.device(&"grid".into()) {
            assert_eq!(g.occupant("NW").unwrap().as_str(), "vial");
        } else {
            panic!("grid missing");
        }
        assert!(!lab.physically_holds(&"viperx".into(), &"vial".into()));
    }

    #[test]
    fn arm_noise_perturbs_achieved_positions_deterministically() {
        use rabit_geometry::noise::PositionNoise;
        let run = |sigma: f64, seed: u64| {
            let mut lab = small_lab();
            lab.set_arm_noise("viperx", PositionNoise::gaussian(sigma), seed);
            let target = Vec3::new(0.537, 0.018, 0.3);
            lab.apply(&mv(target)).unwrap();
            lab.device(&"viperx".into())
                .unwrap()
                .as_arm()
                .unwrap()
                .location()
                .distance(target)
        };
        // Perfect arm: lands exactly.
        assert_eq!(run(0.0, 1), 0.0);
        // Testbed arm: lands near, not at, the target — deterministically.
        let e1 = run(0.013, 7);
        assert!(e1 > 0.0 && e1 < 0.1, "error {e1}");
        assert_eq!(run(0.013, 7), e1, "same seed, same landing");
        assert_ne!(run(0.013, 8), e1, "different seed, different landing");
    }

    #[test]
    fn gross_imprecision_breaks_grasps() {
        use rabit_geometry::noise::PositionNoise;
        // With repeatability far worse than the grasp radius, the gripper
        // closes on air: the physical failure precision buys away.
        let mut lab = small_lab();
        lab.set_arm_noise("viperx", PositionNoise::gaussian(0.2), 3);
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.18))).unwrap();
        lab.apply(&Command::new(
            "viperx",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .unwrap();
        assert!(
            !lab.physically_holds(&"viperx".into(), &"vial".into()),
            "a 20 cm-sigma arm cannot reliably grasp a vial"
        );
    }

    #[test]
    fn unknown_device_rejected() {
        let mut lab = small_lab();
        let err = lab
            .apply(&Command::new("ghost", ActionKind::MoveHome))
            .unwrap_err();
        assert!(matches!(err, LabError::UnknownDevice { .. }));
        assert!(err.to_string().contains("ghost"));
        // LabError is a real error type: sources chain through to the
        // wrapped firmware error.
        use std::error::Error;
        assert!(err.source().is_none());
        let wrapped = LabError::from(DeviceError::UnsupportedAction {
            device: DeviceId::new("vial"),
            action: "MoveHome",
        });
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn armed_lab_drops_and_duplicates_commands() {
        use crate::faults::{FaultKind, FaultPlan, FaultSchedule};
        // Drop the first door command: acknowledged, door still closed.
        let mut lab = small_lab();
        lab.arm_faults(
            FaultPlan::seeded(3)
                .with_on(
                    "doser",
                    FaultKind::DropCommand,
                    FaultSchedule::AtSteps(vec![0]),
                )
                .session(),
        );
        assert!(lab.has_fault_session());
        lab.apply(&Command::new("doser", ActionKind::SetDoor { open: true }))
            .unwrap();
        if let Some(LabDevice::Dosing(d)) = lab.device(&"doser".into()) {
            assert!(!d.door_open(), "dropped command never reached the device");
        } else {
            panic!("doser missing");
        }
        assert_eq!(lab.fault_stats().dropped, 1);
        // Duplicate a solid dose: twice the powder lands.
        let mut lab2 = small_lab();
        if let Some(LabDevice::Dosing(d)) = lab2.device_mut(&"doser".into()) {
            d.insert_container(DeviceId::new("vial"));
        }
        lab2.arm_faults(
            FaultPlan::seeded(3)
                .with_on(
                    "doser",
                    FaultKind::DuplicateCommand,
                    FaultSchedule::AtSteps(vec![0]),
                )
                .session(),
        );
        lab2.apply(&Command::new(
            "doser",
            ActionKind::DoseSolid {
                amount_mg: 2.0,
                into: "vial".into(),
            },
        ))
        .unwrap();
        let v = lab2.device(&"vial".into()).unwrap().as_vial().unwrap();
        assert_eq!(v.solid_mg(), 4.0, "the ghost repeat dosed again");
        assert_eq!(lab2.fault_stats().duplicated, 1);
    }

    #[test]
    fn armed_lab_crash_window_rejects_then_recovers() {
        use crate::faults::{FaultKind, FaultPlan, FaultSchedule};
        let mut lab = small_lab();
        lab.arm_faults(
            FaultPlan::seeded(3)
                .with_on(
                    "doser",
                    FaultKind::DeviceCrash { downtime_s: 5.0 },
                    FaultSchedule::AtSteps(vec![0]),
                )
                .session(),
        );
        let open = Command::new("doser", ActionKind::SetDoor { open: true });
        let err = lab.apply(&open).unwrap_err();
        assert!(matches!(err, LabError::DeviceCrashed { .. }));
        // Still inside the window: rejected again.
        assert!(lab.apply(&open).is_err());
        // Wait out the downtime on the virtual clock: recovered.
        lab.advance_clock(5.0);
        lab.apply(&open).unwrap();
        assert_eq!(lab.fault_stats().crashes, 1);
        assert!(lab.fault_stats().crash_rejections >= 1);
    }

    #[test]
    fn armed_lab_latency_spike_costs_time() {
        use crate::faults::{FaultKind, FaultPlan, FaultSchedule};
        let baseline = {
            let mut lab = small_lab();
            lab.apply(&mv(Vec3::new(0.537, 0.018, 0.2))).unwrap();
            lab.clock().now_s()
        };
        let mut lab = small_lab();
        lab.arm_faults(
            FaultPlan::seeded(3)
                .with(
                    FaultKind::LatencySpike { seconds: 30.0 },
                    FaultSchedule::AtSteps(vec![0]),
                )
                .session(),
        );
        lab.apply(&mv(Vec3::new(0.537, 0.018, 0.2))).unwrap();
        let spiked = lab.clock().now_s();
        assert!(
            (spiked - baseline - 30.0).abs() < 1e-9,
            "spike adds exactly its latency: {spiked} vs {baseline}"
        );
        assert_eq!(lab.fault_stats().latency_spikes, 1);
    }
}

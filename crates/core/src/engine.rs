//! The RABIT engine: the Fig. 2 execution algorithm.

use crate::alert::{Alert, StopPolicy};
use crate::builder::RabitBuilder;
use crate::counters::RunCounters;
use crate::faults::{FaultPlan, RecoveryCounters, RecoveryPolicy};
use crate::lab::Lab;
use crate::trajcheck::{TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{ActionKind, Command, DeviceId, LabState};
use rabit_rulebase::{transition, DeviceCatalog, Rulebase, RulebaseSnapshot};
use std::collections::BTreeSet;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct RabitConfig {
    /// Numeric tolerance for the `S_actual ≠ S_expected` comparison
    /// (sensor jitter below this never raises a malfunction alert).
    pub state_tolerance: f64,
    /// What to do on alert.
    pub stop_policy: StopPolicy,
    /// How the engine treats *transient* alerts (device faults and
    /// malfunctions): alert immediately (the paper's behaviour, and the
    /// default), retry with backoff, retry then safe-stop, or
    /// quarantine the device and continue degraded. Genuine rule
    /// violations are never retried.
    pub recovery: RecoveryPolicy,
}

impl Default for RabitConfig {
    fn default() -> Self {
        RabitConfig {
            state_tolerance: 1e-6,
            stop_policy: StopPolicy::StopImmediately,
            recovery: RecoveryPolicy::AlertImmediately,
        }
    }
}

/// How one command fared through [`Rabit::step`], beyond "no alert".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Executed and verified on the first attempt.
    Executed,
    /// Executed and verified after recovery retries.
    Recovered {
        /// Retry attempts it took (≥ 1).
        retries: u32,
    },
    /// Not executed: the addressed device was already quarantined and
    /// the run continues degraded.
    SkippedQuarantined,
    /// Not executed: retries exhausted, the device was quarantined just
    /// now, and the run continues degraded.
    Quarantined,
}

impl StepOutcome {
    /// Whether the command actually executed on its device.
    pub fn executed(&self) -> bool {
        matches!(self, StepOutcome::Executed | StepOutcome::Recovered { .. })
    }
}

/// The RABIT middleware: intercepts each command, validates it against
/// the rulebase (and optionally an attached trajectory simulator),
/// executes it, and verifies the resulting device state.
///
/// # Example
///
/// ```
/// use rabit_core::{Lab, Rabit, RabitConfig};
/// use rabit_devices::{ActionKind, Command, DosingDevice, RobotArm};
/// use rabit_geometry::{Aabb, Vec3};
/// use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase};
/// use rabit_devices::DeviceType;
///
/// let mut lab = Lab::new()
///     .with_device(RobotArm::new("arm", Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, 0.0, 0.2)))
///     .with_device(DosingDevice::new("doser", Aabb::new(Vec3::ZERO, Vec3::new(0.2, 0.2, 0.3))));
/// let catalog = DeviceCatalog::new()
///     .with(DeviceMeta::new("arm", DeviceType::RobotArm))
///     .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door());
/// let mut rabit = Rabit::new(Rulebase::standard(), catalog, RabitConfig::default());
/// rabit.initialize(&mut lab);
///
/// // Entering the doser with its door closed: stopped before execution.
/// let cmd = Command::new("arm", ActionKind::MoveInsideDevice { device: "doser".into() });
/// let alert = rabit.step(&mut lab, &cmd).unwrap_err();
/// assert_eq!(alert.headline(), "Invalid Command!");
/// assert!(lab.damage_log().is_empty()); // nothing broke
/// ```
pub struct Rabit {
    rulebase: RulebaseSnapshot,
    catalog: DeviceCatalog,
    config: RabitConfig,
    validator: Option<Box<dyn TrajectoryValidator>>,
    current: LabState,
    overhead_s: f64,
    fault_plan: FaultPlan,
    quarantined: BTreeSet<DeviceId>,
    recovery_totals: RecoveryCounters,
}

impl Rabit {
    /// Creates an engine from a rulebase, catalog, and configuration.
    ///
    /// **Deprecated-by-convention:** prefer [`Rabit::builder`], which
    /// assembles the engine in one expression — rulebase, catalog,
    /// config, validator, and fault plan — instead of `new` +
    /// [`Rabit::with_validator`] + [`Rabit::config_mut`] mutation. This
    /// constructor stays as a thin shim so existing call sites compile.
    /// Accepts either an owned [`Rulebase`] (pinned at
    /// [`rabit_rulebase::STATIC_EPOCH`]) or an epoch-stamped
    /// [`RulebaseSnapshot`] published by a live rule store.
    pub fn new(
        rulebase: impl Into<RulebaseSnapshot>,
        catalog: DeviceCatalog,
        config: RabitConfig,
    ) -> Self {
        Rabit {
            rulebase: rulebase.into(),
            catalog,
            config,
            validator: None,
            current: LabState::new(),
            overhead_s: 0.0,
            fault_plan: FaultPlan::none(),
            quarantined: BTreeSet::new(),
            recovery_totals: RecoveryCounters::default(),
        }
    }

    /// Starts a [`RabitBuilder`]: the one-expression way to assemble an
    /// engine (rulebase → catalog → config → validator → fault plan).
    pub fn builder() -> RabitBuilder {
        RabitBuilder::new()
    }

    /// Attaches an Extended Simulator as trajectory validator
    /// (`SimAvailable` becomes true).
    pub fn with_validator(mut self, validator: Box<dyn TrajectoryValidator>) -> Self {
        self.validator = Some(validator);
        self
    }

    /// Carries a fault plan: [`Rabit::initialize`] arms it on the lab
    /// (unless the lab already has a session, e.g. from
    /// [`Substrate::instantiate_with`]).
    ///
    /// [`Substrate::instantiate_with`]: crate::Substrate::instantiate_with
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Detaches the trajectory validator.
    pub fn detach_validator(&mut self) -> Option<Box<dyn TrajectoryValidator>> {
        self.validator.take()
    }

    /// A counters snapshot: the validator's tallies, this engine's
    /// recovery totals over every run, and the faults `lab` has injected
    /// so far. A run's counters are the delta between two snapshots, the
    /// first taken before [`Rabit::initialize`].
    pub fn counters(&self, lab: &Lab) -> RunCounters {
        let mut counters = RunCounters::of_lab(lab);
        counters.recovery = self.recovery_totals;
        if let Some(v) = &self.validator {
            counters.cache_hits = v.cache_hits();
            counters.cache_misses = v.cache_misses();
            counters.narrow_checks = v.narrow_checks_performed();
            counters.sweep = v.sweep_stats();
        }
        counters
    }

    /// The rulebase (for inspection).
    pub fn rulebase(&self) -> &Rulebase {
        &self.rulebase
    }

    /// The epoch-stamped snapshot this engine validates against.
    pub fn rulebase_snapshot(&self) -> &RulebaseSnapshot {
        &self.rulebase
    }

    /// The rulebase epoch this engine validates against. Caches keyed on
    /// rule identity (the verdict cache) compose this into their keys.
    pub fn rulebase_epoch(&self) -> u64 {
        self.rulebase.epoch()
    }

    /// Mutable rulebase access (the evaluation adds extension rules
    /// between configurations). Copy-on-write: forks the shared snapshot
    /// if other holders exist and bumps the local epoch, so the attached
    /// validator's verdict cache treats the edited rulebase as a new
    /// generation.
    pub fn rulebase_mut(&mut self) -> &mut Rulebase {
        self.rulebase.make_mut()
    }

    /// The engine configuration.
    pub fn config(&self) -> &RabitConfig {
        &self.config
    }

    /// Mutable configuration access (fault runners set
    /// [`RabitConfig::recovery`] before starting).
    pub fn config_mut(&mut self) -> &mut RabitConfig {
        &mut self.config
    }

    /// The device catalog.
    pub fn catalog(&self) -> &DeviceCatalog {
        &self.catalog
    }

    /// RABIT's accumulated virtual overhead so far (seconds).
    pub fn overhead_s(&self) -> f64 {
        self.overhead_s
    }

    /// The engine's view of the current lab state (`S_current`).
    pub fn current_state(&self) -> &LabState {
        &self.current
    }

    /// The fault plan this engine carries (empty unless set via
    /// [`Rabit::with_fault_plan`] or the builder).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether a device has been quarantined by the
    /// [`RecoveryPolicy::Quarantine`] policy.
    pub fn is_quarantined(&self, device: &DeviceId) -> bool {
        self.quarantined.contains(device)
    }

    /// The quarantined devices, in order.
    pub fn quarantined_devices(&self) -> impl Iterator<Item = &DeviceId> {
        self.quarantined.iter()
    }

    /// Fig. 2, Lines 1-3: acquire `S_initial` and set `S_current`.
    /// If the engine carries a fault plan and the lab has no session
    /// armed yet, the plan is armed here.
    pub fn initialize(&mut self, lab: &mut Lab) -> &LabState {
        if !self.fault_plan.is_empty() && !lab.has_fault_session() {
            lab.arm_faults(self.fault_plan.session());
        }
        let before = lab.clock().now_s();
        // Sensed variables overwrite beliefs; configured beliefs (see
        // [`Rabit::believe`]) survive initialization. Nothing has
        // executed yet, so a sensed value that contradicts a belief is
        // not a malfunction and the findings are dropped.
        let _ = self
            .current
            .commit_reported(lab.fetch_state(), self.config.state_tolerance);
        self.overhead_s += lab.clock().now_s() - before;
        &self.current
    }

    /// Records a configured belief about an unsensed state variable
    /// (e.g. "the vial in slot A1 starts empty and capped", "a container
    /// already sits in the hotplate"). The paper's JSON configuration
    /// carries such initial facts; devices without sensors can never
    /// report them.
    pub fn believe(
        &mut self,
        device: &rabit_devices::DeviceId,
        key: rabit_devices::StateKey,
        value: impl Into<rabit_devices::Value>,
    ) {
        self.current.set(device, key, value);
    }

    /// Fig. 2, Lines 5-16: process one command, with the configured
    /// [`RecoveryPolicy`] deciding what happens on *transient* failures
    /// (device faults and malfunctions). Rule violations and trajectory
    /// collisions — the bugs RABIT exists to stop — are never retried.
    ///
    /// # Errors
    ///
    /// Returns the [`Alert`] that stopped the experiment:
    /// * [`Alert::InvalidCommand`] if a rulebase precondition fails — the
    ///   command is **not** executed;
    /// * [`Alert::InvalidTrajectory`] if the attached simulator predicts a
    ///   collision — the command is **not** executed;
    /// * [`Alert::DeviceFault`] if the device itself refuses;
    /// * [`Alert::DeviceMalfunction`] if the post-state does not match the
    ///   expectation.
    ///
    /// The last two surface only after the recovery policy's retries are
    /// exhausted; under [`RecoveryPolicy::Quarantine`] they never
    /// surface at all — the device is quarantined and `step` returns
    /// [`StepOutcome::Quarantined`] instead.
    // Alerts are the cold path: a large Err variant costs nothing on the
    // hot (Ok) path, and boxing it would complicate every caller.
    #[allow(clippy::result_large_err)]
    pub fn step(&mut self, lab: &mut Lab, command: &Command) -> Result<StepOutcome, Alert> {
        // Degraded continuation: commands to a quarantined device are
        // skipped, not executed and not alerted on.
        if self.quarantined.contains(&command.actor) {
            self.recovery_totals.skipped_quarantined += 1;
            return Ok(StepOutcome::SkippedQuarantined);
        }

        // Lines 6-7: precondition check, reporting every violated rule.
        let violations = self
            .rulebase
            .check(command, &self.current, &self.catalog)
            .into_vec();
        if !violations.is_empty() {
            self.stop(lab);
            return Err(Alert::InvalidCommand {
                command: command.clone(),
                violations,
            });
        }

        // Lines 8-10: trajectory check for robot commands, if a simulator
        // is available.
        if command.action.is_robot_motion() {
            if let Some(validator) = &mut self.validator {
                // Tell the validator which rulebase generation governs
                // this check, so epoch-keyed verdict caches can never
                // serve an entry computed under different rules.
                validator.note_rulebase_epoch(self.rulebase.epoch());
                let verdict = validator.validate(command, &self.current);
                let cost = validator.check_latency_s();
                lab.advance_clock(cost);
                self.overhead_s += cost;
                if let TrajectoryVerdict::Collision(collision) = verdict {
                    self.stop(lab);
                    return Err(Alert::InvalidTrajectory {
                        command: command.clone(),
                        collision,
                    });
                }
            }
        }

        // Lines 11-16, wrapped in the recovery loop. Each attempt
        // recomputes S_expected from the (possibly rolled-forward)
        // current state, so a retry after a dropped command expects the
        // right thing.
        let retry = self.config.recovery.retry();
        let max_attempts = retry.map_or(1, |r| r.max_attempts.max(1));
        let mut retries = 0u32;
        loop {
            match self.execute_and_verify(lab, command) {
                Ok(()) => {
                    return Ok(if retries == 0 {
                        StepOutcome::Executed
                    } else {
                        self.recovery_totals.recovered += 1;
                        StepOutcome::Recovered { retries }
                    });
                }
                Err(alert) => {
                    if retries + 1 < max_attempts {
                        // Back off on the virtual clock, then retry. The
                        // backoff is RABIT overhead: the lab would have
                        // been idle without it.
                        let backoff = retry.expect("retries imply a policy").backoff_s(retries);
                        lab.advance_clock(backoff);
                        self.overhead_s += backoff;
                        self.recovery_totals.retries += 1;
                        retries += 1;
                        continue;
                    }
                    // Exhausted (or never retryable): escalate per policy.
                    return match self.config.recovery {
                        RecoveryPolicy::AlertImmediately | RecoveryPolicy::Retry(_) => {
                            self.stop(lab);
                            Err(alert)
                        }
                        RecoveryPolicy::RetryThenSafeStop(_) => {
                            self.recovery_totals.safe_stops += 1;
                            self.safe_stop(lab);
                            Err(alert)
                        }
                        RecoveryPolicy::Quarantine(_) => {
                            self.quarantined.insert(command.actor.clone());
                            self.recovery_totals.quarantined += 1;
                            Ok(StepOutcome::Quarantined)
                        }
                    };
                }
            }
        }
    }

    /// One execution attempt: S_expected, execute, fetch S_actual,
    /// compare, commit (Fig. 2, Lines 11-16). Escalation (stop,
    /// safe-stop, quarantine) is the caller's job.
    #[allow(clippy::result_large_err)]
    fn execute_and_verify(&mut self, lab: &mut Lab, command: &Command) -> Result<(), Alert> {
        // Line 11: S_expected, as the postconditions' writes to S_current.
        let writes = transition::expected_state(&self.catalog, &self.current, command);

        // Line 12: execute. A refused command leaves S_current untouched.
        if let Err(error) = lab.apply(command) {
            return Err(Alert::DeviceFault {
                command: command.clone(),
                error,
            });
        }
        self.current.extend(writes);

        // Lines 13-16: fetch S_actual, compare, commit, in one pass over
        // the lab's snapshot. Devices only report the variables they can
        // sense; believed variables (vial contents, containment) keep
        // the expectation. The commit happens whether or not the compare
        // finds a malfunction, so a retry starts from what was sensed.
        let before = lab.clock().now_s();
        let diffs = self
            .current
            .commit_reported(lab.fetch_state(), self.config.state_tolerance);
        self.overhead_s += lab.clock().now_s() - before;
        if !diffs.is_empty() {
            return Err(Alert::DeviceMalfunction {
                command: command.clone(),
                diffs,
            });
        }
        Ok(())
    }

    /// `alertAndStop`'s stop side: under [`StopPolicy::FailSafe`], park
    /// every arm at its sleep position so nothing is left dangling.
    fn stop(&mut self, lab: &mut Lab) {
        if self.config.stop_policy == StopPolicy::FailSafe {
            self.safe_stop(lab);
        }
    }

    /// Parks every arm at its sleep position, unconditionally (the
    /// timeout + safe-stop recovery escalation).
    fn safe_stop(&mut self, lab: &mut Lab) {
        let arms: Vec<DeviceId> = self.catalog.robot_arms().map(|m| m.id.clone()).collect();
        for arm in arms {
            let _ = lab.apply(&Command::new(arm, ActionKind::MoveToSleep));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::{Device, DeviceType, DosingDevice, Malfunction, RobotArm, StateKey, Vial};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::DeviceMeta;

    fn lab() -> Lab {
        Lab::new()
            .with_device(RobotArm::new(
                "arm",
                Vec3::new(0.3, 0.0, 0.3),
                Vec3::new(0.1, -0.3, 0.2),
            ))
            .with_device(DosingDevice::new(
                "doser",
                Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
            ))
            .with_device(Vial::new("vial", Vec3::new(0.537, 0.018, 0.12)))
    }

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("arm", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }

    fn rabit() -> Rabit {
        Rabit::new(Rulebase::standard(), catalog(), RabitConfig::default())
    }

    #[test]
    fn initialize_snapshots_all_devices() {
        let mut lab = lab();
        let mut r = rabit();
        let s = r.initialize(&mut lab);
        assert_eq!(s.len(), 3);
        assert!(r.overhead_s() > 0.0, "status fetches cost time");
    }

    #[test]
    fn invalid_command_stops_before_execution() {
        let mut lab = lab();
        let mut r = rabit();
        r.initialize(&mut lab);
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        let alert = r.step(&mut lab, &cmd).unwrap_err();
        assert!(matches!(alert, Alert::InvalidCommand { .. }));
        // Nothing executed → no damage, arm still outside.
        assert!(lab.damage_log().is_empty());
        let arm = lab.device(&"arm".into()).unwrap().as_arm().unwrap();
        assert!(arm.inside_of().is_none());
    }

    #[test]
    fn device_malfunction_detected() {
        let mut lab = lab();
        // Stuck door: SetDoor acknowledged but nothing moves.
        if let Some(crate::lab::LabDevice::Dosing(doser)) = lab.device_mut(&"doser".into()) {
            doser.inject_malfunction(Some(Malfunction::SilentNoop));
        }
        let mut r = rabit();
        r.initialize(&mut lab);
        let alert = r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true }),
            )
            .unwrap_err();
        match alert {
            Alert::DeviceMalfunction { diffs, .. } => {
                assert!(diffs.iter().any(|d| d.key == StateKey::DoorOpen));
            }
            other => panic!("expected malfunction, got {other:?}"),
        }
    }

    #[test]
    fn device_fault_propagates() {
        let mut lab = lab();
        let mut r = rabit();
        r.initialize(&mut lab);
        // Firmware rejects: dosing device already dosing? Use unsupported
        // action instead: asking the vial to move.
        let alert = r
            .step(&mut lab, &Command::new("vial", ActionKind::MoveHome))
            .unwrap_err();
        assert!(matches!(alert, Alert::DeviceFault { .. }));
        assert!(!alert.is_rabit_detection());
    }

    #[test]
    fn trajectory_validator_blocks_motion() {
        struct AlwaysCollide;
        impl TrajectoryValidator for AlwaysCollide {
            fn validate(&mut self, _: &Command, _: &LabState) -> TrajectoryVerdict {
                TrajectoryVerdict::Collision(crate::trajcheck::CollisionReport::coarse("grid", 0.5))
            }
            fn check_latency_s(&self) -> f64 {
                2.0
            }
        }
        let mut lab = lab();
        let mut r = rabit().with_validator(Box::new(AlwaysCollide));
        r.initialize(&mut lab);
        let overhead0 = r.overhead_s();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveToLocation {
                target: Vec3::new(0.5, 0.0, 0.3),
            },
        );
        let alert = r.step(&mut lab, &cmd).unwrap_err();
        assert!(matches!(alert, Alert::InvalidTrajectory { .. }));
        assert!(alert.to_string().contains("50%"));
        assert!(
            (r.overhead_s() - overhead0 - 2.0) > -1e-9,
            "GUI cost charged"
        );
        // Non-motion commands skip the validator.
        let door = Command::new("doser", ActionKind::SetDoor { open: true });
        assert!(r.step(&mut lab, &door).is_ok());
    }

    #[test]
    fn fail_safe_policy_parks_arms() {
        let mut lab = lab();
        let config = RabitConfig {
            stop_policy: StopPolicy::FailSafe,
            ..RabitConfig::default()
        };
        let mut r = Rabit::new(Rulebase::standard(), catalog(), config);
        r.initialize(&mut lab);
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        let _ = r.step(&mut lab, &cmd).unwrap_err();
        let arm = lab.device(&"arm".into()).unwrap().as_arm().unwrap();
        assert!(arm.at_sleep(), "fail-safe must park the arm");
    }

    #[test]
    fn validator_detach_and_accessors() {
        let mut lab = lab();
        let mut r = rabit().with_validator(Box::new(crate::trajcheck::ApproveAll));
        r.initialize(&mut lab);
        assert_eq!(r.catalog().len(), 3);
        assert_eq!(r.rulebase().len(), 11);
        // With the validator attached, motions are swept (ApproveAll says
        // yes); after detaching, SimAvailable is false again.
        let detached = r.detach_validator();
        assert!(detached.is_some());
        assert!(r.detach_validator().is_none());
        let mv = Command::new(
            "arm",
            ActionKind::MoveToLocation {
                target: Vec3::new(0.5, 0.0, 0.4),
            },
        );
        assert!(r.step(&mut lab, &mv).is_ok());
    }

    #[test]
    fn beliefs_can_be_revised() {
        let mut lab = lab();
        let mut r = rabit();
        r.initialize(&mut lab);
        let vial = rabit_devices::DeviceId::new("vial");
        r.believe(&vial, StateKey::SolidMg, 5.0);
        assert_eq!(
            r.current_state().get_number(&vial, &StateKey::SolidMg),
            Some(5.0)
        );
        r.believe(&vial, StateKey::SolidMg, 7.0);
        assert_eq!(
            r.current_state().get_number(&vial, &StateKey::SolidMg),
            Some(7.0)
        );
    }

    #[test]
    fn state_tolerance_suppresses_jitter() {
        // Inject a tiny sensor offset; with a loose tolerance no alert.
        let mut lab = Lab::new().with_device(rabit_devices::Hotplate::new(
            "hp",
            Aabb::new(Vec3::ZERO, Vec3::splat(0.2)),
        ));
        let catalog = DeviceCatalog::new()
            .with(DeviceMeta::new("hp", DeviceType::ActionDevice).with_threshold(340.0));
        // Pre-place a vial-like container so rules 5/6 pass.
        let state_fix = |lab: &mut Lab| {
            if let Some(crate::lab::LabDevice::Hotplate(h)) = lab.device_mut(&"hp".into()) {
                h.insert_container(DeviceId::new("ghost_vial"));
            }
        };
        state_fix(&mut lab);
        lab.add_device(Vial::new("ghost_vial", Vec3::ZERO));
        if let Some(crate::lab::LabDevice::Vial(v)) = lab.device_mut(&"ghost_vial".into()) {
            v.add_solid(5.0);
        }
        let config = RabitConfig {
            state_tolerance: 0.5,
            ..RabitConfig::default()
        };
        let mut r = Rabit::new(Rulebase::standard(), catalog, config);
        if let Some(crate::lab::LabDevice::Hotplate(h)) = lab.device_mut(&"hp".into()) {
            h.inject_malfunction(Some(Malfunction::SensorOffset(0.1)));
        }
        r.initialize(&mut lab);
        // Containment is unsensed: tell RABIT the vial is already inside
        // (a configured initial fact) and non-empty.
        r.believe(
            &"hp".into(),
            StateKey::ContainedObject,
            Some(DeviceId::new("ghost_vial")),
        );
        r.believe(&"ghost_vial".into(), StateKey::SolidMg, 5.0);
        let res = r.step(
            &mut lab,
            &Command::new("hp", ActionKind::StartAction { value: 60.0 }),
        );
        assert!(res.is_ok(), "0.1° of jitter must not alarm: {res:?}");
    }

    use crate::faults::{FaultKind, FaultPlan, FaultSchedule, RecoveryPolicy, RetryPolicy};

    fn drop_first_doser_command() -> FaultPlan {
        FaultPlan::seeded(11).with_on(
            "doser",
            FaultKind::DropCommand,
            FaultSchedule::AtSteps(vec![0]),
        )
    }

    #[test]
    fn dropped_command_without_recovery_is_a_malfunction() {
        let mut lab = lab();
        let mut r = rabit().with_fault_plan(drop_first_doser_command());
        r.initialize(&mut lab);
        let alert = r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true }),
            )
            .unwrap_err();
        assert!(
            matches!(alert, Alert::DeviceMalfunction { .. }),
            "a silently dropped command surfaces as S_actual ≠ S_expected: {alert:?}"
        );
        assert!(!r.counters(&lab).recovery.any());
        assert_eq!(lab.fault_stats().dropped, 1);
    }

    #[test]
    fn retry_policy_recovers_a_dropped_command() {
        let mut lab = lab();
        let mut r = Rabit::builder()
            .catalog(catalog())
            .recovery(RecoveryPolicy::Retry(RetryPolicy::default()))
            .fault_plan(drop_first_doser_command())
            .build();
        r.initialize(&mut lab);
        let outcome = r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true }),
            )
            .expect("the retry re-sends the dropped command");
        assert_eq!(outcome, StepOutcome::Recovered { retries: 1 });
        assert!(outcome.executed());
        let counters = r.counters(&lab);
        assert_eq!(counters.recovery.retries, 1);
        assert_eq!(counters.recovery.recovered, 1);
        // The door really opened on the second attempt.
        assert_eq!(
            lab.fetch_state()
                .get_bool(&"doser".into(), &StateKey::DoorOpen),
            Some(true)
        );
    }

    #[test]
    fn crash_window_outlasted_by_backoff() {
        let plan = FaultPlan::seeded(3).with_on(
            "doser",
            FaultKind::DeviceCrash { downtime_s: 0.5 },
            FaultSchedule::AtSteps(vec![0]),
        );
        let mut lab = lab();
        let mut r = Rabit::builder()
            .catalog(catalog())
            .recovery(RecoveryPolicy::Retry(RetryPolicy {
                max_attempts: 3,
                backoff_base_s: 1.0,
                backoff_factor: 2.0,
            }))
            .fault_plan(plan)
            .build();
        r.initialize(&mut lab);
        let outcome = r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true }),
            )
            .expect("1 s of backoff outlasts the 0.5 s crash window");
        assert!(matches!(outcome, StepOutcome::Recovered { .. }));
        assert_eq!(lab.fault_stats().crashes, 1);
    }

    #[test]
    fn retry_then_safe_stop_parks_arms() {
        let plan = FaultPlan::seeded(9).with_on(
            "doser",
            FaultKind::DropCommand,
            FaultSchedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let mut lab = lab();
        let mut r = Rabit::builder()
            .catalog(catalog())
            .recovery(RecoveryPolicy::RetryThenSafeStop(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }))
            .fault_plan(plan)
            .build();
        r.initialize(&mut lab);
        let alert = r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true }),
            )
            .unwrap_err();
        assert!(matches!(alert, Alert::DeviceMalfunction { .. }));
        assert_eq!(r.counters(&lab).recovery.safe_stops, 1);
        let arm = lab.device(&"arm".into()).unwrap().as_arm().unwrap();
        assert!(arm.at_sleep(), "safe-stop must park the arm");
    }

    #[test]
    fn empty_fault_plan_is_inert() {
        let mut lab = lab();
        let mut r = rabit().with_fault_plan(FaultPlan::none());
        r.initialize(&mut lab);
        assert!(!lab.has_fault_session(), "empty plans arm nothing");
        for open in [true, false] {
            assert!(r
                .step(
                    &mut lab,
                    &Command::new("doser", ActionKind::SetDoor { open })
                )
                .is_ok());
        }
        assert_eq!(r.counters(&lab), RunCounters::default());
    }
}

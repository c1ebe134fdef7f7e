//! The RABIT engine: the Fig. 2 execution algorithm.

use crate::alert::{Alert, StopPolicy};
use crate::builder::RabitBuilder;
use crate::faults::{FaultPlan, RecoveryCounters, RecoveryPolicy};
use crate::lab::Lab;
use crate::trajcheck::{SweepStats, TrajectoryValidator, TrajectoryVerdict};
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
    /// Skip the post-execution malfunction check (ablation knob).
    pub skip_malfunction_check: bool,
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
            skip_malfunction_check: false,
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

/// Outcome of a full workflow run.
#[derive(Debug)]
pub struct RunReport {
    /// Commands executed successfully before any stop.
    pub executed: usize,
    /// The alert that stopped the run, if any.
    pub alert: Option<Alert>,
    /// Total virtual lab time consumed (seconds), including RABIT's
    /// overhead.
    pub lab_time_s: f64,
    /// The share of `lab_time_s` attributable to RABIT (status fetches +
    /// simulator checks).
    pub rabit_overhead_s: f64,
    /// Trajectory validations served from the validator's verdict cache
    /// during this run (zero without a caching validator).
    pub cache_hits: u64,
    /// Trajectory validations that missed the verdict cache and ran in
    /// full during this run.
    pub cache_misses: u64,
    /// Trajectory polling-grid samples the validator collision-checked
    /// during this run (zero without a sweeping validator).
    pub samples_checked: u64,
    /// Polling-grid samples the validator's adaptive sweep kernel proved
    /// hit-free and skipped during this run (zero for dense validators).
    pub samples_skipped: u64,
    /// Per-primitive signed-distance evaluations the validator issued for
    /// skip decisions during this run.
    pub distance_queries: u64,
    /// Recovery activity during this run (retries, recoveries,
    /// quarantines, safe-stops). All zeros under
    /// [`RecoveryPolicy::AlertImmediately`].
    pub recovery: RecoveryCounters,
    /// Faults the lab's armed session injected during this run (zero
    /// without a fault plan).
    pub faults_injected: u64,
    /// The rulebase epoch this run validated against
    /// ([`rabit_rulebase::STATIC_EPOCH`] for pinned rulebases and for
    /// unchecked runs). With a live rule store, this records which
    /// published snapshot governed the run.
    pub rulebase_epoch: u64,
}

impl RunReport {
    /// Whether the workflow ran to completion with no alert.
    pub fn completed(&self) -> bool {
        self.alert.is_none()
    }

    /// Fraction of this run's trajectory validations served from the
    /// verdict cache, or `None` if no validations happened (no validator
    /// attached, or no robot motions in the workflow).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Fraction of this run's trajectory grid samples the adaptive sweep
    /// kernel skipped, `skipped / (checked + skipped)`, or `None` if the
    /// validator processed no samples.
    pub fn skip_rate(&self) -> Option<f64> {
        let total = self.samples_checked + self.samples_skipped;
        (total > 0).then(|| self.samples_skipped as f64 / total as f64)
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

    /// Narrow-phase collision tests the attached validator has performed
    /// (zero when no validator is attached). Instrumentation for the
    /// broad-phase pruning benchmarks.
    pub fn validator_narrow_checks(&self) -> u64 {
        self.validator
            .as_ref()
            .map_or(0, |v| v.narrow_checks_performed())
    }

    /// Verdict-cache `(hits, misses)` of the attached validator — `(0, 0)`
    /// when no validator is attached or it has no cache. Instrumentation
    /// for the hot-path benchmarks and fleet cache-efficiency reports.
    pub fn validator_cache_stats(&self) -> (u64, u64) {
        self.validator
            .as_ref()
            .map_or((0, 0), |v| (v.cache_hits(), v.cache_misses()))
    }

    /// Sweep-kernel counters of the attached validator as a
    /// [`SweepStats`] snapshot — all zero when no validator is attached
    /// or it does no sampling sweep. Instrumentation for the adaptive
    /// conservative-advancement benchmarks.
    pub fn validator_sweep_stats(&self) -> SweepStats {
        self.validator
            .as_ref()
            .map_or(SweepStats::default(), |v| v.sweep_stats())
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

    /// Accumulated recovery activity across every run of this engine.
    /// Per-run deltas land in [`RunReport::recovery`].
    pub fn recovery_counters(&self) -> RecoveryCounters {
        self.recovery_totals
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
        let reported = lab.fetch_state();
        self.overhead_s += lab.clock().now_s() - before;
        // Sensed variables overwrite beliefs; configured beliefs (see
        // [`Rabit::believe`]) survive initialization.
        self.current.overlay(&reported);
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
        // Line 11: S_expected.
        let expected = transition::expected_state(&self.catalog, &self.current, command);

        // Line 12: execute.
        if let Err(error) = lab.apply(command) {
            return Err(Alert::DeviceFault {
                command: command.clone(),
                error,
            });
        }

        // Lines 13-16: fetch S_actual, compare, commit. Devices only
        // report the variables they can sense; believed variables (vial
        // contents, containment) are rolled forward from the expectation.
        let before = lab.clock().now_s();
        let actual = lab.fetch_state();
        self.overhead_s += lab.clock().now_s() - before;
        let diffs = if self.config.skip_malfunction_check {
            Vec::new()
        } else {
            expected.diff_reported(&actual, self.config.state_tolerance)
        };
        self.current = expected;
        self.current.overlay(&actual);
        if !diffs.is_empty() {
            return Err(Alert::DeviceMalfunction {
                command: command.clone(),
                diffs,
            });
        }
        Ok(())
    }

    /// Runs a whole workflow, stopping at the first alert
    /// (`alertAndStop`).
    pub fn run(&mut self, lab: &mut Lab, commands: &[Command]) -> RunReport {
        let t0 = lab.clock().now_s();
        let overhead0 = self.overhead_s;
        let (hits0, misses0) = self.validator_cache_stats();
        let sweep0 = self.validator_sweep_stats();
        let recovery0 = self.recovery_totals;
        self.initialize(lab);
        let faults0 = lab.fault_stats().total_injected();
        let mut executed = 0;
        let mut alert = None;
        for command in commands {
            match self.step(lab, command) {
                Ok(outcome) => {
                    if outcome.executed() {
                        executed += 1;
                    }
                }
                Err(a) => {
                    alert = Some(a);
                    break;
                }
            }
        }
        let (hits1, misses1) = self.validator_cache_stats();
        let sweep = self.validator_sweep_stats().since(&sweep0);
        RunReport {
            executed,
            alert,
            lab_time_s: lab.clock().now_s() - t0,
            rabit_overhead_s: self.overhead_s - overhead0,
            cache_hits: hits1 - hits0,
            cache_misses: misses1 - misses0,
            samples_checked: sweep.samples_checked,
            samples_skipped: sweep.samples_skipped,
            distance_queries: sweep.distance_queries,
            recovery: self.recovery_totals.since(&recovery0),
            faults_injected: lab.fault_stats().total_injected() - faults0,
            rulebase_epoch: self.rulebase.epoch(),
        }
    }

    /// Executes a workflow with NO safety checking — the baseline of the
    /// latency-overhead experiment, and how damage happens.
    pub fn run_unchecked(lab: &mut Lab, commands: &[Command]) -> RunReport {
        let t0 = lab.clock().now_s();
        let faults0 = lab.fault_stats().total_injected();
        let mut executed = 0;
        let mut alert = None;
        for command in commands {
            match lab.apply(command) {
                Ok(()) => executed += 1,
                Err(error) => {
                    alert = Some(Alert::DeviceFault {
                        command: command.clone(),
                        error,
                    });
                    break;
                }
            }
        }
        RunReport {
            executed,
            alert,
            lab_time_s: lab.clock().now_s() - t0,
            rabit_overhead_s: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            samples_checked: 0,
            samples_skipped: 0,
            distance_queries: 0,
            recovery: RecoveryCounters::default(),
            faults_injected: lab.fault_stats().total_injected() - faults0,
            rulebase_epoch: rabit_rulebase::STATIC_EPOCH,
        }
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
    fn safe_workflow_passes_and_updates_state() {
        let mut lab = lab();
        let mut r = rabit();
        let commands = vec![
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new(
                "arm",
                ActionKind::MoveInsideDevice {
                    device: "doser".into(),
                },
            ),
            Command::new("arm", ActionKind::MoveOutOfDevice),
            Command::new("doser", ActionKind::SetDoor { open: false }),
        ];
        let report = r.run(&mut lab, &commands);
        assert!(report.completed(), "alert: {:?}", report.alert);
        assert_eq!(report.executed, 4);
        assert!(report.lab_time_s > 0.0);
        assert!(report.rabit_overhead_s > 0.0);
        assert!(report.rabit_overhead_s < report.lab_time_s);
        assert_eq!(
            r.current_state()
                .get_bool(&"doser".into(), &StateKey::DoorOpen),
            Some(false)
        );
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
    fn unchecked_run_lets_damage_happen() {
        let mut lab = lab();
        let commands = vec![Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        )];
        let report = Rabit::run_unchecked(&mut lab, &commands);
        assert!(report.completed());
        assert_eq!(lab.damage_log().len(), 1, "the door broke");
        assert_eq!(report.rabit_overhead_s, 0.0);
    }

    #[test]
    fn run_reports_partial_progress() {
        let mut lab = lab();
        let mut r = rabit();
        let commands = vec![
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new("doser", ActionKind::SetDoor { open: false }),
            Command::new(
                "arm",
                ActionKind::MoveInsideDevice {
                    device: "doser".into(),
                },
            ),
            Command::new("doser", ActionKind::SetDoor { open: true }),
        ];
        let report = r.run(&mut lab, &commands);
        assert_eq!(report.executed, 2);
        assert!(matches!(report.alert, Some(Alert::InvalidCommand { .. })));
    }

    #[test]
    fn skip_malfunction_check_ablation() {
        let mut lab = lab();
        if let Some(crate::lab::LabDevice::Dosing(d)) = lab.device_mut(&"doser".into()) {
            d.inject_malfunction(Some(Malfunction::SilentNoop));
        }
        let config = RabitConfig {
            skip_malfunction_check: true,
            ..RabitConfig::default()
        };
        let mut r = Rabit::new(Rulebase::standard(), catalog(), config);
        r.initialize(&mut lab);
        assert!(r
            .step(
                &mut lab,
                &Command::new("doser", ActionKind::SetDoor { open: true })
            )
            .is_ok());
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
    fn run_report_time_accounting() {
        let mut lab = lab();
        let mut r = rabit();
        let commands = vec![
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new("doser", ActionKind::SetDoor { open: false }),
        ];
        let report = r.run(&mut lab, &commands);
        assert!(report.completed());
        // Overhead is part of total lab time, and both are positive.
        assert!(report.rabit_overhead_s > 0.0);
        assert!(report.lab_time_s > report.rabit_overhead_s);
        // Device time ≈ 2 door motions × 2 s.
        let device_time = report.lab_time_s - report.rabit_overhead_s;
        assert!((device_time - 4.0).abs() < 1e-9, "{device_time}");
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
        assert!(!r.recovery_counters().any());
        assert_eq!(lab.fault_stats().dropped, 1);
    }

    #[test]
    fn unchecked_runs_count_only_their_own_injected_faults() {
        // Every doser command is dropped; each run sends one.
        let plan = FaultPlan::seeded(11).with_on(
            "doser",
            FaultKind::DropCommand,
            FaultSchedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let mut lab = lab();
        lab.arm_faults(plan.session());
        let open = [Command::new("doser", ActionKind::SetDoor { open: true })];
        let first = Rabit::run_unchecked(&mut lab, &open);
        let second = Rabit::run_unchecked(&mut lab, &open);
        assert_eq!(first.faults_injected, 1);
        assert_eq!(
            second.faults_injected, 1,
            "the first run's fault is not recounted"
        );
        assert_eq!(lab.fault_stats().total_injected(), 2);
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
        let counters = r.recovery_counters();
        assert_eq!(counters.retries, 1);
        assert_eq!(counters.recovered, 1);
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
    fn quarantine_policy_continues_degraded() {
        // Every doser command is dropped — the device is hopeless.
        let plan = FaultPlan::seeded(7).with_on(
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
            .recovery(RecoveryPolicy::Quarantine(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }))
            .fault_plan(plan)
            .build();
        let commands = vec![
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new("doser", ActionKind::SetDoor { open: false }),
        ];
        let report = r.run(&mut lab, &commands);
        assert!(
            report.completed(),
            "quarantine never alerts: {:?}",
            report.alert
        );
        assert_eq!(report.executed, 0, "nothing actually ran");
        assert!(r.is_quarantined(&"doser".into()));
        assert_eq!(r.quarantined_devices().count(), 1);
        assert_eq!(report.recovery.quarantined, 1);
        assert_eq!(report.recovery.skipped_quarantined, 1);
        assert!(report.faults_injected >= 2);
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
        assert_eq!(r.recovery_counters().safe_stops, 1);
        let arm = lab.device(&"arm".into()).unwrap().as_arm().unwrap();
        assert!(arm.at_sleep(), "safe-stop must park the arm");
    }

    #[test]
    fn empty_fault_plan_is_inert() {
        let mut lab = lab();
        let mut r = rabit().with_fault_plan(FaultPlan::none());
        r.initialize(&mut lab);
        assert!(!lab.has_fault_session(), "empty plans arm nothing");
        let commands = vec![
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new("doser", ActionKind::SetDoor { open: false }),
        ];
        let report = r.run(&mut lab, &commands);
        assert!(report.completed());
        assert_eq!(report.faults_injected, 0);
        assert!(!report.recovery.any());
    }
}

//! Parametric fault injection at the Lab/Device boundary.
//!
//! The 16-bug study replays a fixed catalog of failures; this module
//! generalizes it into *fault families* a run can be seeded with: stale
//! or noisy state reads, silently dropped or duplicated commands,
//! per-device latency spikes, and hard device crashes. A [`FaultPlan`]
//! is a pure description (seed + specs); arming a lab turns it into a
//! [`FaultSession`] whose injections are deterministic — the same plan,
//! seed, and workflow always fault the same way, which is what keeps
//! faulted fleet runs reproducible across any worker-thread count.
//!
//! The engine side of the story is [`RecoveryPolicy`]: what `Rabit`
//! does when a *transient* alert (device fault or malfunction) fires —
//! alert immediately (the paper's behaviour), retry with exponential
//! backoff, retry then safe-stop, or quarantine the device and continue
//! degraded. Recovery activity is tallied in [`RecoveryCounters`].

use rabit_devices::{Command, DeviceId, LabState};
use rabit_util::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One family of injectable fault. Marked `#[non_exhaustive]`: future
/// PRs add families (e.g. partial doses, sensor freezes) without a
/// breaking change, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// `fetch_state` serves the *previous* snapshot instead of the
    /// current one (a lagging status endpoint).
    StaleState,
    /// Gaussian noise on every numeric state variable a fetch reports.
    NoisyState {
        /// Standard deviation of the additive noise.
        sigma: f64,
    },
    /// The device acknowledges the command but silently does nothing
    /// (the classic lost-packet failure).
    DropCommand,
    /// The device executes the command twice (a retransmitted packet
    /// the firmware did not deduplicate).
    DuplicateCommand,
    /// The command takes extra wall-clock time to complete.
    LatencySpike {
        /// Extra latency added to the command, in seconds.
        seconds: f64,
    },
    /// The device crashes: the triggering command and every later one
    /// are rejected until the crash window elapses.
    DeviceCrash {
        /// How long the device stays down, in virtual seconds.
        downtime_s: f64,
    },
}

impl FaultKind {
    /// A short machine-readable family name (used as the key in
    /// `BENCH_faults.json`).
    pub fn family(&self) -> &'static str {
        match self {
            FaultKind::StaleState => "stale_state",
            FaultKind::NoisyState { .. } => "noisy_state",
            FaultKind::DropCommand => "drop_command",
            FaultKind::DuplicateCommand => "duplicate_command",
            FaultKind::LatencySpike { .. } => "latency_spike",
            FaultKind::DeviceCrash { .. } => "device_crash",
        }
    }

    /// Whether this kind perturbs state *reads* (as opposed to command
    /// execution).
    pub fn targets_state(&self) -> bool {
        matches!(self, FaultKind::StaleState | FaultKind::NoisyState { .. })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.family())
    }
}

/// When a fault spec fires, counted in *steps*: command faults count
/// `Lab::apply` calls, state faults count `Lab::fetch_state` calls.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSchedule {
    /// Fire at exactly these 0-based step indices.
    AtSteps(Vec<usize>),
    /// Fire every `period`-th step, starting at `offset`.
    EveryNth {
        /// The firing period (must be ≥ 1 to ever fire).
        period: usize,
        /// The first step that fires.
        offset: usize,
    },
    /// Fire independently with this probability per step, drawn from
    /// the session's seeded RNG.
    Bernoulli {
        /// Per-step firing probability in `[0, 1]`.
        probability: f64,
    },
}

impl FaultSchedule {
    fn fires(&self, step: usize, rng: &mut Rng) -> bool {
        match self {
            FaultSchedule::AtSteps(steps) => steps.contains(&step),
            FaultSchedule::EveryNth { period, offset } => {
                *period > 0 && step >= *offset && (step - offset).is_multiple_of(*period)
            }
            FaultSchedule::Bernoulli { probability } => rng.random_bool(*probability),
        }
    }
}

/// One fault to inject: what, to which device, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The targeted device, or `None` for "any device" (command faults
    /// hit whichever device the scheduled command addresses; state
    /// faults hit the whole snapshot).
    pub device: Option<DeviceId>,
    /// The fault family.
    pub kind: FaultKind,
    /// When it fires.
    pub schedule: FaultSchedule,
}

/// A deterministic, seeded description of the faults to inject into one
/// run. Plans are pure data: cloning or sharing one never shares RNG
/// state — each run derives its own [`FaultSession`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: injects nothing. Running with it is byte-for-byte
    /// identical to running without fault support at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed, ready for [`FaultPlan::with_fault`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a fault spec (builder style).
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Shorthand for a spec targeting any device.
    pub fn with(self, kind: FaultKind, schedule: FaultSchedule) -> Self {
        self.with_fault(FaultSpec {
            device: None,
            kind,
            schedule,
        })
    }

    /// Shorthand for a spec targeting one device.
    pub fn with_on(
        self,
        device: impl Into<DeviceId>,
        kind: FaultKind,
        schedule: FaultSchedule,
    ) -> Self {
        self.with_fault(FaultSpec {
            device: Some(device.into()),
            kind,
            schedule,
        })
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault specs, in injection-priority order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Derives the same plan reseeded for one run of a fleet: mixing the
    /// run index into the seed keeps every run's injections independent
    /// yet fully determined by `(plan, index)` — the property that makes
    /// faulted fleets reproducible across worker-thread counts.
    pub fn for_run(&self, run_index: u64) -> FaultPlan {
        let mut mixed = FaultPlan::clone(self);
        // SplitMix64-style finalizer over (seed, index).
        let mut z = self.seed.wrapping_add(
            run_index
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        mixed.seed = z ^ (z >> 31);
        mixed
    }

    /// Starts a runtime session for one run (see [`Lab::arm_faults`]).
    ///
    /// [`Lab::arm_faults`]: crate::Lab::arm_faults
    pub fn session(&self) -> FaultSession {
        FaultSession {
            specs: self.specs.clone(),
            rng: Rng::seed_from_u64(self.seed),
            command_step: 0,
            fetch_step: 0,
            crashed_until: BTreeMap::new(),
            previous: None,
            stats: FaultStats::default(),
        }
    }
}

/// Per-family injection tallies for one session. `crash_rejections`
/// counts the *consequences* of a crash (commands bounced while the
/// device was down), not new injections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Commands silently dropped.
    pub dropped: u64,
    /// Commands executed twice.
    pub duplicated: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Device crashes triggered.
    pub crashes: u64,
    /// Commands rejected because their device was inside a crash window.
    pub crash_rejections: u64,
    /// Fetches served a stale snapshot.
    pub stale_reads: u64,
    /// Fetches perturbed with sensor noise.
    pub noisy_reads: u64,
}

impl FaultStats {
    /// Total faults injected (crash rejections excluded: they are the
    /// echo of one crash injection, not independent faults).
    pub fn total_injected(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.latency_spikes
            + self.crashes
            + self.stale_reads
            + self.noisy_reads
    }
}

/// What a [`FaultSession`] decided to do with one command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CommandFault {
    /// Execute normally.
    None,
    /// Acknowledge but silently do nothing.
    Drop,
    /// Execute twice.
    Duplicate,
    /// Execute after this much extra latency (seconds).
    Latency(f64),
    /// The device is down (just crashed, or still inside a crash
    /// window) until the given virtual time.
    Crashed {
        /// End of the crash window (virtual seconds).
        until_s: f64,
    },
}

/// The runtime half of a [`FaultPlan`]: owned by a [`Lab`], it holds
/// the seeded RNG, step counters, crash windows, and injection tallies
/// for one run.
///
/// [`Lab`]: crate::Lab
#[derive(Debug)]
pub struct FaultSession {
    specs: Vec<FaultSpec>,
    rng: Rng,
    command_step: usize,
    fetch_step: usize,
    crashed_until: BTreeMap<DeviceId, f64>,
    previous: Option<LabState>,
    stats: FaultStats,
}

impl FaultSession {
    /// Injection tallies so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decides the fate of one command. Called exactly once per
    /// `Lab::apply`; the first matching spec that fires wins.
    pub(crate) fn intercept_command(&mut self, command: &Command, now_s: f64) -> CommandFault {
        let step = self.command_step;
        self.command_step += 1;

        // An active crash window rejects everything addressed to the
        // device, fault schedules notwithstanding.
        if let Some(&until) = self.crashed_until.get(&command.actor) {
            if now_s < until {
                self.stats.crash_rejections += 1;
                return CommandFault::Crashed { until_s: until };
            }
        }

        for i in 0..self.specs.len() {
            let kind = self.specs[i].kind;
            if kind.targets_state() {
                continue;
            }
            if let Some(device) = &self.specs[i].device {
                if device != &command.actor {
                    continue;
                }
            }
            if !self.specs[i].schedule.fires(step, &mut self.rng) {
                continue;
            }
            match kind {
                FaultKind::DropCommand => {
                    self.stats.dropped += 1;
                    return CommandFault::Drop;
                }
                FaultKind::DuplicateCommand => {
                    self.stats.duplicated += 1;
                    return CommandFault::Duplicate;
                }
                FaultKind::LatencySpike { seconds } => {
                    self.stats.latency_spikes += 1;
                    return CommandFault::Latency(seconds);
                }
                FaultKind::DeviceCrash { downtime_s } => {
                    let until = now_s + downtime_s;
                    self.crashed_until.insert(command.actor.clone(), until);
                    self.stats.crashes += 1;
                    return CommandFault::Crashed { until_s: until };
                }
                _ => {}
            }
        }
        CommandFault::None
    }

    /// Filters one fetched snapshot. Called exactly once per
    /// `Lab::fetch_state` with the freshly-read state; returns what the
    /// engine actually sees (possibly stale or noisy).
    pub(crate) fn intercept_state(&mut self, fresh: LabState) -> LabState {
        let step = self.fetch_step;
        self.fetch_step += 1;
        let mut out = fresh.clone();
        for i in 0..self.specs.len() {
            let kind = self.specs[i].kind;
            if !kind.targets_state() {
                continue;
            }
            if !self.specs[i].schedule.fires(step, &mut self.rng) {
                continue;
            }
            let target = self.specs[i].device.clone();
            match kind {
                FaultKind::StaleState => {
                    let Some(previous) = &self.previous else {
                        continue; // nothing older to serve yet
                    };
                    match &target {
                        None => out = previous.clone(),
                        Some(device) => {
                            if let Some(old) = previous.device(device) {
                                out.insert(device.clone(), old.clone());
                            }
                        }
                    }
                    self.stats.stale_reads += 1;
                }
                FaultKind::NoisyState { sigma } => {
                    let mut perturbed: Vec<(DeviceId, rabit_devices::StateKey, f64)> = Vec::new();
                    for (id, dstate) in out.iter() {
                        if let Some(device) = &target {
                            if device != id {
                                continue;
                            }
                        }
                        for (key, value) in dstate.iter() {
                            if let rabit_devices::Value::Number(n) = value {
                                perturbed.push((id.clone(), key.clone(), *n));
                            }
                        }
                    }
                    for (id, key, n) in perturbed {
                        out.set(&id, key, n + sigma * self.rng.random_normal());
                    }
                    self.stats.noisy_reads += 1;
                }
                _ => {}
            }
        }
        self.previous = Some(fresh);
        out
    }
}

/// How many times to retry a transient alert, and how the backoff
/// between attempts grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts per command (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based), in seconds.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(retry as i32)
    }
}

/// What the engine does when a *transient* alert — a device fault or a
/// post-execution malfunction — fires. Genuine rule violations
/// ([`Alert::InvalidCommand`], [`Alert::InvalidTrajectory`]) are never
/// retried: they are exactly the bugs RABIT exists to stop.
///
/// [`Alert::InvalidCommand`]: crate::Alert::InvalidCommand
/// [`Alert::InvalidTrajectory`]: crate::Alert::InvalidTrajectory
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RecoveryPolicy {
    /// Alert and stop at the first transient failure — the paper's
    /// `alertAndStop`, and the default.
    #[default]
    AlertImmediately,
    /// Retry with exponential backoff on the virtual clock; alert only
    /// once attempts are exhausted.
    Retry(RetryPolicy),
    /// Retry, and on exhaustion park every arm at its sleep position
    /// (regardless of [`StopPolicy`]) before alerting — the timeout +
    /// safe-stop policy.
    ///
    /// [`StopPolicy`]: crate::StopPolicy
    RetryThenSafeStop(RetryPolicy),
    /// Retry, and on exhaustion quarantine the offending device: the
    /// command is abandoned, later commands to that device are skipped,
    /// and the run continues degraded instead of halting.
    Quarantine(RetryPolicy),
}

impl RecoveryPolicy {
    /// The retry schedule, or `None` under [`RecoveryPolicy::AlertImmediately`].
    pub fn retry(&self) -> Option<RetryPolicy> {
        match self {
            RecoveryPolicy::AlertImmediately => None,
            RecoveryPolicy::Retry(r)
            | RecoveryPolicy::RetryThenSafeStop(r)
            | RecoveryPolicy::Quarantine(r) => Some(*r),
        }
    }
}

/// Recovery activity, one part of [`crate::RunCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Retry attempts performed (each preceded by a backoff).
    pub retries: u64,
    /// Commands that ultimately succeeded after at least one retry.
    pub recovered: u64,
    /// Devices quarantined after exhausting their retries.
    pub quarantined: u64,
    /// Commands skipped because their device was already quarantined.
    pub skipped_quarantined: u64,
    /// Safe-stops performed on retry exhaustion.
    pub safe_stops: u64,
}

impl RecoveryCounters {
    /// Whether any recovery machinery engaged at all.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }

    /// Component-wise difference (`self - earlier`), for deriving
    /// per-run deltas from engine totals.
    pub fn since(&self, earlier: &RecoveryCounters) -> RecoveryCounters {
        RecoveryCounters {
            retries: self.retries - earlier.retries,
            recovered: self.recovered - earlier.recovered,
            quarantined: self.quarantined - earlier.quarantined,
            skipped_quarantined: self.skipped_quarantined - earlier.skipped_quarantined,
            safe_stops: self.safe_stops - earlier.safe_stops,
        }
    }

    /// Adds `other` into `self`, componentwise.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.quarantined += other.quarantined;
        self.skipped_quarantined += other.skipped_quarantined;
        self.safe_stops += other.safe_stops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::ActionKind;

    fn cmd(actor: &str) -> Command {
        Command::new(actor, ActionKind::MoveHome)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut session = plan.session();
        for step in 0..10 {
            assert_eq!(
                session.intercept_command(&cmd("arm"), step as f64),
                CommandFault::None
            );
        }
        assert_eq!(session.stats().total_injected(), 0);
    }

    #[test]
    fn schedules_fire_deterministically() {
        let every = FaultSchedule::EveryNth {
            period: 3,
            offset: 1,
        };
        let mut rng = Rng::seed_from_u64(0);
        let fired: Vec<usize> = (0..10).filter(|&s| every.fires(s, &mut rng)).collect();
        assert_eq!(fired, vec![1, 4, 7]);
        let at = FaultSchedule::AtSteps(vec![0, 5]);
        assert!(at.fires(0, &mut rng) && at.fires(5, &mut rng) && !at.fires(3, &mut rng));
        // Bernoulli: same seed, same draws.
        let bern = FaultSchedule::Bernoulli { probability: 0.5 };
        let draw = |seed| -> Vec<bool> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..20).map(|s| bern.fires(s, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn drop_fault_targets_only_its_device() {
        let plan = FaultPlan::seeded(1).with_on(
            "doser",
            FaultKind::DropCommand,
            FaultSchedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let mut session = plan.session();
        assert_eq!(
            session.intercept_command(&cmd("arm"), 0.0),
            CommandFault::None
        );
        assert_eq!(
            session.intercept_command(&cmd("doser"), 1.0),
            CommandFault::Drop
        );
        assert_eq!(session.stats().dropped, 1);
    }

    #[test]
    fn crash_window_rejects_until_elapsed() {
        let plan = FaultPlan::seeded(1).with(
            FaultKind::DeviceCrash { downtime_s: 5.0 },
            FaultSchedule::AtSteps(vec![0]),
        );
        let mut session = plan.session();
        assert_eq!(
            session.intercept_command(&cmd("arm"), 10.0),
            CommandFault::Crashed { until_s: 15.0 }
        );
        // Still down at t=12; other devices unaffected.
        assert_eq!(
            session.intercept_command(&cmd("arm"), 12.0),
            CommandFault::Crashed { until_s: 15.0 }
        );
        assert_eq!(
            session.intercept_command(&cmd("doser"), 12.0),
            CommandFault::None
        );
        // Recovered at t=15.
        assert_eq!(
            session.intercept_command(&cmd("arm"), 15.0),
            CommandFault::None
        );
        assert_eq!(session.stats().crashes, 1);
        assert_eq!(session.stats().crash_rejections, 1);
    }

    #[test]
    fn stale_state_serves_previous_snapshot() {
        let plan =
            FaultPlan::seeded(1).with(FaultKind::StaleState, FaultSchedule::AtSteps(vec![1]));
        let mut session = plan.session();
        let mut s0 = LabState::new();
        s0.set(&"hp".into(), rabit_devices::StateKey::ActionValue, 20.0);
        let mut s1 = LabState::new();
        s1.set(&"hp".into(), rabit_devices::StateKey::ActionValue, 60.0);
        // First fetch: nothing older exists, served fresh.
        let r0 = session.intercept_state(s0);
        assert_eq!(
            r0.get_number(&"hp".into(), &rabit_devices::StateKey::ActionValue),
            Some(20.0)
        );
        // Second fetch fires: the engine sees the old 20° reading.
        let r1 = session.intercept_state(s1);
        assert_eq!(
            r1.get_number(&"hp".into(), &rabit_devices::StateKey::ActionValue),
            Some(20.0)
        );
        assert_eq!(session.stats().stale_reads, 1);
    }

    #[test]
    fn noisy_state_perturbs_numbers_only() {
        let plan = FaultPlan::seeded(9).with(
            FaultKind::NoisyState { sigma: 1.0 },
            FaultSchedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let mut session = plan.session();
        let mut s = LabState::new();
        s.set(&"hp".into(), rabit_devices::StateKey::ActionValue, 50.0);
        s.set(&"hp".into(), rabit_devices::StateKey::DoorOpen, true);
        let out = session.intercept_state(s);
        let t = out
            .get_number(&"hp".into(), &rabit_devices::StateKey::ActionValue)
            .unwrap();
        assert_ne!(t, 50.0, "numeric reading perturbed");
        assert!((t - 50.0).abs() < 10.0, "perturbation is sigma-scaled");
        assert_eq!(
            out.get_bool(&"hp".into(), &rabit_devices::StateKey::DoorOpen),
            Some(true),
            "booleans untouched"
        );
        assert_eq!(session.stats().noisy_reads, 1);
    }

    #[test]
    fn for_run_derives_distinct_deterministic_seeds() {
        let plan = FaultPlan::seeded(7).with(
            FaultKind::DropCommand,
            FaultSchedule::Bernoulli { probability: 0.5 },
        );
        let s0 = plan.for_run(0).seed();
        let s1 = plan.for_run(1).seed();
        assert_ne!(s0, s1, "runs get independent seeds");
        assert_eq!(plan.for_run(0).seed(), s0, "and deterministic ones");
        assert_eq!(plan.for_run(0).specs(), plan.specs());
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
        };
        assert_eq!(retry.backoff_s(0), 0.5);
        assert_eq!(retry.backoff_s(1), 1.0);
        assert_eq!(retry.backoff_s(2), 2.0);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::AlertImmediately);
        assert!(RecoveryPolicy::AlertImmediately.retry().is_none());
        assert_eq!(
            RecoveryPolicy::Retry(retry).retry().unwrap().max_attempts,
            4
        );
    }

    #[test]
    fn recovery_counter_deltas() {
        let total = RecoveryCounters {
            retries: 5,
            recovered: 3,
            quarantined: 1,
            skipped_quarantined: 2,
            safe_stops: 0,
        };
        let earlier = RecoveryCounters {
            retries: 2,
            recovered: 1,
            quarantined: 0,
            skipped_quarantined: 2,
            safe_stops: 0,
        };
        let delta = total.since(&earlier);
        assert_eq!(delta.retries, 3);
        assert_eq!(delta.recovered, 2);
        assert_eq!(delta.quarantined, 1);
        assert_eq!(delta.skipped_quarantined, 0);
        assert!(delta.any());
        assert!(!RecoveryCounters::default().any());
    }
}

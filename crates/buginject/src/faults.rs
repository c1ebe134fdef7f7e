//! Parametric fault-family sweeps: the 16-bug catalog, generalized.
//!
//! The §IV study replays a *fixed* catalog of failures. The fault
//! runtime (`rabit_core::faults`) turns each failure shape into a
//! *family* — stale reads, noisy sensors, dropped or duplicated
//! commands, latency spikes, device crashes — that can be injected into
//! any workflow at any rate, under any seed. This module sweeps those
//! families against a deployment substrate and scores, per family:
//!
//! * **detection** — how many faulted runs RABIT halted with one of its
//!   own checks (a dropped command surfaces as `Device malfunction!`);
//! * **recovery** — how many runs a [`RecoveryPolicy`] rode out to
//!   completion instead of halting;
//! * **overhead** — the guarded engine's share of virtual lab time.
//!
//! Sweeps are deterministic: run `i` of a family always executes under
//! `plan.for_run(i)`, so the numbers are identical for any worker-thread
//! count.

use rabit_core::fleet::run_indexed;
use rabit_core::{
    FaultKind, FaultPlan, FaultSchedule, RecoveryCounters, RecoveryPolicy, Substrate,
};
use rabit_testbed::{locations, workflows};
use rabit_tracer::Tracer;

/// The swept fault families: `(family name, plan)` pairs, every plan
/// derived from `seed`. Rates are chosen so a multi-command workflow is
/// reliably hit at least once without drowning in faults.
pub fn fault_families(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let every_third = || FaultSchedule::EveryNth {
        period: 3,
        offset: 1,
    };
    vec![
        (
            "stale_state",
            FaultPlan::seeded(seed).with(FaultKind::StaleState, every_third()),
        ),
        (
            "noisy_state",
            FaultPlan::seeded(seed ^ 0x1).with(
                FaultKind::NoisyState { sigma: 0.05 },
                FaultSchedule::Bernoulli { probability: 0.5 },
            ),
        ),
        (
            "drop_command",
            FaultPlan::seeded(seed ^ 0x2).with(FaultKind::DropCommand, every_third()),
        ),
        (
            "duplicate_command",
            FaultPlan::seeded(seed ^ 0x3).with(FaultKind::DuplicateCommand, every_third()),
        ),
        (
            "latency_spike",
            FaultPlan::seeded(seed ^ 0x4).with(
                FaultKind::LatencySpike { seconds: 30.0 },
                FaultSchedule::Bernoulli { probability: 0.3 },
            ),
        ),
        (
            "device_crash",
            FaultPlan::seeded(seed ^ 0x5).with(
                FaultKind::DeviceCrash { downtime_s: 1.0 },
                FaultSchedule::AtSteps(vec![1]),
            ),
        ),
    ]
}

/// Aggregated results of sweeping one fault family on one substrate.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// The family's machine-readable name (`FaultKind::family`).
    pub family: String,
    /// Number of faulted runs executed.
    pub runs: usize,
    /// Faults actually injected across all runs.
    pub injected: u64,
    /// Runs halted by a RABIT check (malfunction / invalid command).
    pub detected: usize,
    /// Runs halted by a device fault (crash windows land here).
    pub device_faults: usize,
    /// Runs that completed despite injected faults.
    pub completed: usize,
    /// Runs in which the recovery policy recovered at least one command.
    pub recovered_runs: usize,
    /// Summed recovery activity across all runs.
    pub recovery: RecoveryCounters,
    /// Mean virtual lab time per run (seconds).
    pub mean_lab_time_s: f64,
    /// Mean RABIT overhead per run (seconds) — retry backoff included.
    pub mean_overhead_s: f64,
}

impl FamilyResult {
    /// Fraction of faulted runs RABIT halted with one of its own checks.
    pub fn detection_rate(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.detected as f64 / self.runs as f64
    }

    /// Fraction of runs that completed (rode out every injection).
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.completed as f64 / self.runs as f64
    }

    /// Fraction of runs in which the recovery policy recovered at least
    /// one command (`recovered_runs / runs`). A run can complete without
    /// recovering anything (the injection was harmless) and can recover
    /// a command yet still halt later, so this is not the completion
    /// rate.
    pub fn recovery_rate(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.recovered_runs as f64 / self.runs as f64
    }
}

/// Sweeps one fault plan on `substrate`: `repeats` runs of the deck's
/// safe workflow on `threads` workers, run `i` armed with
/// `plan.for_run(i)` and the engine set to `policy`. Deterministic for
/// any `threads >= 1`.
pub fn run_fault_family_on(
    substrate: &dyn Substrate,
    family: impl Into<String>,
    plan: &FaultPlan,
    repeats: usize,
    threads: usize,
    policy: RecoveryPolicy,
) -> FamilyResult {
    let loc = locations();
    let wf = workflows::fig5_safe_workflow(&loc);
    let runs = run_indexed(repeats, threads, |i| {
        let (mut lab, mut rabit) = substrate.instantiate_with(&plan.for_run(i as u64));
        rabit.config_mut().recovery = policy;
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
        (report, lab.fault_stats().total_injected())
    });

    let mut result = FamilyResult {
        family: family.into(),
        runs: repeats,
        injected: 0,
        detected: 0,
        device_faults: 0,
        completed: 0,
        recovered_runs: 0,
        recovery: RecoveryCounters::default(),
        mean_lab_time_s: 0.0,
        mean_overhead_s: 0.0,
    };
    for (report, injected) in &runs {
        result.injected += injected;
        match &report.alert {
            Some(alert) if alert.is_rabit_detection() => result.detected += 1,
            Some(_) => result.device_faults += 1,
            None => result.completed += 1,
        }
        if report.recovery.recovered > 0 {
            result.recovered_runs += 1;
        }
        result.recovery.retries += report.recovery.retries;
        result.recovery.recovered += report.recovery.recovered;
        result.recovery.quarantined += report.recovery.quarantined;
        result.recovery.skipped_quarantined += report.recovery.skipped_quarantined;
        result.recovery.safe_stops += report.recovery.safe_stops;
        result.mean_lab_time_s += report.lab_time_s;
        result.mean_overhead_s += report.rabit_overhead_s;
    }
    if repeats > 0 {
        result.mean_lab_time_s /= repeats as f64;
        result.mean_overhead_s /= repeats as f64;
    }
    result
}

/// Sweeps every [`fault_families`] plan on `substrate` under one policy.
pub fn run_fault_study_on(
    substrate: &dyn Substrate,
    seed: u64,
    repeats: usize,
    threads: usize,
    policy: RecoveryPolicy,
) -> Vec<FamilyResult> {
    fault_families(seed)
        .into_iter()
        .map(|(family, plan)| {
            run_fault_family_on(substrate, family, &plan, repeats, threads, policy)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::RetryPolicy;
    use rabit_testbed::TestbedSubstrate;

    fn substrate() -> TestbedSubstrate {
        TestbedSubstrate::for_stage(rabit_core::Stage::Testbed)
    }

    #[test]
    fn families_cover_all_kinds() {
        let families = fault_families(42);
        let names: Vec<&str> = families.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "stale_state",
                "noisy_state",
                "drop_command",
                "duplicate_command",
                "latency_spike",
                "device_crash"
            ]
        );
        for (name, plan) in &families {
            assert!(!plan.is_empty(), "{name} plan injects nothing");
            assert_eq!(plan.specs()[0].kind.family(), *name);
        }
    }

    #[test]
    fn drop_family_detected_without_recovery() {
        let s = substrate();
        let (_, plan) = fault_families(7)
            .into_iter()
            .find(|(n, _)| *n == "drop_command")
            .unwrap();
        let result = run_fault_family_on(
            &s,
            "drop_command",
            &plan,
            4,
            2,
            RecoveryPolicy::AlertImmediately,
        );
        assert_eq!(result.runs, 4);
        assert!(result.injected > 0, "the schedule must actually fire");
        assert!(
            result.detected > 0,
            "dropped commands must surface as malfunctions: {result:?}"
        );
        assert!(!result.recovery.any(), "no recovery policy, no recovery");
    }

    #[test]
    fn retry_policy_turns_detections_into_completions() {
        let s = substrate();
        let (_, plan) = fault_families(7)
            .into_iter()
            .find(|(n, _)| *n == "drop_command")
            .unwrap();
        let alerted = run_fault_family_on(
            &s,
            "drop_command",
            &plan,
            4,
            1,
            RecoveryPolicy::AlertImmediately,
        );
        let retried = run_fault_family_on(
            &s,
            "drop_command",
            &plan,
            4,
            1,
            RecoveryPolicy::Retry(RetryPolicy::default()),
        );
        assert!(retried.completed > alerted.completed);
        assert!(retried.recovery.recovered > 0);
        assert!(retried.recovered_runs > 0);
        assert!(
            retried.mean_overhead_s > alerted.mean_overhead_s,
            "backoff is charged as RABIT overhead"
        );
    }

    #[test]
    fn recovery_rate_counts_recovered_runs_not_completions() {
        // Latency spikes only cost time: every run completes, and no
        // command ever needed recovering.
        let s = substrate();
        let (_, plan) = fault_families(7)
            .into_iter()
            .find(|(n, _)| *n == "latency_spike")
            .unwrap();
        let policy = RecoveryPolicy::Retry(RetryPolicy::default());
        let spiked = run_fault_family_on(&s, "latency_spike", &plan, 4, 1, policy);
        assert!(spiked.injected > 0, "the schedule must actually fire");
        assert_eq!(spiked.completion_rate(), 1.0);
        assert_eq!(spiked.recovered_runs, 0);
        assert_eq!(spiked.recovery_rate(), 0.0);

        // The converse: runs that recovered a command and still halted.
        let halted = FamilyResult {
            family: "noisy_state".to_string(),
            runs: 16,
            completed: 0,
            recovered_runs: 6,
            ..spiked
        };
        assert_eq!(halted.completion_rate(), 0.0);
        assert_eq!(halted.recovery_rate(), 6.0 / 16.0);
        let empty = FamilyResult { runs: 0, ..halted };
        assert_eq!(empty.recovery_rate(), 0.0);
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let s = substrate();
        let policy = RecoveryPolicy::Retry(RetryPolicy::default());
        let (_, plan) = fault_families(99)
            .into_iter()
            .find(|(n, _)| *n == "noisy_state")
            .unwrap();
        let serial = run_fault_family_on(&s, "noisy_state", &plan, 6, 1, policy);
        let parallel = run_fault_family_on(&s, "noisy_state", &plan, 6, 4, policy);
        assert_eq!(serial.injected, parallel.injected);
        assert_eq!(serial.detected, parallel.detected);
        assert_eq!(serial.completed, parallel.completed);
        assert_eq!(serial.recovery, parallel.recovery);
        assert_eq!(serial.mean_lab_time_s, parallel.mean_lab_time_s);
    }
}

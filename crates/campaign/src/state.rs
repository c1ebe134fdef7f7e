//! Per-trial persistent state: the explicit lifecycle state machine and
//! its on-disk JSON representation.
//!
//! Every trial advances `Pending → Running → Done | Failed`, or
//! `Pending → Skipped` when the plan's skip list excludes it. The
//! runner persists one state file per trial; a resumed campaign reads
//! them back, keeps `Done`/`Skipped` trials, and resets anything else
//! (including corrupt files) to `Pending`.
//!
//! Determinism contract: [`TrialResult`] holds *only* fields that are a
//! pure function of the plan — simulated clocks, alerts, damage, run
//! counters. Real wall-clock timing lives in [`TrialState::wall_ms`],
//! outside the result, and is excluded from merged artifacts so
//! kill-and-resume runs stay bit-identical.
//!
//! Trial seeds are full-width `u64`s but this JSON layer carries
//! numbers as `f64`, so seeds are serialized as fixed-width hex strings
//! to survive the round trip exactly.

use rabit_core::RunCounters;
use rabit_util::json::field;
use rabit_util::{Json, JsonError, ToJson};

/// The schema tag carried by serialized trial states.
pub const TRIAL_SCHEMA: &str = "rabit.campaign.trial/v2";

/// A trial's lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialStatus {
    /// Materialized, not yet started.
    Pending,
    /// Claimed by a worker; a run that dies here was interrupted.
    Running,
    /// Finished with a result.
    Done,
    /// The trial's job panicked.
    Failed,
    /// Excluded by the plan's skip list.
    Skipped,
}

impl TrialStatus {
    /// The canonical string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            TrialStatus::Pending => "pending",
            TrialStatus::Running => "running",
            TrialStatus::Done => "done",
            TrialStatus::Failed => "failed",
            TrialStatus::Skipped => "skipped",
        }
    }

    /// Parses the canonical string form.
    ///
    /// # Errors
    ///
    /// Returns a decode error for an unrecognized status string.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        match text {
            "pending" => Ok(TrialStatus::Pending),
            "running" => Ok(TrialStatus::Running),
            "done" => Ok(TrialStatus::Done),
            "failed" => Ok(TrialStatus::Failed),
            "skipped" => Ok(TrialStatus::Skipped),
            other => Err(JsonError::decode(format!("unknown trial status '{other}'"))),
        }
    }

    /// Whether the state machine permits `self → next`.
    ///
    /// `Pending` may start (`Running`) or be excluded (`Skipped`);
    /// `Running` may finish (`Done`/`Failed`). `Done`, `Failed`, and
    /// `Skipped` are terminal — a resumed campaign re-runs a `Failed`
    /// or interrupted trial by resetting it to `Pending` with a fresh
    /// attempt count, never by mutating a terminal state in place.
    pub fn can_transition(&self, next: TrialStatus) -> bool {
        matches!(
            (self, next),
            (TrialStatus::Pending, TrialStatus::Running)
                | (TrialStatus::Pending, TrialStatus::Skipped)
                | (TrialStatus::Running, TrialStatus::Done)
                | (TrialStatus::Running, TrialStatus::Failed)
        )
    }

    /// Whether this status survives a resume untouched.
    pub fn is_terminal_success(&self) -> bool {
        matches!(self, TrialStatus::Done | TrialStatus::Skipped)
    }
}

/// The deterministic outcome of one executed trial — every field is a
/// pure function of the campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The workflow spec string (`fig5_safe`, `bug:<id>`, …).
    pub workflow: String,
    /// The instantiated substrate's name.
    pub substrate: String,
    /// The deployment stage name.
    pub stage: String,
    /// The execution mode (`guarded`/`unguarded`).
    pub mode: String,
    /// The fault variant string (`none`/`fault:<family>`).
    pub fault: String,
    /// `completed` or `blocked` (halted by an alert).
    pub outcome: String,
    /// The alert headline that halted the run, if any.
    pub alert: Option<String>,
    /// Whether the alert was a RABIT detection (vs. a device fault).
    pub detected: bool,
    /// Whether the run surfaced a device fault instead of a detection.
    pub device_fault: bool,
    /// Commands the lab actually executed.
    pub executed: usize,
    /// Simulated lab time (seconds) — virtual clock, deterministic.
    pub lab_time_s: f64,
    /// RABIT's simulated checking overhead (seconds).
    pub rabit_overhead_s: f64,
    /// Severity labels of the ground-truth damage log, in event order.
    pub damage: Vec<String>,
    /// The run's counters: faults injected, verdict-cache, sweep and
    /// narrow-phase work, and recovery activity.
    pub counters: RunCounters,
    /// Distance (m) between commanded and achieved arm pose, for
    /// placement-precision trials.
    pub placement_error_m: Option<f64>,
}

impl ToJson for TrialResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workflow", Json::Str(self.workflow.clone())),
            ("substrate", Json::Str(self.substrate.clone())),
            ("stage", Json::Str(self.stage.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("fault", Json::Str(self.fault.clone())),
            ("outcome", Json::Str(self.outcome.clone())),
            ("alert", self.alert.to_json()),
            ("detected", Json::Bool(self.detected)),
            ("device_fault", Json::Bool(self.device_fault)),
            ("executed", self.executed.to_json()),
            ("lab_time_s", Json::Num(self.lab_time_s)),
            ("rabit_overhead_s", Json::Num(self.rabit_overhead_s)),
            ("damage", self.damage.to_json()),
            ("counters", self.counters.to_json()),
            ("placement_error_m", self.placement_error_m.to_json()),
        ])
    }
}

impl rabit_util::FromJson for TrialResult {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(TrialResult {
            workflow: field(json, "workflow")?,
            substrate: field(json, "substrate")?,
            stage: field(json, "stage")?,
            mode: field(json, "mode")?,
            fault: field(json, "fault")?,
            outcome: field(json, "outcome")?,
            alert: field(json, "alert")?,
            detected: field(json, "detected")?,
            device_fault: field(json, "device_fault")?,
            executed: field(json, "executed")?,
            lab_time_s: field(json, "lab_time_s")?,
            rabit_overhead_s: field(json, "rabit_overhead_s")?,
            damage: field(json, "damage")?,
            counters: field(json, "counters")?,
            placement_error_m: field(json, "placement_error_m")?,
        })
    }
}

/// One trial's persisted state: the state-machine position plus (for
/// `Done`) the deterministic result. This is exactly what a per-trial
/// state file holds.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialState {
    /// The trial's stable id (also the state file's stem).
    pub trial_id: String,
    /// Fingerprint of the plan this state belongs to; a mismatch means
    /// the directory is being resumed under a different plan.
    pub plan_fingerprint: String,
    /// The state-machine position.
    pub status: TrialStatus,
    /// The trial's plan-derived seed.
    pub seed: u64,
    /// How many times this trial has been started (1 on first run;
    /// resumes after interruption or corruption increment it).
    pub attempt: usize,
    /// Real wall-clock execution time (ms). Non-deterministic; never
    /// merged into artifacts.
    pub wall_ms: Option<f64>,
    /// The outcome, present exactly when `status` is `Done`.
    pub result: Option<TrialResult>,
}

impl TrialState {
    /// A fresh `Pending` state for a materialized trial.
    pub fn pending(trial_id: &str, plan_fingerprint: &str, seed: u64) -> Self {
        TrialState {
            trial_id: trial_id.to_string(),
            plan_fingerprint: plan_fingerprint.to_string(),
            status: TrialStatus::Pending,
            seed,
            attempt: 0,
            wall_ms: None,
            result: None,
        }
    }

    /// Advances the state machine, panicking in debug builds on an
    /// illegal transition (the runner only requests legal ones).
    pub fn advance(&mut self, next: TrialStatus) {
        debug_assert!(
            self.status.can_transition(next),
            "illegal trial transition {} -> {}",
            self.status.as_str(),
            next.as_str()
        );
        self.status = next;
    }
}

impl ToJson for TrialState {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(TRIAL_SCHEMA.to_string())),
            ("trial_id", Json::Str(self.trial_id.clone())),
            ("plan_fingerprint", Json::Str(self.plan_fingerprint.clone())),
            ("status", Json::Str(self.status.as_str().to_string())),
            ("seed", Json::Str(format!("{:016x}", self.seed))),
            ("attempt", self.attempt.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
            (
                "result",
                match &self.result {
                    Some(r) => r.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl rabit_util::FromJson for TrialState {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let schema: String = field(json, "schema")?;
        if schema != TRIAL_SCHEMA {
            return Err(JsonError::decode(format!(
                "unsupported trial schema '{schema}' (expected '{TRIAL_SCHEMA}')"
            )));
        }
        let status_text: String = field(json, "status")?;
        let status = TrialStatus::parse(&status_text)?;
        let seed_hex: String = field(json, "seed")?;
        let seed = u64::from_str_radix(&seed_hex, 16)
            .map_err(|_| JsonError::decode(format!("invalid seed hex '{seed_hex}'")))?;
        let result: Option<TrialResult> = field(json, "result")?;
        if status == TrialStatus::Done && result.is_none() {
            return Err(JsonError::decode(
                "trial state is 'done' but carries no result",
            ));
        }
        Ok(TrialState {
            trial_id: field(json, "trial_id")?,
            plan_fingerprint: field(json, "plan_fingerprint")?,
            status,
            seed,
            attempt: field(json, "attempt")?,
            wall_ms: field(json, "wall_ms")?,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_util::FromJson;

    fn sample_result() -> TrialResult {
        TrialResult {
            workflow: "bug:bug_a_door_not_reopened".into(),
            substrate: "testbed:testbed:modified".into(),
            stage: "Testbed".into(),
            mode: "guarded".into(),
            fault: "none".into(),
            outcome: "blocked".into(),
            alert: Some("door violation".into()),
            detected: true,
            device_fault: false,
            executed: 3,
            lab_time_s: 12.5,
            rabit_overhead_s: 0.75,
            damage: vec!["High".into()],
            counters: RunCounters {
                cache_hits: 4,
                cache_misses: 2,
                narrow_checks: 40,
                faults_injected: 1,
                ..RunCounters::default()
            },
            placement_error_m: None,
        }
    }

    #[test]
    fn state_round_trips_including_full_width_seeds() {
        let mut state = TrialState::pending("t0000-x", "deadbeefdeadbeef", u64::MAX - 17);
        state.attempt = 2;
        state.advance(TrialStatus::Running);
        state.advance(TrialStatus::Done);
        state.result = Some(sample_result());
        state.wall_ms = Some(3.25);
        let text = state.to_json().to_pretty();
        let back = TrialState::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.seed, u64::MAX - 17, "hex seeds survive f64 JSON");
    }

    #[test]
    fn transition_rules_enforced() {
        use TrialStatus::*;
        let legal = [
            (Pending, Running),
            (Pending, Skipped),
            (Running, Done),
            (Running, Failed),
        ];
        for status in [Pending, Running, Done, Failed, Skipped] {
            for next in [Pending, Running, Done, Failed, Skipped] {
                assert_eq!(
                    status.can_transition(next),
                    legal.contains(&(status, next)),
                    "{} -> {}",
                    status.as_str(),
                    next.as_str()
                );
            }
        }
    }

    #[test]
    fn done_without_result_is_rejected() {
        let mut state = TrialState::pending("t0001-y", "fp", 9);
        state.advance(TrialStatus::Running);
        state.advance(TrialStatus::Done);
        state.result = Some(sample_result());
        let mut json = state.to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "result" {
                    *v = Json::Null;
                }
            }
        }
        let err = TrialState::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("no result"), "{err}");
    }

    #[test]
    fn wrong_schema_and_bad_fields_are_rejected() {
        let state = TrialState::pending("t0002-z", "fp", 1);
        let mut json = state.to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::Str("rabit.campaign.trial/v9".into());
                }
            }
        }
        assert!(TrialState::from_json(&json).is_err());

        let mut json = state.to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "status" {
                    *v = Json::Str("zombie".into());
                }
            }
        }
        assert!(TrialState::from_json(&json).is_err());

        let mut json = state.to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "seed" {
                    *v = Json::Str("not-hex".into());
                }
            }
        }
        assert!(TrialState::from_json(&json).is_err());
    }
}

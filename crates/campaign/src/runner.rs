//! The resumable campaign runner: plan in, state directory and merged
//! artifact out.
//!
//! # State directory layout
//!
//! ```text
//! <dir>/manifest.json            run-level manifest (plan + fingerprint
//!                                + invocation count + warnings)
//! <dir>/trials/<trial_id>.json   one state file per trial
//! <dir>/campaign_artifact.json   merged artifact, written when no
//!                                pending work remains
//! ```
//!
//! Every file is written atomically (temp file + rename), so a kill at
//! any instant leaves each file either absent, whole at its previous
//! content, or whole at its new content — never torn. A resumed run
//! trusts `Done`/`Skipped` state files, resets `Running` (interrupted),
//! `Failed`, and corrupt files back to `Pending` with a warning in the
//! manifest, and re-executes only those.

use crate::plan::{CampaignPlan, PlanError, Trial, WorkflowSpec, PLACEMENT_TARGET};
use crate::state::{TrialResult, TrialState, TrialStatus};
use rabit_core::{Lab, Stage, Substrate};
use rabit_geometry::noise::PositionNoise;
use rabit_tracer::FleetJob;
use rabit_util::json::field;
use rabit_util::{FromJson, Json, JsonError, ToJson};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use std::{fs, io};

/// The schema tag carried by run manifests.
pub const MANIFEST_SCHEMA: &str = "rabit.campaign.manifest/v1";

/// Anything that can stop a campaign from running or resuming.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// Filesystem trouble under the state directory.
    Io {
        /// The file the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The plan cannot be materialized.
    Plan(PlanError),
    /// The state directory belongs to a different plan.
    PlanMismatch {
        /// Fingerprint the manifest on disk carries.
        on_disk: String,
        /// Fingerprint of the plan being run.
        requested: String,
    },
    /// The run manifest exists but does not decode.
    ManifestInvalid(JsonError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { path, source } => {
                write!(f, "campaign io error at {}: {source}", path.display())
            }
            CampaignError::Plan(err) => write!(f, "campaign plan error: {err}"),
            CampaignError::PlanMismatch { on_disk, requested } => write!(
                f,
                "state directory belongs to plan {on_disk}, refusing to resume plan {requested}"
            ),
            CampaignError::ManifestInvalid(err) => write!(f, "manifest invalid: {err}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Plan(err) => Some(err),
            CampaignError::ManifestInvalid(err) => Some(err),
            CampaignError::PlanMismatch { .. } => None,
        }
    }
}

impl From<PlanError> for CampaignError {
    fn from(err: PlanError) -> Self {
        CampaignError::Plan(err)
    }
}

/// What one [`CampaignRunner::run`] invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Trials executed by this invocation.
    pub executed: usize,
    /// Trials in `Done` after this invocation (cumulative).
    pub done: usize,
    /// Trials in `Failed` after this invocation.
    pub failed: usize,
    /// Trials in `Skipped` after this invocation.
    pub skipped: usize,
    /// Trials still `Pending` (non-zero when a `limit` stopped early).
    pub pending: usize,
    /// Warnings this invocation appended to the manifest (resume
    /// resets, corrupt state files, panicked trials).
    pub warnings: Vec<String>,
}

impl RunSummary {
    /// Whether the campaign is complete (nothing pending).
    pub fn complete(&self) -> bool {
        self.pending == 0
    }
}

/// Executes a [`CampaignPlan`] against a state directory, resumably.
pub struct CampaignRunner {
    plan: CampaignPlan,
    fingerprint: String,
    trials: Vec<Trial>,
    dir: PathBuf,
}

impl CampaignRunner {
    /// Materializes `plan` over the state directory `dir` (created on
    /// first run; resumed if it already holds this plan's state).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] when the plan does not
    /// materialize.
    pub fn new(plan: CampaignPlan, dir: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let trials = plan.materialize()?;
        let fingerprint = plan.fingerprint();
        Ok(CampaignRunner {
            plan,
            fingerprint,
            trials,
            dir: dir.into(),
        })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The materialized trial matrix, in index order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of trials in the matrix.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the matrix is empty (it never is for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    fn trial_path(&self, trial: &Trial) -> PathBuf {
        self.dir.join("trials").join(format!("{}.json", trial.id))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Path of the merged artifact (exists once the campaign
    /// completed).
    pub fn artifact_path(&self) -> PathBuf {
        self.dir.join("campaign_artifact.json")
    }

    /// Runs up to `limit` pending trials (all of them for `None`) on
    /// `threads` workers, then updates the manifest — and, once nothing
    /// is pending, writes the merged artifact.
    ///
    /// Passing a `limit` is the deterministic stand-in for a kill: the
    /// invocation stops after that many trials exactly as if the
    /// process had died between two trial completions.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] for filesystem trouble, a manifest
    /// that decodes but carries a different plan fingerprint, or a
    /// manifest that does not decode at all (state files, by contrast,
    /// self-heal: a corrupt one only re-runs its trial).
    pub fn run(&self, threads: usize, limit: Option<usize>) -> Result<RunSummary, CampaignError> {
        let trials_dir = self.dir.join("trials");
        fs::create_dir_all(&trials_dir).map_err(|source| CampaignError::Io {
            path: trials_dir.clone(),
            source,
        })?;
        let mut manifest = self.load_manifest()?;
        manifest.invocations += 1;
        let mut warnings = Vec::new();

        // Scan: classify every trial from its state file.
        let mut states: Vec<TrialState> = Vec::with_capacity(self.trials.len());
        for trial in &self.trials {
            states.push(self.scan_trial(trial, &mut warnings));
        }

        // Persist skip transitions and collect the pending slice.
        let mut pending: Vec<usize> = Vec::new();
        for (trial, state) in self.trials.iter().zip(states.iter_mut()) {
            if trial.skipped && state.status == TrialStatus::Pending {
                state.advance(TrialStatus::Skipped);
                self.write_state(trial, state)?;
            } else if state.status == TrialStatus::Pending {
                pending.push(trial.index);
            }
        }
        let selected: Vec<usize> = match limit {
            Some(k) => pending.iter().copied().take(k).collect(),
            None => pending,
        };

        // Execute the selected trials on the fleet worker pool. Each
        // job claims its trial (Running state hits disk before the
        // workflow runs) and persists its own outcome, so a kill leaves
        // every finished trial's Done file already on disk.
        let executed: Vec<(TrialState, Option<String>, Result<(), CampaignError>)> =
            rabit_core::fleet::run_indexed(selected.len(), threads, |j| {
                let trial = &self.trials[selected[j]];
                let mut state = states[trial.index].clone();
                state.attempt += 1;
                state.advance(TrialStatus::Running);
                if let Err(err) = self.write_state(trial, &state) {
                    return (state, None, Err(err));
                }
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| execute_trial(trial)));
                state.wall_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                let warning = match outcome {
                    Ok(result) => {
                        state.advance(TrialStatus::Done);
                        state.result = Some(result);
                        None
                    }
                    Err(panic) => {
                        state.advance(TrialStatus::Failed);
                        state.result = None;
                        Some(format!(
                            "trial {} panicked: {}",
                            trial.id,
                            panic_message(&panic)
                        ))
                    }
                };
                let write = self.write_state(trial, &state);
                (state, warning, write)
            });
        for (state, warning, write) in executed {
            if let Some(w) = warning {
                warnings.push(w);
            }
            write?;
            let index = index_of(&self.trials, &state.trial_id);
            states[index] = state;
        }

        // Manifest update + (on completion) the merged artifact.
        manifest.warnings.extend(warnings.iter().cloned());
        self.write_manifest(&manifest)?;
        let summary = RunSummary {
            executed: selected.len(),
            done: count(&states, TrialStatus::Done),
            failed: count(&states, TrialStatus::Failed),
            skipped: count(&states, TrialStatus::Skipped),
            pending: count(&states, TrialStatus::Pending) + count(&states, TrialStatus::Running),
            warnings,
        };
        if summary.pending == 0 {
            let artifact = self.assemble_artifact(&states);
            self.atomic_write(
                &self.artifact_path(),
                &format!("{}\n", artifact.to_pretty()),
            )?;
        }
        Ok(summary)
    }

    /// Reads the merged artifact back (after a completed run).
    ///
    /// # Errors
    ///
    /// Returns an error when the artifact is absent (campaign not
    /// complete) or does not parse.
    pub fn artifact(&self) -> Result<Json, CampaignError> {
        let path = self.artifact_path();
        let text = fs::read_to_string(&path).map_err(|source| CampaignError::Io {
            path: path.clone(),
            source,
        })?;
        Json::parse(&text).map_err(CampaignError::ManifestInvalid)
    }

    /// Reads every trial's persisted state, in matrix order (missing
    /// files come back as fresh `Pending`).
    pub fn states(&self) -> Vec<TrialState> {
        let mut warnings = Vec::new();
        self.trials
            .iter()
            .map(|t| self.scan_trial(t, &mut warnings))
            .collect()
    }

    fn scan_trial(&self, trial: &Trial, warnings: &mut Vec<String>) -> TrialState {
        let path = self.trial_path(trial);
        let fresh = || TrialState::pending(&trial.id, &self.fingerprint, trial.seed);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return fresh(),
            Err(err) => {
                warnings.push(format!(
                    "state file {} unreadable ({err}); re-running trial",
                    path.display()
                ));
                return fresh();
            }
        };
        let decoded = Json::parse(&text).and_then(|json| TrialState::from_json(&json));
        let state = match decoded {
            Ok(state) => state,
            Err(err) => {
                warnings.push(format!(
                    "state file {} corrupt ({err}); re-running trial",
                    path.display()
                ));
                return fresh();
            }
        };
        if state.trial_id != trial.id || state.plan_fingerprint != self.fingerprint {
            warnings.push(format!(
                "state file {} belongs to another trial or plan; re-running trial",
                path.display()
            ));
            return fresh();
        }
        match state.status {
            TrialStatus::Done | TrialStatus::Skipped | TrialStatus::Pending => state,
            TrialStatus::Running => {
                warnings.push(format!(
                    "trial {} was interrupted mid-run; re-running",
                    trial.id
                ));
                reset_pending(state)
            }
            TrialStatus::Failed => {
                warnings.push(format!("trial {} failed previously; retrying", trial.id));
                reset_pending(state)
            }
        }
    }

    fn assemble_artifact(&self, states: &[TrialState]) -> Json {
        // Deterministic by construction: trial entries carry only the
        // plan-derived result, never attempt counts or wall-clock time.
        let trials: Vec<Json> = states
            .iter()
            .map(|state| {
                Json::obj([
                    ("trial_id", Json::Str(state.trial_id.clone())),
                    ("status", Json::Str(state.status.as_str().to_string())),
                    ("seed", Json::Str(format!("{:016x}", state.seed))),
                    (
                        "result",
                        match &state.result {
                            Some(r) => r.to_json(),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let summary = Json::obj([
            ("trials", states.len().to_json()),
            ("done", count(states, TrialStatus::Done).to_json()),
            ("failed", count(states, TrialStatus::Failed).to_json()),
            ("skipped", count(states, TrialStatus::Skipped).to_json()),
            (
                "baseline",
                match self.plan.baseline() {
                    Some(spec) => Json::Str(spec.as_str()),
                    None => Json::Null,
                },
            ),
        ]);
        Json::obj([
            ("name", Json::Str(self.plan.name().to_string())),
            ("kind", Json::Str("campaign".to_string())),
            ("config", self.plan.to_json()),
            (
                "results",
                Json::obj([("summary", summary), ("trials", Json::Arr(trials))]),
            ),
        ])
    }

    fn load_manifest(&self) -> Result<Manifest, CampaignError> {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return Ok(Manifest {
                    name: self.plan.name().to_string(),
                    plan_fingerprint: self.fingerprint.clone(),
                    plan: self.plan.to_json(),
                    invocations: 0,
                    warnings: Vec::new(),
                })
            }
            Err(source) => return Err(CampaignError::Io { path, source }),
        };
        let manifest = Json::parse(&text)
            .and_then(|json| Manifest::from_json(&json))
            .map_err(CampaignError::ManifestInvalid)?;
        if manifest.plan_fingerprint != self.fingerprint {
            return Err(CampaignError::PlanMismatch {
                on_disk: manifest.plan_fingerprint,
                requested: self.fingerprint.clone(),
            });
        }
        Ok(manifest)
    }

    fn write_manifest(&self, manifest: &Manifest) -> Result<(), CampaignError> {
        self.atomic_write(
            &self.manifest_path(),
            &format!("{}\n", manifest.to_json().to_pretty()),
        )
    }

    fn write_state(&self, trial: &Trial, state: &TrialState) -> Result<(), CampaignError> {
        self.atomic_write(
            &self.trial_path(trial),
            &format!("{}\n", state.to_json().to_pretty()),
        )
    }

    fn atomic_write(&self, path: &Path, text: &str) -> Result<(), CampaignError> {
        let tmp = path.with_extension("json.tmp");
        let io_err = |source| CampaignError::Io {
            path: path.to_path_buf(),
            source,
        };
        fs::write(&tmp, text).map_err(io_err)?;
        fs::rename(&tmp, path).map_err(io_err)
    }
}

/// The run-level manifest persisted at `<dir>/manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The plan's name.
    pub name: String,
    /// The plan fingerprint the directory is bound to.
    pub plan_fingerprint: String,
    /// The full serialized plan (the directory is self-describing).
    pub plan: Json,
    /// How many `run` invocations have touched this directory.
    pub invocations: usize,
    /// Accumulated warnings (resume resets, corrupt files, panics).
    pub warnings: Vec<String>,
}

impl ToJson for Manifest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(MANIFEST_SCHEMA.to_string())),
            ("name", Json::Str(self.name.clone())),
            ("plan_fingerprint", Json::Str(self.plan_fingerprint.clone())),
            ("plan", self.plan.clone()),
            ("invocations", self.invocations.to_json()),
            ("warnings", self.warnings.to_json()),
        ])
    }
}

impl FromJson for Manifest {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let schema: String = field(json, "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(JsonError::decode(format!(
                "unsupported manifest schema '{schema}' (expected '{MANIFEST_SCHEMA}')"
            )));
        }
        Ok(Manifest {
            name: field(json, "name")?,
            plan_fingerprint: field(json, "plan_fingerprint")?,
            plan: json
                .get("plan")
                .cloned()
                .ok_or_else(|| JsonError::decode("missing field 'plan'"))?,
            invocations: field(json, "invocations")?,
            warnings: field(json, "warnings")?,
        })
    }
}

/// Runs a plan to completion in a throwaway state directory and returns
/// `(merged artifact, final trial states)`. The directory is removed
/// afterwards — this is the entry point for bench bins and tables that
/// want campaign semantics without managing a directory.
///
/// # Errors
///
/// Returns any [`CampaignError`] the underlying runner produces.
pub fn run_ephemeral(
    plan: CampaignPlan,
    threads: usize,
) -> Result<(Json, Vec<TrialState>), CampaignError> {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rabit-campaign-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let runner = CampaignRunner::new(plan, &dir)?;
    let result = runner.run(threads, None).and_then(|_| {
        let artifact = runner.artifact()?;
        let states = runner.states();
        Ok((artifact, states))
    });
    let _ = fs::remove_dir_all(&dir);
    result
}

/// Executes one trial through the shared [`FleetJob`] code path.
fn execute_trial(trial: &Trial) -> TrialResult {
    // Specs were resolved during materialization, so build failures
    // here are bugs, not user errors — a panic flips the trial to
    // Failed and surfaces in the manifest.
    let workflow = trial.workflow.build().expect("spec validated at plan time");
    let fault = trial
        .fault
        .build(trial.seed)
        .expect("spec validated at plan time");
    let substrate = trial.substrate.build();
    let placement = trial.workflow == WorkflowSpec::Placement;
    let noisy;
    let substrate: &dyn Substrate = if placement {
        noisy = SeededNoise {
            inner: substrate,
            seed: trial.seed,
        };
        &noisy
    } else {
        &substrate
    };
    let (run, lab) = FleetJob {
        substrate,
        workflow: &workflow,
        fault,
        guarded: trial.mode.guarded(),
        snapshot: None,
    }
    .execute();
    let placement_error_m = if placement {
        arm_error(&lab, PLACEMENT_TARGET)
    } else {
        None
    };
    let alert = run.report.alert.as_ref();
    TrialResult {
        workflow: trial.workflow.as_str(),
        substrate: run.substrate.unwrap_or_default(),
        stage: run.stage.name().to_string(),
        mode: trial.mode.as_str().to_string(),
        fault: trial.fault.as_str(),
        outcome: if run.report.completed() {
            "completed".to_string()
        } else {
            "blocked".to_string()
        },
        alert: alert.map(|a| a.headline().to_string()),
        detected: alert.is_some_and(|a| a.is_rabit_detection()),
        device_fault: alert.is_some_and(|a| !a.is_rabit_detection()),
        executed: run.report.executed,
        lab_time_s: run.report.lab_time_s,
        rabit_overhead_s: run.report.rabit_overhead_s,
        damage: run.damage.iter().map(|d| d.severity.to_string()).collect(),
        counters: run.report.counters,
        placement_error_m,
    }
}

fn arm_error(lab: &Lab, target: rabit_geometry::Vec3) -> Option<f64> {
    let device = lab.device(&"viperx".into())?;
    let arm = device.as_arm()?;
    Some((arm.location() - target).norm())
}

/// A substrate wrapper that seeds the inner substrate's positional
/// noise onto the ViperX from the trial seed — how placement-precision
/// trials get per-trial noise that is still a pure function of the
/// plan.
struct SeededNoise<S: Substrate> {
    inner: S,
    seed: u64,
}

impl<S: Substrate> Substrate for SeededNoise<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn stage(&self) -> Stage {
        self.inner.stage()
    }
    fn build_lab(&self) -> Lab {
        let mut lab = self.inner.build_lab();
        lab.set_arm_noise("viperx", self.inner.position_noise(), self.seed);
        lab
    }
    fn rulebase(&self) -> rabit_rulebase::RulebaseSnapshot {
        self.inner.rulebase()
    }
    fn catalog(&self) -> rabit_rulebase::DeviceCatalog {
        self.inner.catalog()
    }
    fn latency(&self) -> rabit_devices::LatencyModel {
        self.inner.latency()
    }
    fn position_noise(&self) -> PositionNoise {
        self.inner.position_noise()
    }
    fn validator(&self) -> Option<Box<dyn rabit_core::TrajectoryValidator>> {
        self.inner.validator()
    }
    fn engine_config(&self) -> rabit_core::RabitConfig {
        self.inner.engine_config()
    }
    fn fault_plan(&self) -> rabit_core::FaultPlan {
        self.inner.fault_plan()
    }
}

fn reset_pending(mut state: TrialState) -> TrialState {
    state.status = TrialStatus::Pending;
    state.result = None;
    state.wall_ms = None;
    state
}

fn count(states: &[TrialState], status: TrialStatus) -> usize {
    states.iter().filter(|s| s.status == status).count()
}

fn index_of(trials: &[Trial], trial_id: &str) -> usize {
    trials
        .iter()
        .position(|t| t.id == trial_id)
        .expect("executed state belongs to the matrix")
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecMode, SubstrateSpec};
    use rabit_testbed::RabitStage;

    fn tiny_plan() -> CampaignPlan {
        CampaignPlan::new("runner-unit", 11)
            .with_workflow(WorkflowSpec::Fig5Safe)
            .with_workflow(WorkflowSpec::Bug("bug_b_arm_collision".into()))
            .with_substrate(SubstrateSpec::Study(RabitStage::Baseline))
            .with_substrate(SubstrateSpec::Study(RabitStage::Modified))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rabit-campaign-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_run_writes_states_manifest_and_artifact() {
        let dir = temp_dir("full");
        let runner = CampaignRunner::new(tiny_plan(), &dir).unwrap();
        let summary = runner.run(2, None).unwrap();
        assert!(summary.complete());
        assert_eq!(summary.executed, 4);
        assert_eq!(summary.done, 4);
        assert!(summary.warnings.is_empty());
        assert!(runner.artifact_path().exists());
        let artifact = runner.artifact().unwrap();
        assert_eq!(
            artifact.get("kind").and_then(Json::as_str),
            Some("campaign")
        );
        let states = runner.states();
        assert!(states.iter().all(|s| s.status == TrialStatus::Done));
        assert!(states.iter().all(|s| s.attempt == 1));
        // Bug B is detected on the modified config, not the baseline.
        assert!(states[3].result.as_ref().unwrap().detected);
        assert!(!states[2].result.as_ref().unwrap().detected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn limited_run_resumes_where_it_stopped() {
        let dir = temp_dir("resume");
        let runner = CampaignRunner::new(tiny_plan(), &dir).unwrap();
        let first = runner.run(1, Some(3)).unwrap();
        assert_eq!(first.executed, 3);
        assert_eq!(first.pending, 1);
        assert!(!runner.artifact_path().exists());
        let second = runner.run(1, None).unwrap();
        assert_eq!(second.executed, 1, "only the remaining trial runs");
        assert!(second.complete());
        assert!(runner.states().iter().all(|s| s.attempt == 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_plan_refuses_to_resume() {
        let dir = temp_dir("mismatch");
        CampaignRunner::new(tiny_plan(), &dir)
            .unwrap()
            .run(1, Some(1))
            .unwrap();
        let other = tiny_plan().with_replicates(2);
        let err = CampaignRunner::new(other, &dir).unwrap().run(1, None);
        assert!(matches!(err, Err(CampaignError::PlanMismatch { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_listed_trials_never_execute() {
        let dir = temp_dir("skip");
        let plan = tiny_plan().with_skip("fig5_safe|study:baseline|none|guarded|r0");
        let runner = CampaignRunner::new(plan, &dir).unwrap();
        let summary = runner.run(2, None).unwrap();
        assert_eq!(summary.skipped, 1);
        assert_eq!(summary.done, 3);
        let states = runner.states();
        assert_eq!(states[0].status, TrialStatus::Skipped);
        assert!(states[0].result.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_run_cleans_up() {
        let plan = CampaignPlan::new("ephemeral", 3)
            .with_workflow(WorkflowSpec::Fig5Safe)
            .with_substrate(SubstrateSpec::Study(RabitStage::Modified))
            .with_modes(vec![ExecMode::Guarded, ExecMode::Unguarded]);
        let (artifact, states) = run_ephemeral(plan, 2).unwrap();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|s| s.status == TrialStatus::Done));
        let results = artifact.get("results").unwrap();
        assert_eq!(
            results
                .get("summary")
                .and_then(|s| s.get("done"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }
}

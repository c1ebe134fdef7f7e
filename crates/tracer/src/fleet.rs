//! Fleet execution: many independent `(substrate, workflow)` runs in
//! parallel.
//!
//! The bug study and the latency experiments replay whole workflow
//! libraries; each replay instantiates its own virtual lab and engine
//! from a [`Substrate`], runs one workflow through a [`Tracer`], and
//! collects the report. [`run_fleet_on`] fans those replays out over
//! `rabit_core::fleet`'s deterministic worker pool: results are keyed by
//! job index and every run builds its lab inside its own job, so the
//! per-run alerts and damage logs are identical for any thread count —
//! the property the fleet integration test pins down. Every run goes
//! through [`FleetJob::execute`], the one place a [`FleetRun`] is built;
//! [`StagePipeline::promote`] runs one job per deployment stage.

use crate::tracer::{TraceReport, Tracer};
use crate::workflow::Workflow;
use rabit_core::fleet::run_indexed;
use rabit_core::{DamageEvent, FaultPlan, Lab, Rabit, RunCounters, Stage, Substrate};
use rabit_rulebase::{RulebaseSnapshot, SnapshotCache, SnapshotSource, TenantId};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One fleet run: the workflow's trace report plus the physical damage
/// its lab accumulated. The run's counters are in
/// [`TraceReport::counters`].
#[derive(Debug)]
pub struct FleetRun {
    /// Index of the workflow in the fleet (result vectors are keyed by
    /// it).
    pub index: usize,
    /// The workflow's name.
    pub workflow: String,
    /// The deployment stage this run executed at.
    pub stage: Stage,
    /// The substrate's name (always set by [`FleetJob::execute`]).
    pub substrate: Option<String>,
    /// The tracer's report for this run.
    pub report: TraceReport,
    /// Ground-truth damage the lab recorded during the run.
    pub damage: Vec<DamageEvent>,
    /// The rulebase epoch this run's engine validated against (0 for
    /// pinned rulebases and pass-through baselines; the published epoch
    /// for live-store fleets via [`run_fleet_on_live`]).
    pub rulebase_epoch: u64,
}

/// The collected fleet: per-run reports plus merge helpers.
#[derive(Debug)]
pub struct FleetReport {
    /// Worker threads the fleet ran on (1 = serial).
    pub threads: usize,
    /// Per-workflow results, in workflow order.
    pub runs: Vec<FleetRun>,
}

impl FleetReport {
    /// Merged alert summary: alert headline → number of runs halted by
    /// it. Runs that completed are not counted here.
    pub fn alert_summary(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for run in &self.runs {
            if let Some(alert) = &run.report.alert {
                *out.entry(alert.headline().to_string()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Number of runs that completed without an alert.
    pub fn completed_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.report.completed()).count()
    }

    /// Total damage events across the whole fleet.
    pub fn total_damage(&self) -> usize {
        self.runs.iter().map(|r| r.damage.len()).sum()
    }

    /// The runs that executed at one deployment stage.
    pub fn runs_at(&self, stage: Stage) -> impl Iterator<Item = &FleetRun> {
        self.runs.iter().filter(move |r| r.stage == stage)
    }

    /// The fleet's counters: every run's [`TraceReport::counters`],
    /// merged.
    pub fn totals(&self) -> RunCounters {
        let mut totals = RunCounters::default();
        for run in &self.runs {
            totals.merge(&run.report.counters);
        }
        totals
    }
}

/// Runs each `(substrate, workflow)` job guarded on `threads` workers.
///
/// Every job instantiates a fresh `(Lab, Rabit)` pair from its substrate —
/// rulebase, catalog, latency, and (if the substrate attaches one)
/// trajectory validator included — so a single fleet can mix stages:
/// simulator replays next to testbed runs next to production profiles.
/// Runs are tagged with their substrate's name and [`Stage`]
/// (see [`FleetReport::runs_at`]).
///
/// Determinism: substrates build state inside the executing worker, so
/// reports are identical for every `threads >= 1`.
pub fn run_fleet_on(jobs: &[(&dyn Substrate, &Workflow)], threads: usize) -> FleetReport {
    fleet_on_with(jobs, threads, None, None)
}

/// [`run_fleet_on`] against a live rule store: every job asks `source`
/// for `tenant`'s latest published snapshot *when the job starts
/// executing*, so a rule commit that lands mid-fleet governs the jobs
/// that start after it while jobs already in flight finish on the epoch
/// they captured. Each run records the epoch it validated against in
/// [`FleetRun::rulebase_epoch`].
///
/// With a source whose snapshot never changes (a pinned
/// [`rabit_rulebase::RulebaseSnapshot`], or a store nobody commits to),
/// every job sees the same single epoch and the fleet's verdicts are
/// bit-identical to [`run_fleet_on`] over substrates returning that
/// same rulebase.
pub fn run_fleet_on_live(
    jobs: &[(&dyn Substrate, &Workflow)],
    threads: usize,
    source: &dyn SnapshotSource,
    tenant: &TenantId,
) -> FleetReport {
    fleet_on_with(jobs, threads, None, Some((source, tenant)))
}

/// [`run_fleet_on`] under a fault plan: every job instantiates through
/// [`Substrate::instantiate_with`] using `plan.for_run(i)`, so run `i`
/// always draws the same injections no matter which worker executes it
/// or how many threads the fleet uses. Pass [`FaultPlan::none`] to get
/// exactly [`run_fleet_on`].
pub fn run_fleet_on_faulted(
    jobs: &[(&dyn Substrate, &Workflow)],
    threads: usize,
    plan: &FaultPlan,
) -> FleetReport {
    fleet_on_with(jobs, threads, Some(plan), None)
}

fn fleet_on_with(
    jobs: &[(&dyn Substrate, &Workflow)],
    threads: usize,
    plan: Option<&FaultPlan>,
    live: Option<(&dyn SnapshotSource, &TenantId)>,
) -> FleetReport {
    // One fleet-wide `(tenant, epoch)` snapshot cache: while the epoch
    // is unchanged, jobs reuse the same published `Arc` instead of
    // re-resolving the store per job — a 64-run fleet hits the store
    // once, not 64 times. The cache probes the source's epoch on every
    // job, so a commit landing mid-fleet still reaches later jobs.
    let snapshot_cache = Mutex::new(SnapshotCache::new());
    let runs = run_indexed(jobs.len(), threads, |i| {
        let (substrate, workflow) = jobs[i];
        let job = FleetJob {
            substrate,
            workflow,
            fault: plan.map(|p| p.for_run(i as u64)),
            guarded: true,
            // Live fleets resolve the snapshot here — at job start, on
            // the executing worker — so commits landing mid-fleet are
            // picked up by later jobs only.
            snapshot: live.map(|(source, tenant)| {
                snapshot_cache
                    .lock()
                    .expect("fleet snapshot cache poisoned")
                    .get(source, tenant)
            }),
        };
        let (mut run, _lab) = job.execute();
        run.index = i;
        run
    });
    FleetReport { threads, runs }
}

/// One self-contained trial: a substrate, a workflow, an optional fault
/// plan, and an execution mode. [`execute`](FleetJob::execute) is the
/// single code path behind [`run_fleet_on`]/[`run_fleet_on_faulted`]
/// and [`StagePipeline::promote`], exposed so external runners (the
/// campaign crate, the bug study) can execute exactly the same trial
/// semantics one job at a time and still inspect the finished lab
/// afterwards.
pub struct FleetJob<'a> {
    /// The deployment substrate the trial instantiates from.
    pub substrate: &'a dyn Substrate,
    /// The workflow to replay.
    pub workflow: &'a Workflow,
    /// An already-derived per-run fault plan (callers do their own
    /// `for_run` seed mixing; the plan is armed as-is). `None` arms the
    /// substrate's own [`Substrate::fault_plan`], in either mode.
    pub fault: Option<FaultPlan>,
    /// `true` = guarded (check-then-forward through a fresh RABIT
    /// engine); `false` = pass-through baseline.
    pub guarded: bool,
    /// A rulebase snapshot overriding the substrate's own (live-store
    /// fleets resolve one per job via [`run_fleet_on_live`]); `None`
    /// instantiates with the substrate's pinned rulebase.
    pub snapshot: Option<RulebaseSnapshot>,
}

impl FleetJob<'_> {
    /// Runs the trial and returns its [`FleetRun`] (with `index` 0 —
    /// callers that fan out assign their own) plus the finished lab,
    /// so post-run ground truth (device poses, damage detail) stays
    /// inspectable.
    pub fn execute(&self) -> (FleetRun, Lab) {
        // No explicit per-run plan → the substrate's own, exactly what
        // `Substrate::instantiate` would arm, in either mode.
        let fault = match &self.fault {
            Some(plan) => plan.clone(),
            None => self.substrate.fault_plan(),
        };
        let (mut lab, mut rabit) = if self.guarded {
            let (lab, rabit) = match &self.snapshot {
                Some(snapshot) => self.substrate.instantiate_on(snapshot.clone(), &fault),
                None => self.substrate.instantiate_with(&fault),
            };
            (lab, Some(rabit))
        } else {
            let mut lab = self.substrate.build_lab();
            if !fault.is_empty() {
                lab.arm_faults(fault.session());
            }
            (lab, None)
        };
        let report = match rabit.as_mut() {
            Some(rabit) => Tracer::guarded(&mut lab, rabit),
            None => Tracer::pass_through(&mut lab),
        }
        .run(self.workflow);
        let rulebase_epoch = rabit
            .as_ref()
            .map_or(rabit_rulebase::STATIC_EPOCH, Rabit::rulebase_epoch);
        let run = FleetRun {
            index: 0,
            workflow: self.workflow.name().to_string(),
            stage: self.substrate.stage(),
            substrate: Some(self.substrate.name().to_string()),
            report,
            damage: lab.damage_log().to_vec(),
            rulebase_epoch,
        };
        // The damage log is already captured; hand the lab back for
        // post-run ground-truth reads.
        (run, lab)
    }
}

/// The outcome of promoting one workflow through a [`StagePipeline`].
#[derive(Debug)]
pub struct PipelineReport {
    /// The workflow's name.
    pub workflow: String,
    /// One run per stage, in deployment order. Stages after the blocking
    /// one are absent: the workflow never reached them.
    pub stages: Vec<FleetRun>,
}

impl PipelineReport {
    /// Whether the workflow cleared every stage (deployment-ready).
    pub fn deployed(&self) -> bool {
        !self.stages.is_empty() && self.stages.iter().all(|s| s.report.completed())
    }

    /// The stage that blocked the workflow, if any.
    pub fn blocked_at(&self) -> Option<Stage> {
        self.stages
            .iter()
            .find(|s| !s.report.completed())
            .map(|s| s.stage)
    }

    /// The run at one stage, if the workflow reached it.
    pub fn stage(&self, stage: Stage) -> Option<&FleetRun> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Total virtual lab time across the stages that ran (seconds),
    /// including each stage's per-experiment setup cost.
    pub fn total_cost_s(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.report.lab_time_s + s.stage.setup_cost_s())
            .sum()
    }

    /// Total damage events across all stages that ran.
    pub fn total_damage(&self) -> usize {
        self.stages.iter().map(|s| s.damage.len()).sum()
    }
}

/// A promotion pipeline: an ordered sequence of substrates a workflow
/// must clear one by one.
///
/// Substrates must be pushed in non-decreasing [`Stage`] order (a
/// pipeline may legitimately skip a stage — a deck with no physical
/// testbed promotes straight from simulator to production — but never
/// run one backwards).
#[derive(Default)]
pub struct StagePipeline {
    substrates: Vec<Box<dyn Substrate>>,
}

impl StagePipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        StagePipeline::default()
    }

    /// Appends a substrate (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the substrate's stage precedes the last one pushed:
    /// pipelines run in deployment order only.
    pub fn with_substrate(mut self, substrate: Box<dyn Substrate>) -> Self {
        self.push(substrate);
        self
    }

    /// Appends a substrate.
    ///
    /// # Panics
    ///
    /// Panics if the substrate's stage precedes the last one pushed.
    pub fn push(&mut self, substrate: Box<dyn Substrate>) {
        if let Some(last) = self.substrates.last() {
            assert!(
                last.stage() <= substrate.stage(),
                "pipeline stages must be in deployment order: {} after {}",
                substrate.stage(),
                last.stage(),
            );
        }
        self.substrates.push(substrate);
    }

    /// The substrates, in deployment order.
    pub fn substrates(&self) -> &[Box<dyn Substrate>] {
        &self.substrates
    }

    /// Number of stages in the pipeline.
    pub fn len(&self) -> usize {
        self.substrates.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.substrates.is_empty()
    }

    /// Promotes a workflow through the stages in order, one guarded
    /// [`FleetJob`] per stage. A stage that raises any alert blocks the
    /// workflow — later stages never run.
    pub fn promote(&self, workflow: &Workflow) -> PipelineReport {
        let mut stages = Vec::new();
        for substrate in &self.substrates {
            let (run, _lab) = FleetJob {
                substrate: substrate.as_ref(),
                workflow,
                fault: None,
                guarded: true,
                snapshot: None,
            }
            .execute();
            let promoted = run.report.completed();
            stages.push(run);
            if !promoted {
                break;
            }
        }
        PipelineReport {
            workflow: workflow.name().to_string(),
            stages,
        }
    }
}

impl std::fmt::Debug for StagePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.substrates.iter().map(|s| (s.stage(), s.name())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::Alert;
    use rabit_devices::{ActionKind, DeviceType, DosingDevice, RobotArm, Vial};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rule, RuleId, Rulebase};

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }

    fn workflows() -> Vec<Workflow> {
        vec![
            Workflow::new("safe")
                .set_door("doser", true)
                .move_inside("viperx", "doser")
                .move_out("viperx")
                .set_door("doser", false),
            // Bug A shape: the door never opens.
            Workflow::new("bug_a")
                .move_inside("viperx", "doser")
                .move_out("viperx"),
            Workflow::new("safe2").set_door("doser", true),
        ]
    }

    /// One job per workflow, all on `sub`.
    fn jobs_on<'a>(
        sub: &'a dyn Substrate,
        wfs: &'a [Workflow],
    ) -> Vec<(&'a dyn Substrate, &'a Workflow)> {
        wfs.iter().map(|wf| (sub, wf)).collect()
    }

    #[test]
    fn guarded_fleet_reports_per_run_alerts() {
        let sub = mini(Stage::Testbed);
        let wfs = workflows();
        let fleet = run_fleet_on(&jobs_on(&sub, &wfs), 2);
        assert_eq!(fleet.runs.len(), 3);
        assert_eq!(fleet.completed_runs(), 2);
        assert!(fleet.runs[0].report.completed());
        assert!(!fleet.runs[1].report.completed());
        assert_eq!(fleet.total_damage(), 0, "guarded fleet takes no damage");
        let summary = fleet.alert_summary();
        assert_eq!(summary.values().sum::<usize>(), 1);
    }

    #[test]
    fn unguarded_fleet_takes_damage() {
        let sub = mini(Stage::Testbed);
        let wfs = workflows();
        let runs = wfs
            .iter()
            .map(|workflow| {
                let job = FleetJob {
                    substrate: &sub,
                    workflow,
                    fault: None,
                    guarded: false,
                    snapshot: None,
                };
                job.execute().0
            })
            .collect();
        let fleet = FleetReport { threads: 1, runs };
        assert_eq!(fleet.completed_runs(), 3, "nothing halts pass-through");
        assert_eq!(fleet.total_damage(), 1, "bug_a breaks the door");
        assert_eq!(fleet.runs[1].damage.len(), 1);
    }

    struct MiniSubstrate {
        stage: rabit_core::Stage,
        rulebase: Rulebase,
    }

    fn mini(stage: Stage) -> MiniSubstrate {
        MiniSubstrate {
            stage,
            rulebase: Rulebase::standard(),
        }
    }

    impl rabit_core::Substrate for MiniSubstrate {
        fn name(&self) -> &str {
            "mini"
        }
        fn stage(&self) -> rabit_core::Stage {
            self.stage
        }
        fn build_lab(&self) -> Lab {
            Lab::new()
                .with_device(
                    RobotArm::new(
                        "viperx",
                        Vec3::new(0.3, 0.0, 0.3),
                        Vec3::new(0.1, -0.3, 0.2),
                    )
                    .with_latency(self.latency()),
                )
                .with_device(DosingDevice::new(
                    "doser",
                    Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
                ))
                .with_device(Vial::new("vial", Vec3::new(0.537, 0.018, 0.12)))
        }
        fn rulebase(&self) -> rabit_rulebase::RulebaseSnapshot {
            self.rulebase.clone().into()
        }
        fn catalog(&self) -> DeviceCatalog {
            catalog()
        }
    }

    #[test]
    fn substrate_fleet_mixes_stages() {
        let sim = mini(Stage::Simulator);
        let prod = mini(Stage::Production);
        let wfs = workflows();
        let jobs: Vec<(&dyn Substrate, &Workflow)> = vec![
            (&sim, &wfs[0]),
            (&prod, &wfs[0]),
            (&sim, &wfs[1]),
            (&prod, &wfs[2]),
        ];
        let fleet = run_fleet_on(&jobs, 2);
        assert_eq!(fleet.runs.len(), 4);
        assert_eq!(fleet.runs_at(Stage::Simulator).count(), 2);
        assert_eq!(fleet.runs_at(Stage::Production).count(), 2);
        assert_eq!(fleet.completed_runs(), 3, "bug_a alerts at its stage");
        let blocked = &fleet.runs[2];
        assert_eq!(blocked.stage, Stage::Simulator);
        assert_eq!(blocked.substrate.as_deref(), Some("mini"));
        assert!(!blocked.report.completed());
        assert_eq!(fleet.total_damage(), 0, "guarded fleet takes no damage");
        // The same stage latency ran faster in simulation than production.
        assert!(fleet.runs[0].report.lab_time_s < fleet.runs[1].report.lab_time_s);
    }

    #[test]
    fn fleet_job_matches_fleet_semantics() {
        let sub = mini(Stage::Testbed);
        let wfs = workflows();
        // Guarded single job ≡ the same job inside run_fleet_on.
        let jobs: Vec<(&dyn Substrate, &Workflow)> = vec![(&sub, &wfs[1])];
        let fleet = run_fleet_on(&jobs, 1);
        let (solo, lab) = FleetJob {
            substrate: &sub,
            workflow: &wfs[1],
            fault: None,
            guarded: true,
            snapshot: None,
        }
        .execute();
        assert_eq!(
            solo.report.completed(),
            fleet.runs[0].report.completed(),
            "guarded FleetJob and run_fleet_on agree on the outcome"
        );
        assert_eq!(solo.damage.len(), fleet.runs[0].damage.len());
        assert!(lab.device(&"viperx".into()).is_some(), "lab stays readable");
        // Unguarded pass-through lets bug_a damage the door.
        let (unguarded, _) = FleetJob {
            substrate: &sub,
            workflow: &wfs[1],
            fault: None,
            guarded: false,
            snapshot: None,
        }
        .execute();
        assert!(unguarded.report.completed(), "nothing halts pass-through");
        assert_eq!(unguarded.damage.len(), 1, "bug_a breaks the door");
    }

    /// The standard rulebase plus two rules that both reject opening the
    /// doser door, so one command violates two rules at once.
    fn doubly_vetoed() -> Rulebase {
        let veto = |name: &str| {
            Rule::new(
                RuleId::Custom(name.into()),
                "the doser door stays shut",
                |cmd, _, _| {
                    matches!(cmd.action, ActionKind::SetDoor { open: true })
                        .then(|| "door opened".to_string())
                },
            )
        };
        Rulebase::standard()
            .with_rule(veto("veto_a"))
            .with_rule(veto("veto_b"))
    }

    fn violated_rules(run: &FleetRun) -> Vec<String> {
        match &run.report.alert {
            Some(Alert::InvalidCommand { violations, .. }) => {
                violations.iter().map(|v| v.rule.to_string()).collect()
            }
            other => panic!("expected an invalid-command alert, got {other:?}"),
        }
    }

    #[test]
    fn guarded_fleets_report_every_violated_rule() {
        // `safe2` opens the doser door, which both vetoes reject.
        let wfs = workflows();
        let want = ["custom:veto_a", "custom:veto_b"];
        let sub = MiniSubstrate {
            stage: Stage::Testbed,
            rulebase: doubly_vetoed(),
        };
        let fleet = run_fleet_on(&jobs_on(&sub, &wfs[2..]), 1);
        assert_eq!(violated_rules(&fleet.runs[0]), want, "run_fleet_on");
        let (run, _) = FleetJob {
            substrate: &sub,
            workflow: &wfs[2],
            fault: None,
            guarded: true,
            snapshot: None,
        }
        .execute();
        assert_eq!(violated_rules(&run), want, "FleetJob::execute");
    }

    #[test]
    fn fleet_results_keyed_by_workflow_index() {
        let sub = mini(Stage::Testbed);
        let wfs = workflows();
        let fleet = run_fleet_on(&jobs_on(&sub, &wfs), 3);
        for (i, run) in fleet.runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.workflow, wfs[i].name());
        }
    }

    fn pipeline() -> StagePipeline {
        [Stage::Simulator, Stage::Testbed, Stage::Production]
            .into_iter()
            .fold(StagePipeline::new(), |p, stage| {
                p.with_substrate(Box::new(mini(stage)))
            })
    }

    #[test]
    fn safe_workflow_is_deployed_through_all_stages() {
        let wf = Workflow::new("safe")
            .set_door("doser", true)
            .set_door("doser", false);
        let report = pipeline().promote(&wf);
        assert_eq!(report.workflow, "safe");
        assert_eq!(report.stages.len(), 3);
        assert!(report.deployed());
        assert_eq!(report.blocked_at(), None);
        assert_eq!(report.total_damage(), 0);
        // Setup costs accumulate per stage that ran.
        assert!(report.total_cost_s() >= 960.0);
        assert!(report.stage(Stage::Production).is_some());
    }

    #[test]
    fn alerting_workflow_never_reaches_the_next_stage() {
        let wfs = workflows();
        let report = pipeline().promote(&wfs[1]); // bug_a
        assert_eq!(report.stages.len(), 1, "blocked at the first stage");
        assert!(!report.deployed());
        assert_eq!(report.blocked_at(), Some(Stage::Simulator));
        let alert = report.stages[0].report.alert.as_ref();
        assert!(alert.is_some_and(Alert::is_rabit_detection), "{alert:?}");
        assert!(report.stage(Stage::Testbed).is_none(), "never ran");
    }

    #[test]
    #[should_panic(expected = "deployment order")]
    fn out_of_order_pipeline_panics() {
        let _ = StagePipeline::new()
            .with_substrate(Box::new(mini(Stage::Production)))
            .with_substrate(Box::new(mini(Stage::Simulator)));
    }
}

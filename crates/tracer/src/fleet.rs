//! Fleet execution: many independent `(Lab, Workflow)` runs in parallel.
//!
//! The bug study and the latency experiments replay whole workflow
//! libraries; each replay builds its own virtual lab, runs one workflow
//! through a [`Tracer`], and collects the report. [`run_fleet`] fans those
//! replays out over `rabit_core::fleet`'s deterministic work-stealing
//! pool: results are keyed by workflow index and every run constructs its
//! lab inside its own job, so the per-run alerts and damage logs are
//! identical for any thread count — the property the fleet integration
//! test pins down.

use crate::tracer::{TraceReport, Tracer};
use crate::workflow::Workflow;
use rabit_core::fleet::run_indexed;
use rabit_core::{
    DamageEvent, FaultPlan, Lab, Rabit, RecoveryCounters, Stage, Substrate, SweepStats,
};
use rabit_rulebase::{RulebaseSnapshot, SnapshotCache, SnapshotSource, TenantId};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One fleet run: the workflow's trace report plus the physical damage
/// its lab accumulated.
#[derive(Debug)]
pub struct FleetRun {
    /// Index of the workflow in the fleet (result vectors are keyed by
    /// it).
    pub index: usize,
    /// The workflow's name.
    pub workflow: String,
    /// The deployment stage this run executed at (`None` for plain
    /// [`run_fleet`] setups, which carry no stage identity).
    pub stage: Option<Stage>,
    /// The substrate's name (`None` for plain [`run_fleet`] setups).
    pub substrate: Option<String>,
    /// The tracer's report for this run.
    pub report: TraceReport,
    /// Ground-truth damage the lab recorded during the run.
    pub damage: Vec<DamageEvent>,
    /// Verdict-cache hits of this run's validator (0 without a guarded
    /// engine or a caching validator).
    pub cache_hits: u64,
    /// Verdict-cache misses of this run's validator.
    pub cache_misses: u64,
    /// Trajectory grid samples this run's validator collision-checked
    /// (0 without a sweeping validator).
    pub samples_checked: u64,
    /// Grid samples the validator's adaptive sweep kernel proved
    /// hit-free and skipped (0 for dense validators).
    pub samples_skipped: u64,
    /// Per-primitive signed-distance evaluations the validator issued
    /// for skip decisions.
    pub distance_queries: u64,
    /// Faults the run's lab actually injected (0 without a fault plan).
    pub faults_injected: u64,
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

    /// Total simulated lab time across the fleet (seconds).
    pub fn total_lab_time_s(&self) -> f64 {
        self.runs.iter().map(|r| r.report.lab_time_s).sum()
    }

    /// The runs that executed at one deployment stage (empty for fleets
    /// assembled without substrates).
    pub fn runs_at(&self, stage: Stage) -> impl Iterator<Item = &FleetRun> {
        self.runs.iter().filter(move |r| r.stage == Some(stage))
    }

    /// Total faults injected across the fleet.
    pub fn total_faults_injected(&self) -> u64 {
        self.runs.iter().map(|r| r.faults_injected).sum()
    }

    /// Fleet-wide recovery activity, summed over every run.
    pub fn total_recovery(&self) -> RecoveryCounters {
        let mut out = RecoveryCounters::default();
        for run in &self.runs {
            let r = run.report.recovery;
            out.retries += r.retries;
            out.recovered += r.recovered;
            out.quarantined += r.quarantined;
            out.skipped_quarantined += r.skipped_quarantined;
            out.safe_stops += r.safe_stops;
        }
        out
    }

    /// Fleet-wide verdict-cache hit rate, `hits / (hits + misses)`.
    /// `None` when no run performed any cached validation.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.runs.iter().map(|r| r.cache_hits).sum();
        let misses: u64 = self.runs.iter().map(|r| r.cache_misses).sum();
        if hits + misses == 0 {
            None
        } else {
            Some(hits as f64 / (hits + misses) as f64)
        }
    }

    /// Total trajectory grid samples the fleet's validators
    /// collision-checked.
    pub fn total_samples_checked(&self) -> u64 {
        self.runs.iter().map(|r| r.samples_checked).sum()
    }

    /// Total grid samples the fleet's adaptive sweep kernels skipped.
    pub fn total_samples_skipped(&self) -> u64 {
        self.runs.iter().map(|r| r.samples_skipped).sum()
    }

    /// Total clearance distance evaluations across the fleet.
    pub fn total_distance_queries(&self) -> u64 {
        self.runs.iter().map(|r| r.distance_queries).sum()
    }

    /// Fleet-wide sweep skip rate, `skipped / (checked + skipped)`.
    /// `None` when no validator processed any trajectory sample.
    pub fn sweep_skip_rate(&self) -> Option<f64> {
        let checked = self.total_samples_checked();
        let skipped = self.total_samples_skipped();
        if checked + skipped == 0 {
            None
        } else {
            Some(skipped as f64 / (checked + skipped) as f64)
        }
    }
}

/// Runs every workflow against its own freshly-built lab, on `threads`
/// workers.
///
/// `setup(i)` builds the lab (and optionally a RABIT engine) for
/// workflow `i`; it is called from the worker that executes the run, so
/// labs never cross threads. With `Some(rabit)` the run is guarded
/// (check-then-forward); with `None` it is a pass-through baseline.
///
/// Determinism: for a deterministic `setup`, the returned
/// [`FleetReport::runs`] — traces, alerts, and damage logs — is
/// identical for every `threads >= 1`.
pub fn run_fleet<S>(workflows: &[Workflow], threads: usize, setup: S) -> FleetReport
where
    S: Fn(usize) -> (Lab, Option<Rabit>) + Sync,
{
    let runs = run_indexed(workflows.len(), threads, |i| {
        let (mut lab, rabit) = setup(i);
        let (report, cache_hits, cache_misses, sweep, rulebase_epoch) = match rabit {
            Some(mut rabit) => {
                let report = Tracer::guarded(&mut lab, &mut rabit).run(&workflows[i]);
                let (hits, misses) = rabit.validator_cache_stats();
                let sweep = rabit.validator_sweep_stats();
                let epoch = rabit.rulebase_epoch();
                drop(rabit);
                (report, hits, misses, sweep, epoch)
            }
            None => (
                Tracer::pass_through(&mut lab).run(&workflows[i]),
                0,
                0,
                SweepStats::default(),
                rabit_rulebase::STATIC_EPOCH,
            ),
        };
        FleetRun {
            index: i,
            workflow: workflows[i].name().to_string(),
            stage: None,
            substrate: None,
            report,
            damage: lab.damage_log().to_vec(),
            cache_hits,
            cache_misses,
            samples_checked: sweep.samples_checked,
            samples_skipped: sweep.samples_skipped,
            distance_queries: sweep.distance_queries,
            faults_injected: lab.fault_stats().total_injected(),
            rulebase_epoch,
        }
    });
    FleetReport { threads, runs }
}

/// Runs each `(substrate, workflow)` job guarded on `threads` workers.
///
/// This is [`run_fleet`] made generic over deployment substrates: every
/// job instantiates a fresh `(Lab, Rabit)` pair from its substrate —
/// rulebase, catalog, latency, and (if the substrate attaches one)
/// trajectory validator included — so a single fleet can mix stages:
/// simulator replays next to testbed runs next to production profiles.
/// Runs are tagged with their substrate's name and [`Stage`]
/// (see [`FleetReport::runs_at`]).
///
/// Determinism: substrates build state inside the executing worker, so
/// reports are identical for every `threads >= 1`, exactly as for
/// [`run_fleet`].
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
/// single code path behind [`run_fleet_on`]/[`run_fleet_on_faulted`],
/// exposed so external runners (the campaign crate) can execute exactly
/// the same trial semantics one job at a time and still inspect the
/// finished lab afterwards.
pub struct FleetJob<'a> {
    /// The deployment substrate the trial instantiates from.
    pub substrate: &'a dyn Substrate,
    /// The workflow to replay.
    pub workflow: &'a Workflow,
    /// An already-derived per-run fault plan (callers do their own
    /// `for_run` seed mixing; the plan is armed as-is).
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
        let (lab, report, cache, sweep, rulebase_epoch) = if self.guarded {
            // No explicit per-run plan → the substrate's own, exactly
            // what `Substrate::instantiate` would arm.
            let fault = match &self.fault {
                Some(plan) => plan.clone(),
                None => self.substrate.fault_plan(),
            };
            let (mut lab, mut rabit) = match &self.snapshot {
                Some(snapshot) => self.substrate.instantiate_on(snapshot.clone(), &fault),
                None => self.substrate.instantiate_with(&fault),
            };
            let report = Tracer::guarded(&mut lab, &mut rabit).run(self.workflow);
            let cache = rabit.validator_cache_stats();
            let sweep = rabit.validator_sweep_stats();
            let epoch = rabit.rulebase_epoch();
            (lab, report, cache, sweep, epoch)
        } else {
            let mut lab = self.substrate.build_lab();
            if let Some(plan) = &self.fault {
                if !plan.is_empty() {
                    lab.arm_faults(plan.session());
                }
            }
            let report = Tracer::pass_through(&mut lab).run(self.workflow);
            (
                lab,
                report,
                (0, 0),
                SweepStats::default(),
                rabit_rulebase::STATIC_EPOCH,
            )
        };
        let run = FleetRun {
            index: 0,
            workflow: self.workflow.name().to_string(),
            stage: Some(self.substrate.stage()),
            substrate: Some(self.substrate.name().to_string()),
            report,
            damage: lab.damage_log().to_vec(),
            cache_hits: cache.0,
            cache_misses: cache.1,
            samples_checked: sweep.samples_checked,
            samples_skipped: sweep.samples_skipped,
            distance_queries: sweep.distance_queries,
            faults_injected: lab.fault_stats().total_injected(),
            rulebase_epoch,
        };
        // The damage log and fault stats are already captured; hand the
        // lab back for post-run ground-truth reads.
        (run, lab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_core::{Alert, RabitConfig};
    use rabit_devices::{ActionKind, DeviceType, DosingDevice, RobotArm, Vial};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rule, RuleId, Rulebase};

    fn lab() -> Lab {
        Lab::new()
            .with_device(RobotArm::new(
                "viperx",
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
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }

    fn rabit() -> Rabit {
        Rabit::new(Rulebase::standard(), catalog(), RabitConfig::default())
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

    #[test]
    fn guarded_fleet_reports_per_run_alerts() {
        let wfs = workflows();
        let fleet = run_fleet(&wfs, 2, |_| (lab(), Some(rabit())));
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
        let wfs = workflows();
        let fleet = run_fleet(&wfs, 2, |_| (lab(), None));
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
        assert_eq!(blocked.stage, Some(Stage::Simulator));
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
        let fleet = run_fleet(&wfs[2..], 1, |_| {
            let rabit = Rabit::new(doubly_vetoed(), catalog(), RabitConfig::default());
            (lab(), Some(rabit))
        });
        assert_eq!(violated_rules(&fleet.runs[0]), want, "run_fleet");
        let sub = MiniSubstrate {
            stage: Stage::Testbed,
            rulebase: doubly_vetoed(),
        };
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
        let wfs = workflows();
        let fleet = run_fleet(&wfs, 3, |_| (lab(), Some(rabit())));
        for (i, run) in fleet.runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.workflow, wfs[i].name());
        }
    }
}

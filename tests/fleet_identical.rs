//! Fleet determinism: a 48-workflow fleet (32 seeded mutations of the
//! Fig. 5 workflow plus the 16 catalogued bugs of the study) must yield
//! identical per-workflow alerts, traces, and damage logs at 1, 4, and 8
//! threads.
//!
//! This is the reproducibility contract of `rabit_core::fleet` —
//! thread scheduling may change wall-clock order, but never results.

use rabit::buginject::{catalog, RabitStage};
use rabit::core::Substrate;
use rabit::devices::{ActionKind, Command};
use rabit::geometry::Vec3;
use rabit::testbed::{workflows, Testbed, TestbedSubstrate};
use rabit::tracer::{run_fleet_on, FleetReport, Workflow};
use rabit::util::Rng;

/// Seeded mutations of the Fig. 5 workflow in the fleet.
const MUTATED: usize = 32;

/// Deterministically mutated variants of the Fig. 5 workflow — a few are
/// left safe, the rest get seeded naive-programmer edits so the fleet
/// exercises completed runs, blocked runs, and damaging runs alike —
/// followed by the study's 16 buggy workflows.
fn fleet_workflows() -> Vec<Workflow> {
    let template = Testbed::new();
    let mut rng = Rng::seed_from_u64(0xF1EE7);
    let mutated: Vec<Workflow> = (0..MUTATED)
        .map(|i| {
            let mut wf = workflows::fig5_safe_workflow(&template.locations);
            if i % 4 != 0 {
                // Up to two random edits per workflow.
                for _ in 0..rng.random_range(1..3usize) {
                    mutate(&mut wf, &mut rng);
                }
            }
            wf
        })
        .collect();
    let bugs = catalog()
        .into_iter()
        .map(|bug| bug.buggy_workflow(&template.locations));
    mutated.into_iter().chain(bugs).collect()
}

fn mutate(wf: &mut Workflow, rng: &mut Rng) {
    if wf.is_empty() {
        return;
    }
    let target = Vec3::new(
        rng.random_range(-0.6..1.4),
        rng.random_range(-0.6..0.7),
        rng.random_range(-0.1..0.9),
    );
    match rng.random_range(0..4u32) {
        0 => {
            let i = rng.random_range(0..wf.len());
            wf.delete(i);
        }
        1 => {
            let (a, b) = (rng.random_range(0..wf.len()), rng.random_range(0..wf.len()));
            wf.swap(a, b);
        }
        2 => {
            let i = rng.random_range(0..wf.len());
            let actor = wf.commands()[i].actor.clone();
            wf.replace(
                i,
                Command::new(actor, ActionKind::MoveToLocation { target }),
            );
        }
        _ => {
            let i = rng.random_range(0..wf.len() + 1);
            let actor = if rng.random_bool(0.5) {
                "viperx"
            } else {
                "ned2"
            };
            wf.insert(
                i,
                Command::new(actor, ActionKind::MoveToLocation { target }),
            );
        }
    }
}

/// Runs the fleet at a given thread count. Every third run attaches the
/// Extended Simulator so its collision sweep is exercised under
/// parallelism too.
fn run_at(workflows: &[Workflow], threads: usize) -> FleetReport {
    let with_sim = TestbedSubstrate::study(RabitStage::ModifiedWithSimulator);
    let modified = TestbedSubstrate::study(RabitStage::Modified);
    let jobs: Vec<(&dyn Substrate, &Workflow)> = workflows
        .iter()
        .enumerate()
        .map(|(i, wf)| {
            let substrate: &dyn Substrate = if i % 3 == 0 { &with_sim } else { &modified };
            (substrate, wf)
        })
        .collect();
    run_fleet_on(&jobs, threads)
}

/// Everything observable about a run, as comparable strings:
/// (workflow, commands executed, alert, JSONL trace, damage log).
type RunFingerprint = (String, usize, Option<String>, String, Vec<String>);

fn fingerprint(report: &FleetReport) -> Vec<RunFingerprint> {
    report
        .runs
        .iter()
        .map(|r| {
            (
                r.workflow.clone(),
                r.report.executed,
                r.report.alert.as_ref().map(|a| a.to_string()),
                r.report.trace.to_jsonl(),
                r.damage.iter().map(|d| d.to_string()).collect(),
            )
        })
        .collect()
}

#[test]
fn fleet_results_identical_across_thread_counts() {
    let wfs = fleet_workflows();
    assert_eq!(wfs.len(), MUTATED + catalog().len());

    let serial = run_at(&wfs, 1);
    let reference = fingerprint(&serial);

    // The scenario must be non-trivial: some runs complete, some halt.
    assert!(serial.completed_runs() > 0, "no run completed");
    assert!(
        serial.completed_runs() < wfs.len(),
        "every run completed — mutations too tame"
    );

    for threads in [4, 8] {
        let parallel = run_at(&wfs, threads);
        assert_eq!(parallel.threads, threads);
        let got = fingerprint(&parallel);
        assert_eq!(got.len(), reference.len());
        for (i, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(want, have, "run {i} differs at {threads} threads");
        }
        // Merged views agree too.
        assert_eq!(parallel.alert_summary(), serial.alert_summary());
        assert_eq!(parallel.completed_runs(), serial.completed_runs());
        assert_eq!(parallel.total_damage(), serial.total_damage());
    }
}

#[test]
fn fleet_is_repeatable_within_one_thread_count() {
    let wfs = fleet_workflows();
    let a = run_at(&wfs, 8);
    let b = run_at(&wfs, 8);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

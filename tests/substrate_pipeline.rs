//! The deployment pipeline as a first-class abstraction, end to end:
//! the same safe workflow runs verdict-identical on every substrate, the
//! gated promotion reproduces the paper's per-stage detection counts,
//! and a single fleet mixes stages.

use rabit::buginject::{catalog, run_study_on};
use rabit::core::{Stage, Substrate};
use rabit::production::ProductionDeck;
use rabit::testbed::{locations, workflows, Testbed, TestbedSubstrate};
use rabit::tracer::{run_fleet_on, Tracer, Workflow};

/// The safe Fig. 5 workflow must complete — same verdict, same executed
/// command count, zero damage — on all three substrate implementations:
/// the sim-backed stage, the testbed itself, and the production profile.
#[test]
fn safe_workflow_is_verdict_identical_on_all_three_substrates() {
    let wf = workflows::fig5_safe_workflow(&locations());
    let sim = Testbed::simulator_substrate();
    let testbed = Testbed::new();
    let prod = TestbedSubstrate::for_stage(Stage::Production);
    let substrates: Vec<&dyn Substrate> = vec![&sim, &testbed, &prod];
    let mut executed = Vec::new();
    for substrate in substrates {
        let (mut lab, mut rabit) = substrate.instantiate();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
        assert!(
            report.completed(),
            "false positive on {}: {:?}",
            substrate.name(),
            report.alert
        );
        assert!(
            lab.damage_log().is_empty(),
            "damage on {}",
            substrate.name()
        );
        executed.push(report.executed);
    }
    assert!(
        executed.windows(2).all(|w| w[0] == w[1]),
        "stages executed different command counts: {executed:?}"
    );
}

/// Promoting the 16-bug suite through the canonical pipeline reproduces
/// the per-stage detection counts: the simulator stage (validator
/// attached) detects 13, the physical profiles 12 each.
#[test]
fn pipeline_detection_counts_match_the_study() {
    let pipeline = Testbed::pipeline();
    let counts: Vec<(Stage, usize)> = pipeline
        .substrates()
        .iter()
        .map(|s| (s.stage(), run_study_on(s.as_ref()).detected()))
        .collect();
    assert_eq!(
        counts,
        [
            (Stage::Simulator, 13),
            (Stage::Testbed, 12),
            (Stage::Production, 12),
        ]
    );
}

/// A bug the rules alone catch is blocked at the very first stage: the
/// unsafe command never reaches physical equipment, and the later stages
/// never even run.
#[test]
fn gated_promotion_blocks_bugs_before_physical_stages() {
    let pipeline = Testbed::pipeline();
    let loc = locations();
    let bug = &catalog()[0]; // Bug A: the door is never reopened.
    let wf = bug.buggy_workflow(&loc);
    let report = pipeline.promote(&wf);
    assert!(!report.deployed());
    assert_eq!(report.blocked_at(), Some(Stage::Simulator));
    assert_eq!(report.stages.len(), 1);
    let alert = report.stages[0].report.alert.as_ref();
    assert!(alert.is_some_and(|a| a.is_rabit_detection()), "{alert:?}");
    assert_eq!(report.total_damage(), 0);
    assert!(report.stage(Stage::Testbed).is_none(), "gated out");
    assert!(report.stage(Stage::Production).is_none(), "gated out");
}

/// One fleet, three stages: substrate-generic fleet execution tags every
/// run with its stage and keeps results deterministic across workers.
#[test]
fn a_single_fleet_mixes_deployment_stages() {
    let loc = locations();
    let wf = workflows::fig5_safe_workflow(&loc);
    let sim = Testbed::simulator_substrate();
    let testbed = Testbed::new();
    let prod = TestbedSubstrate::for_stage(Stage::Production);
    let jobs: Vec<(&dyn Substrate, &Workflow)> =
        vec![(&sim, &wf), (&testbed, &wf), (&prod, &wf), (&sim, &wf)];
    let serial = run_fleet_on(&jobs, 1);
    let parallel = run_fleet_on(&jobs, 4);
    assert_eq!(serial.completed_runs(), jobs.len());
    assert_eq!(parallel.completed_runs(), jobs.len());
    assert_eq!(serial.runs_at(Stage::Simulator).count(), 2);
    assert_eq!(serial.runs_at(Stage::Testbed).count(), 1);
    assert_eq!(serial.runs_at(Stage::Production).count(), 1);
    for (a, b) in serial.runs.iter().zip(parallel.runs.iter()) {
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.substrate, b.substrate);
        assert_eq!(a.report.executed, b.report.executed);
        assert_eq!(a.report.lab_time_s, b.report.lab_time_s);
    }
    // The simulator stage actually swept trajectories; physical stages
    // validated nothing virtually.
    let sim_run = serial.runs_at(Stage::Simulator).next().unwrap();
    assert!(sim_run.report.counters.cache_hit_rate().is_some());
    let tb_run = serial.runs_at(Stage::Testbed).next().unwrap();
    assert_eq!(tb_run.report.counters.cache_hit_rate(), None);
}

/// The production deck's two-stage pipeline (no cardboard intermediate)
/// deploys its own reference workflow.
#[test]
fn production_pipeline_skips_the_testbed_stage() {
    use rabit::production::solubility;
    let pipeline = ProductionDeck::pipeline();
    let wf = solubility::solubility_workflow(&solubility::SolubilityParams::default());
    let report = pipeline.promote(&wf);
    assert!(report.deployed(), "blocked at {:?}", report.blocked_at());
    assert_eq!(report.stages.len(), 2);
    assert!(report.stage(Stage::Testbed).is_none());
}

//! Crash/resume differential suite for the campaign runner.
//!
//! The contract under test: a campaign's merged artifact is a pure
//! function of its plan. Killing a run after `k` trials and resuming it
//! must reproduce the uninterrupted artifact byte-for-byte (seeds are
//! derived from the plan, never from execution order); running the same
//! plan at different thread counts must produce identical outcomes and
//! state files (modulo wall-clock fields); and a corrupt or truncated
//! state file must re-run exactly its own trial, with a warning in the
//! manifest, leaving the artifact unchanged.

use rabit::campaign::{plans, CampaignPlan, CampaignRunner, TrialState, TrialStatus};
use rabit::util::{Json, ToJson};
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rabit-campaign-itest-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_to_completion(plan: CampaignPlan, tag: &str, threads: usize) -> (CampaignRunner, PathBuf) {
    let dir = temp_dir(tag);
    let runner = CampaignRunner::new(plan, &dir).expect("plan materializes");
    let summary = runner.run(threads, None).expect("campaign runs");
    assert!(summary.complete());
    (runner, dir)
}

/// A state file with its wall-clock field scrubbed: everything that must
/// be identical across thread counts and resumes.
fn deterministic_state(state: &TrialState) -> String {
    let mut json = state.to_json();
    if let Json::Obj(pairs) = &mut json {
        for (key, value) in pairs.iter_mut() {
            if key == "wall_ms" {
                *value = Json::Null;
            }
        }
    }
    json.to_pretty()
}

#[test]
fn kill_and_resume_is_bit_identical_on_the_48_trial_matrix() {
    let plan = plans::detection_matrix_plan();
    let n = plan.materialize().expect("plan materializes").len();
    assert!(n >= 48, "the detection matrix is the ≥48-trial case");

    let (reference, ref_dir) = run_to_completion(plan.clone(), "ref", 4);
    let want = reference.artifact().expect("artifact written").to_pretty();

    // Sweep the kill point across the matrix: early, halfway, late.
    for k in [5, n / 2, n - 8] {
        let dir = temp_dir(&format!("kill-{k}"));
        let runner = CampaignRunner::new(plan.clone(), &dir).expect("plan materializes");
        let first = runner.run(4, Some(k)).expect("interrupted run");
        assert_eq!(first.executed, k);
        assert!(!first.complete());
        assert!(
            !runner.artifact_path().exists(),
            "no artifact until the matrix completes"
        );
        let second = runner.run(4, None).expect("resumed run");
        assert!(second.complete());
        assert_eq!(second.executed, n - k, "resume runs only the remainder");
        let got = runner.artifact().expect("artifact written").to_pretty();
        assert_eq!(
            got, want,
            "artifact after kill@{k} + resume differs from the uninterrupted run"
        );
        // No trial ran twice.
        assert!(runner.states().iter().all(|s| s.attempt == 1));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn thread_counts_do_not_change_outcomes_or_state_files() {
    let plan = plans::quick_matrix_plan();
    let (serial, serial_dir) = run_to_completion(plan.clone(), "t1", 1);
    let reference_states: Vec<String> = serial.states().iter().map(deterministic_state).collect();
    let reference_artifact = serial.artifact().unwrap().to_pretty();

    for threads in [4, 8] {
        let (parallel, dir) = run_to_completion(plan.clone(), &format!("t{threads}"), threads);
        let got: Vec<String> = parallel.states().iter().map(deterministic_state).collect();
        assert_eq!(got.len(), reference_states.len());
        for (i, (want, have)) in reference_states.iter().zip(&got).enumerate() {
            assert_eq!(want, have, "state file {i} differs at {threads} threads");
        }
        assert_eq!(
            parallel.artifact().unwrap().to_pretty(),
            reference_artifact,
            "merged artifact differs at {threads} threads"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&serial_dir);
}

#[test]
fn corrupt_state_files_rerun_only_their_trials() {
    let plan = plans::quick_matrix_plan();
    let (runner, dir) = run_to_completion(plan.clone(), "corrupt", 2);
    let want = runner.artifact().unwrap().to_pretty();
    let states = runner.states();

    // Truncate one state file mid-byte, replace another with garbage
    // that parses as JSON but fails schema validation, and a third with
    // a million open brackets (deeper than any parser stack).
    let trials = runner.trials();
    let truncated_path = dir.join("trials").join(format!("{}.json", trials[1].id));
    let text = fs::read_to_string(&truncated_path).unwrap();
    fs::write(&truncated_path, &text[..text.len() / 2]).unwrap();
    let invalid_path = dir.join("trials").join(format!("{}.json", trials[5].id));
    fs::write(&invalid_path, "{\"schema\": \"rabit.campaign.trial/v1\"}").unwrap();
    let nested_path = dir.join("trials").join(format!("{}.json", trials[3].id));
    fs::write(&nested_path, "[".repeat(1_000_000)).unwrap();

    let summary = runner.run(2, None).expect("recovery run");
    assert_eq!(
        summary.executed, 3,
        "exactly the three damaged trials re-run, nothing else"
    );
    assert!(summary.complete());
    assert_eq!(
        summary
            .warnings
            .iter()
            .filter(|w| w.contains("corrupt"))
            .count(),
        3,
        "each damaged file leaves a warning: {:?}",
        summary.warnings
    );
    // The warnings are persisted in the manifest.
    let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("corrupt"));
    assert!(manifest.contains("nesting"), "the bracket file's reason");
    // Results are unchanged; only attempt counters moved.
    assert_eq!(runner.artifact().unwrap().to_pretty(), want);
    let after = runner.states();
    for (i, (before, now)) in states.iter().zip(&after).enumerate() {
        assert_eq!(now.status, TrialStatus::Done);
        assert_eq!(
            deterministic_attempt_free(now),
            deterministic_attempt_free(before),
            "trial {i} result changed"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// State with both wall-clock and attempt scrubbed (re-runs bump
/// `attempt` by design).
fn deterministic_attempt_free(state: &TrialState) -> String {
    let mut json = state.to_json();
    if let Json::Obj(pairs) = &mut json {
        for (key, value) in pairs.iter_mut() {
            if key == "wall_ms" || key == "attempt" {
                *value = Json::Null;
            }
        }
    }
    json.to_pretty()
}

#[test]
fn interrupted_and_failed_states_are_reset_with_a_warning() {
    let plan = plans::quick_matrix_plan();
    let (runner, dir) = run_to_completion(plan.clone(), "interrupted", 2);
    let want = runner.artifact().unwrap().to_pretty();
    let trials = runner.trials();

    // Hand-write a Running state (an interrupted trial) and a Failed one.
    let mut states = runner.states();
    states[0].status = TrialStatus::Running;
    states[0].result = None;
    states[2].status = TrialStatus::Failed;
    states[2].result = None;
    for (trial_index, state) in [(0usize, &states[0]), (2, &states[2])] {
        let path = dir
            .join("trials")
            .join(format!("{}.json", trials[trial_index].id));
        fs::write(&path, state.to_json().to_pretty() + "\n").unwrap();
    }

    let summary = runner.run(2, None).expect("recovery run");
    assert_eq!(summary.executed, 2);
    assert!(summary.warnings.iter().any(|w| w.contains("interrupted")));
    assert!(summary.warnings.iter().any(|w| w.contains("failed")));
    assert_eq!(runner.artifact().unwrap().to_pretty(), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seeds_come_from_the_plan_not_execution_order() {
    // Materialize twice, and under a skip list that removes earlier
    // trials: trial 5's seed must not move.
    let plan = plans::quick_matrix_plan();
    let trials = plan.materialize().unwrap();
    let skipped_plan = plan
        .clone()
        .with_skip(trials[0].key())
        .with_skip(trials[1].key());
    let skipped_trials = skipped_plan.materialize().unwrap();
    for (a, b) in trials.iter().zip(&skipped_trials) {
        assert_eq!(
            a.seed, b.seed,
            "skipping earlier trials must not shift later seeds"
        );
    }
    // And the runner persists exactly those seeds.
    let dir = temp_dir("seeds");
    let runner = CampaignRunner::new(plan, &dir).unwrap();
    runner.run(2, None).unwrap();
    for (trial, state) in runner.trials().iter().zip(runner.states()) {
        assert_eq!(trial.seed, state.seed);
    }
    let _ = fs::remove_dir_all(&dir);
}

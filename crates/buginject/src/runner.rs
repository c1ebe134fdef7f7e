//! The study runner: executes each catalogued bug against a deployment
//! substrate and scores detection against the damage oracle.
//!
//! The study's three configurations ([`RabitStage`]) are thin wrappers
//! over [`TestbedSubstrate::study`] profiles; the generic entry points
//! ([`run_bug_on`], [`run_study_on`]) accept *any*
//! [`Substrate`] — the pipeline bench replays the same 16 bugs at every
//! stage of `Testbed::pipeline()` through them.

use crate::catalog::{catalog, Bug, BugCategory};
use rabit_core::{DamageEvent, Severity, Stage, Substrate};
use rabit_testbed::{locations, workflows, RabitStage, TestbedSubstrate};
use rabit_tracer::{run_fleet_on, FleetJob, FleetRun, Workflow};

/// Outcome of one bug under one configuration.
#[derive(Debug)]
pub struct BugOutcome {
    /// The bug's id.
    pub id: &'static str,
    /// §IV category.
    pub category: BugCategory,
    /// Table V severity.
    pub severity: Severity,
    /// Whether RABIT raised an alert (device faults do not count — the
    /// paper's detection rate measures RABIT's own checks).
    pub detected: bool,
    /// The alert text, if any (including device faults).
    pub alert: Option<String>,
    /// Whether the alert was a device fault rather than a RABIT check.
    pub device_fault: bool,
    /// Physical damage that occurred during the (guarded) run.
    pub damage: Vec<DamageEvent>,
}

/// Aggregated study results for one substrate.
#[derive(Debug)]
pub struct StudyResult {
    /// Name of the substrate evaluated.
    pub substrate: String,
    /// The deployment stage it ran at.
    pub stage: Stage,
    /// The study configuration, when the substrate is one of the paper's
    /// three testbed deployments.
    pub config: Option<RabitStage>,
    /// Per-bug outcomes, in catalog order.
    pub outcomes: Vec<BugOutcome>,
}

impl StudyResult {
    /// Number of detected bugs.
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// Detection rate over the 16 bugs.
    pub fn detection_rate(&self) -> f64 {
        self.detected() as f64 / self.outcomes.len() as f64
    }

    /// `(total, detected)` per severity class — one row of Table V.
    pub fn severity_row(&self, severity: Severity) -> (usize, usize) {
        let total = self
            .outcomes
            .iter()
            .filter(|o| o.severity == severity)
            .count();
        let detected = self
            .outcomes
            .iter()
            .filter(|o| o.severity == severity && o.detected)
            .count();
        (total, detected)
    }
}

/// The study profile behind one of the paper's three configurations.
fn study_substrate(stage: RabitStage) -> TestbedSubstrate {
    TestbedSubstrate::study(stage)
}

/// One guarded run of `workflow` on a fresh lab from `substrate`.
fn guarded_run(substrate: &dyn Substrate, workflow: &Workflow) -> FleetRun {
    FleetJob {
        substrate,
        workflow,
        fault: None,
        guarded: true,
        snapshot: None,
    }
    .execute()
    .0
}

fn outcome_of(bug: &Bug, run: FleetRun) -> BugOutcome {
    let alert = run.report.alert.as_ref();
    BugOutcome {
        id: bug.id,
        category: bug.category,
        severity: bug.severity,
        detected: alert.is_some_and(|a| a.is_rabit_detection()),
        alert: alert.map(ToString::to_string),
        device_fault: alert.is_some_and(|a| !a.is_rabit_detection()),
        damage: run.damage,
    }
}

/// Runs one bug on a fresh lab instantiated from `substrate`. The buggy
/// workflow targets the testbed deck topology, so the substrate must
/// realise it (any stage or configuration profile works).
pub fn run_bug_on(bug: &Bug, substrate: &dyn Substrate) -> BugOutcome {
    outcome_of(
        bug,
        guarded_run(substrate, &bug.buggy_workflow(&locations())),
    )
}

/// Runs one bug under one of the study's configurations.
pub fn run_bug(bug: &Bug, stage: RabitStage) -> BugOutcome {
    run_bug_on(bug, &study_substrate(stage))
}

/// Runs the whole 16-bug study against one substrate, as a one-thread
/// guarded fleet: every bug runs on its own fresh lab.
pub fn run_study_on(substrate: &dyn Substrate) -> StudyResult {
    let bugs = catalog();
    let loc = locations();
    let wfs: Vec<Workflow> = bugs.iter().map(|b| b.buggy_workflow(&loc)).collect();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|wf| (substrate, wf)).collect();
    let fleet = run_fleet_on(&jobs, 1);
    let outcomes = bugs
        .iter()
        .zip(fleet.runs)
        .map(|(bug, run)| outcome_of(bug, run))
        .collect();
    StudyResult {
        substrate: substrate.name().to_string(),
        stage: substrate.stage(),
        config: None,
        outcomes,
    }
}

/// Runs the whole 16-bug study under one configuration.
pub fn run_study(stage: RabitStage) -> StudyResult {
    StudyResult {
        config: Some(stage),
        ..run_study_on(&study_substrate(stage))
    }
}

/// Runs the safe workflows on `substrate` and returns the number of
/// false positives (alerts raised on safe behaviour). The paper:
/// "throughout testing, RABIT never produced any false positives."
pub fn false_positives_on(substrate: &dyn Substrate) -> usize {
    let loc = locations();
    [workflows::fig5_safe_workflow, workflows::device_tour]
        .into_iter()
        .filter(|builder| !guarded_run(substrate, &builder(&loc)).report.completed())
        .count()
}

/// [`false_positives_on`] for one of the study's configurations.
pub fn false_positives(stage: RabitStage) -> usize {
    false_positives_on(&study_substrate(stage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DetectedFrom;

    #[test]
    fn baseline_detects_8_of_16() {
        let result = run_study(RabitStage::Baseline);
        for (o, bug) in result.outcomes.iter().zip(catalog()) {
            assert_eq!(
                o.detected,
                bug.detected_from.expected_at(RabitStage::Baseline),
                "{}: alert {:?}, damage {:?}",
                o.id,
                o.alert,
                o.damage
            );
        }
        assert_eq!(result.detected(), 8);
        assert!((result.detection_rate() - 0.50).abs() < 1e-9);
    }

    #[test]
    fn modified_detects_12_of_16() {
        let result = run_study(RabitStage::Modified);
        for (o, bug) in result.outcomes.iter().zip(catalog()) {
            assert_eq!(
                o.detected,
                bug.detected_from.expected_at(RabitStage::Modified),
                "{}: alert {:?}, damage {:?}",
                o.id,
                o.alert,
                o.damage
            );
        }
        assert_eq!(result.detected(), 12);
        assert!((result.detection_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn simulator_detects_13_of_16() {
        let result = run_study(RabitStage::ModifiedWithSimulator);
        for (o, bug) in result.outcomes.iter().zip(catalog()) {
            assert_eq!(
                o.detected,
                bug.detected_from
                    .expected_at(RabitStage::ModifiedWithSimulator),
                "{}: alert {:?}, damage {:?}",
                o.id,
                o.alert,
                o.damage
            );
        }
        assert_eq!(result.detected(), 13);
        assert!((result.detection_rate() - 0.8125).abs() < 1e-9);
    }

    #[test]
    fn table_v_rows_reproduce() {
        // Table V reports the modified configuration.
        let result = run_study(RabitStage::Modified);
        assert_eq!(result.severity_row(Severity::Low), (3, 1));
        assert_eq!(result.severity_row(Severity::MediumLow), (1, 1));
        assert_eq!(result.severity_row(Severity::MediumHigh), (6, 4));
        assert_eq!(result.severity_row(Severity::High), (6, 6));
    }

    #[test]
    fn pipeline_stages_detect_13_12_12() {
        // The canonical promotion pipeline replays the suite at every
        // stage: the simulator stage carries the validator (13/16), the
        // physical profiles run the modified rules alone (12/16).
        let pipeline = rabit_testbed::Testbed::pipeline();
        let counts: Vec<usize> = pipeline
            .substrates()
            .iter()
            .map(|s| run_study_on(s.as_ref()).detected())
            .collect();
        assert_eq!(counts, [13, 12, 12]);
    }

    #[test]
    fn no_false_positives_in_any_configuration() {
        for stage in [
            RabitStage::Baseline,
            RabitStage::Modified,
            RabitStage::ModifiedWithSimulator,
        ] {
            assert_eq!(false_positives(stage), 0, "false positives at {stage:?}");
        }
    }

    #[test]
    fn detected_bugs_cause_no_damage_when_guarded() {
        // RABIT stops the experiment BEFORE the unsafe command executes,
        // so a detected bug must leave the lab unharmed — except for
        // malfunction-style detections, which fire after execution.
        let result = run_study(RabitStage::Modified);
        for o in &result.outcomes {
            if o.detected {
                assert!(
                    o.damage.is_empty(),
                    "{} was detected yet caused damage: {:?}",
                    o.id,
                    o.damage
                );
            }
        }
    }

    #[test]
    fn undetected_physical_bugs_do_damage() {
        // The undetected residue either damages the lab (Bug B/C/D
        // classes) or halts on a device fault (Ned2).
        let result = run_study(RabitStage::Baseline);
        for o in &result.outcomes {
            if o.detected || o.device_fault {
                continue;
            }
            let expects_damage = !matches!(o.id, "concurrent_motion");
            if expects_damage {
                assert!(
                    !o.damage.is_empty(),
                    "{} went undetected but caused no damage either",
                    o.id
                );
            }
        }
    }

    #[test]
    fn ned2_bug_is_a_device_fault() {
        let bug = catalog()
            .into_iter()
            .find(|b| b.id == "ned2_infeasible_high")
            .unwrap();
        let outcome = run_bug(&bug, RabitStage::Baseline);
        assert!(!outcome.detected);
        assert!(
            outcome.device_fault,
            "Ned2 throws and halts: {:?}",
            outcome.alert
        );
        assert!(outcome.damage.is_empty(), "the exception prevented damage");
        assert_eq!(bug.detected_from, DetectedFrom::Never);
    }

    #[test]
    fn silent_skip_is_caught_only_by_the_simulator() {
        let bug = catalog()
            .into_iter()
            .find(|b| b.id == "silent_skip_path")
            .unwrap();
        let base = run_bug(&bug, RabitStage::Modified);
        assert!(!base.detected, "{:?}", base.alert);
        assert!(
            base.damage.iter().any(|d| d.description.contains("grid")),
            "the skipped waypoint must cause the grid collision: {:?}",
            base.damage
        );
        let with_sim = run_bug(&bug, RabitStage::ModifiedWithSimulator);
        assert!(with_sim.detected, "{:?}", with_sim.alert);
        assert!(with_sim.damage.is_empty());
    }
}

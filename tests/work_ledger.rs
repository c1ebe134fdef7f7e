//! Pins the work the §IV study costs, trial by trial.
//!
//! The 16 catalogued bugs plus the `fig5_safe` and `device_tour`
//! workflows run once on each study configuration (Baseline, Modified,
//! ModifiedWithSimulator): 54 cold, guarded trials through
//! [`FleetJob::execute`], with pinned rulebases and no faults. Each trial
//! writes one ledger line: its configuration, workflow, alert kind and
//! executed count, then the verdict-cache, narrow-phase and sweep counters
//! of its [`RunCounters`](rabit::core::RunCounters).
//!
//! Counts are exact on any host, so the committed `ledgers/study.txt`
//! must match to the last count. A change that moves a count on purpose
//! re-takes the ledger on its parent commit's tree and says why in its
//! change notes, as the golden digests are re-taken. On a mismatch the
//! test prints every differing trial and counter, then the whole actual
//! ledger.

use rabit::buginject::{catalog, RabitStage};
use rabit::core::{Alert, FaultPlan};
use rabit::testbed::{locations, workflows, TestbedSubstrate};
use rabit::tracer::{FleetJob, Workflow};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The committed ledger.
const LEDGER: &str = include_str!("ledgers/study.txt");

/// The ledger's column names, in order; the first two name the trial.
const COLUMNS: [&str; 10] = [
    "configuration",
    "workflow",
    "alert",
    "executed",
    "cache_hits",
    "cache_misses",
    "narrow_checks",
    "samples_checked",
    "samples_skipped",
    "distance_queries",
];

/// The study's three configurations, in deployment order.
const CONFIGS: [RabitStage; 3] = [
    RabitStage::Baseline,
    RabitStage::Modified,
    RabitStage::ModifiedWithSimulator,
];

/// The 18 study workflows: the catalogued bugs in study order, then the
/// two safe workflows.
fn study_workflows() -> Vec<Workflow> {
    let loc = locations();
    catalog()
        .iter()
        .map(|bug| bug.buggy_workflow(&loc))
        .chain([
            workflows::fig5_safe_workflow(&loc),
            workflows::device_tour(&loc),
        ])
        .collect()
}

fn alert_kind(alert: Option<&Alert>) -> &'static str {
    match alert {
        None => "none",
        Some(Alert::InvalidCommand { .. }) => "invalid_command",
        Some(Alert::InvalidTrajectory { .. }) => "invalid_trajectory",
        Some(Alert::DeviceMalfunction { .. }) => "device_malfunction",
        Some(Alert::DeviceFault { .. }) => "device_fault",
        Some(_) => "other",
    }
}

/// Runs the 54 trials and writes the ledger: a header naming the
/// columns, then one line per trial.
fn actual_ledger() -> String {
    let mut out = format!("# {}\n", COLUMNS.join(" "));
    let workflows = study_workflows();
    for config in CONFIGS {
        let substrate = TestbedSubstrate::study(config);
        for workflow in &workflows {
            let (run, _lab) = FleetJob {
                substrate: &substrate,
                workflow,
                fault: Some(FaultPlan::none()),
                guarded: true,
                snapshot: None,
            }
            .execute();
            let c = run.report.counters;
            writeln!(
                out,
                "{config:?} {} {} {} {} {} {} {} {} {}",
                workflow.name(),
                alert_kind(run.report.alert.as_ref()),
                run.report.executed,
                c.cache_hits,
                c.cache_misses,
                c.narrow_checks,
                c.sweep.samples_checked,
                c.sweep.samples_skipped,
                c.sweep.distance_queries,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// A ledger's trial lines, keyed on (configuration, workflow), each with
/// its remaining fields.
fn trials(ledger: &str) -> BTreeMap<(&str, &str), Vec<&str>> {
    ledger
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                fields.len(),
                COLUMNS.len(),
                "malformed ledger line {line:?}"
            );
            ((fields[0], fields[1]), fields[2..].to_vec())
        })
        .collect()
}

/// Every difference between the expected and the actual ledger, one
/// line each.
fn differences(expected: &str, actual: &str) -> Vec<String> {
    let (expected, actual) = (trials(expected), trials(actual));
    let mut diffs = Vec::new();
    for (trial @ (config, workflow), want) in &expected {
        match actual.get(trial) {
            None => diffs.push(format!("{config} {workflow}: missing from the run")),
            Some(got) => {
                for ((column, w), g) in COLUMNS[2..].iter().zip(want).zip(got) {
                    if w != g {
                        diffs.push(format!("{config} {workflow}: {column} {w} -> {g}"));
                    }
                }
            }
        }
    }
    for (config, workflow) in actual.keys().filter(|t| !expected.contains_key(t)) {
        diffs.push(format!("{config} {workflow}: not in the ledger"));
    }
    diffs
}

#[test]
fn the_study_does_the_work_its_ledger_records() {
    let actual = actual_ledger();
    let diffs = differences(LEDGER, &actual);
    assert!(
        diffs.is_empty(),
        "{} difference(s) from tests/ledgers/study.txt:\n{}\n\nthe whole actual ledger:\n{actual}",
        diffs.len(),
        diffs.join("\n"),
    );
}

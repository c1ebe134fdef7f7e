//! The open-loop edit generator: due-time latency, lag, and the edit
//! plan's validity.

use rabit_perfbench::edits::{run_open_loop, EditPlan};
use rabit_perfbench::study_tenants;
use rabit_service::RuleStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const RATE_HZ: f64 = 1_000.0;
const STALL: Duration = Duration::from_millis(30);

#[test]
fn a_stalled_generator_shows_due_time_latency_and_lag() {
    let stop = AtomicBool::new(false);
    // Edit 2 stalls for 30 ms; every other edit returns at once. The
    // ~30 edits due during the stall are sent late.
    let stats = run_open_loop(Instant::now(), RATE_HZ, &stop, |i| {
        if i == 2 {
            std::thread::sleep(STALL);
        }
        if i == 60 {
            stop.store(true, Ordering::Release);
        }
        true
    });
    assert_eq!(stats.issued, 61);
    assert_eq!(stats.failed, 0);
    let stall_ns = STALL.as_nanos() as f64;
    // The stalled edit and the first ones queued behind it are late by
    // most of the stall, measured from when they were due.
    assert!(
        stats.latency.quantile(0.99) >= 0.8 * stall_ns,
        "due-time latency must include the stall: p99 {} ns",
        stats.latency.quantile(0.99)
    );
    assert!(
        stats.lag.quantile(0.99) >= 0.7 * stall_ns,
        "edits queued behind the stall are sent late: p99 lag {} ns",
        stats.lag.quantile(0.99)
    );
    // Send-to-receipt would be tiny for all but the stalled edit; timed
    // from their due times, about half of the edits (those queued behind
    // the stall) are late by a millisecond or more.
    assert!(
        stats.latency.quantile(0.6) > 1_000_000.0,
        "p60 {} ns",
        stats.latency.quantile(0.6)
    );
}

#[test]
fn an_on_time_generator_shows_neither() {
    let stop = AtomicBool::new(false);
    let stats = run_open_loop(Instant::now(), RATE_HZ, &stop, |i| {
        if i == 20 {
            stop.store(true, Ordering::Release);
        }
        true
    });
    assert_eq!(stats.issued, 21);
    assert!(
        stats.latency.quantile(0.5) < 1_000_000.0,
        "p50 {} ns",
        stats.latency.quantile(0.5)
    );
}

#[test]
fn failed_receipts_are_counted() {
    let stop = AtomicBool::new(false);
    let stats = run_open_loop(Instant::now(), RATE_HZ, &stop, |i| {
        if i == 9 {
            stop.store(true, Ordering::Release);
        }
        i % 2 == 0
    });
    assert_eq!((stats.issued, stats.failed), (10, 5));
}

#[test]
fn the_edit_plan_always_commits_and_lands_once_per_edit() {
    let store = RuleStore::new();
    let tenants: Vec<_> = study_tenants()
        .into_iter()
        .map(|(id, rulebase)| {
            store.seed_tenant(id.clone(), rulebase);
            id
        })
        .collect();
    let before: Vec<usize> = tenants
        .iter()
        .map(|t| store.snapshot_for(t).expect("seeded").len())
        .collect();
    let mut plan = EditPlan::new(3, tenants.clone());
    for _ in 0..500 {
        let command = plan.next_command();
        let receipt = store
            .apply_ops(&command.tenant, std::slice::from_ref(&command.op))
            .pop()
            .expect("one receipt");
        assert!(receipt.is_ok(), "{receipt:?}");
    }
    let mut total = 0;
    for ((tenant, &issued), &rules) in tenants.iter().zip(plan.issued()).zip(&before) {
        assert_eq!(store.epoch_of(tenant), Some(issued), "{tenant}");
        total += issued;
        // A tenant holds at most the one staged rule on top of its own.
        let now = store.snapshot_for(tenant).expect("seeded").len();
        assert!(now == rules || now == rules + 1, "{tenant}: {now} rules");
    }
    assert_eq!(total, 500);
    assert!(
        plan.issued().iter().all(|&n| n > 100),
        "edits spread over tenants"
    );
}

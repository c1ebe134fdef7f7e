//! The live-CRUD differential suite: the rule service's epoch
//! consistency contract, end to end through real engines and fleets.
//!
//! * a validation that captured epoch *N* is unaffected by a commit
//!   publishing *N + 1*;
//! * a disabled rule stops firing on the next command (and an enabled
//!   one starts);
//! * tenants are isolated — commits to one never perturb another;
//! * broker results are identical for 1, 4, and 8 worker threads;
//! * a bounded-lane broker under forced `Overloaded` sheds + retries is
//!   receipt-identical to an unbounded baseline at 1/4/8 threads;
//! * a live fleet resolves one snapshot per `(tenant, epoch)`, not one
//!   per job;
//! * a store used with a single static epoch is bit-identical to no
//!   store at all ([`run_fleet_on`] vs [`run_fleet_on_live`]).

use rabit_core::{Lab, Stage, Substrate};
use rabit_devices::{DeviceType, DosingDevice, RobotArm, Vial};
use rabit_geometry::{Aabb, Vec3};
use rabit_rulebase::{
    DeviceCatalog, DeviceMeta, Rule, RuleId, Rulebase, RulebaseSnapshot, SnapshotSource, TenantId,
};
use rabit_service::{
    CreateRuleRequest, RuleCommand, RuleCommit, RuleOp, RuleStore, ServiceBroker, ServiceError,
    UpdateRuleRequest,
};
use rabit_tracer::{run_fleet_on, run_fleet_on_live, FleetReport, Tracer, Workflow};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The closed-door rule the bug-A workflow violates.
fn door_rule() -> RuleId {
    RuleId::General(1)
}

struct MiniSubstrate;

impl Substrate for MiniSubstrate {
    fn name(&self) -> &str {
        "mini"
    }
    fn stage(&self) -> Stage {
        Stage::Simulator
    }
    fn build_lab(&self) -> Lab {
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
    fn rulebase(&self) -> RulebaseSnapshot {
        Rulebase::standard().into()
    }
    fn catalog(&self) -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }
}

fn workflows() -> Vec<Workflow> {
    vec![
        Workflow::new("safe")
            .set_door("doser", true)
            .move_inside("viperx", "doser")
            .move_out("viperx")
            .set_door("doser", false),
        // Bug A shape: the door never opens — General(1) fires.
        Workflow::new("bug_a")
            .move_inside("viperx", "doser")
            .move_out("viperx"),
        Workflow::new("safe2").set_door("doser", true),
    ]
}

fn seeded_store() -> Arc<RuleStore> {
    let store = Arc::new(RuleStore::new());
    store.seed_tenant(TenantId::default_tenant(), Rulebase::standard());
    store
}

fn run_live(store: &RuleStore, threads: usize) -> FleetReport {
    let sub = MiniSubstrate;
    let wfs = workflows();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|w| (&sub as _, w)).collect();
    run_fleet_on_live(&jobs, threads, store, &TenantId::default_tenant())
}

#[test]
fn inflight_epoch_n_validation_unaffected_by_commit_to_n_plus_1() {
    let store = seeded_store();
    let tenant = TenantId::default_tenant();
    let sub = MiniSubstrate;

    // An engine built on the epoch-0 snapshot — "in flight".
    let pinned = store.snapshot(&tenant);
    let (mut lab, mut rabit) = sub.instantiate_on(pinned, &rabit_core::FaultPlan::none());

    // A commit lands meanwhile: the door rule is switched off at epoch 1.
    let commit = store
        .set_rule_enabled(&tenant, &door_rule(), false)
        .unwrap();
    assert_eq!(commit.epoch, 1);

    // The in-flight engine still enforces epoch 0: bug_a is caught.
    let bug = &workflows()[1];
    let report = Tracer::guarded(&mut lab, &mut rabit).run(bug);
    assert!(!report.completed(), "epoch-0 engine must still alert");
    assert_eq!(rabit.rulebase_epoch(), 0);

    // A fresh engine from the latest snapshot enforces epoch 1: the
    // disabled rule no longer fires (and nothing else catches bug_a).
    let (mut lab2, mut rabit2) =
        sub.instantiate_on(store.snapshot(&tenant), &rabit_core::FaultPlan::none());
    let report2 = Tracer::guarded(&mut lab2, &mut rabit2).run(bug);
    assert!(report2.completed(), "disabled rule must stop firing");
    assert_eq!(rabit2.rulebase_epoch(), 1);
}

#[test]
fn disabled_rule_stops_firing_on_the_next_fleet() {
    let store = seeded_store();
    let tenant = TenantId::default_tenant();

    // Fleet 1 on epoch 0: bug_a alerts, runs record epoch 0.
    let before = run_live(&store, 2);
    assert_eq!(before.completed_runs(), 2);
    assert!(before.runs.iter().all(|r| r.rulebase_epoch == 0));

    // Live commit: disable the door rule → epoch 1.
    store
        .set_rule_enabled(&tenant, &door_rule(), false)
        .unwrap();

    // Fleet 2 picks up epoch 1 at job start: bug_a sails through.
    let after = run_live(&store, 2);
    assert_eq!(after.completed_runs(), 3, "disabled rule stopped firing");
    assert!(after.runs.iter().all(|r| r.rulebase_epoch == 1));

    // Re-enable → epoch 2, and the detection comes back.
    store.set_rule_enabled(&tenant, &door_rule(), true).unwrap();
    let restored = run_live(&store, 2);
    assert_eq!(restored.completed_runs(), 2);
    assert!(restored.runs.iter().all(|r| r.rulebase_epoch == 2));
}

#[test]
fn tenants_are_isolated() {
    let store = Arc::new(RuleStore::new());
    let hein = TenantId::new("hein");
    let acme = TenantId::new("acme");
    store.seed_tenant(hein.clone(), Rulebase::standard());
    store.seed_tenant(acme.clone(), Rulebase::standard());
    let acme_before = store.snapshot(&acme);

    // A burst of commits to hein only.
    store.set_rule_enabled(&hein, &door_rule(), false).unwrap();
    store
        .create_rule(
            &hein,
            CreateRuleRequest::new(Rule::new(
                RuleId::Custom("hein-only".into()),
                "never fires",
                |_, _, _| None,
            )),
        )
        .unwrap();
    assert_eq!(store.epoch_of(&hein), Some(2));

    // Acme is untouched: same epoch, same publication object.
    assert_eq!(store.epoch_of(&acme), Some(0));
    assert!(store.snapshot(&acme).same_publication(&acme_before));

    // And acme's fleet still detects what hein's no longer does.
    let sub = MiniSubstrate;
    let wfs = workflows();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|w| (&sub as _, w)).collect();
    let acme_fleet = run_fleet_on_live(&jobs, 2, store.as_ref(), &acme);
    assert_eq!(acme_fleet.completed_runs(), 2, "bug_a still caught");
    let hein_fleet = run_fleet_on_live(&jobs, 2, store.as_ref(), &hein);
    assert_eq!(
        hein_fleet.completed_runs(),
        3,
        "door rule disabled for hein"
    );
}

#[test]
fn broker_results_are_identical_across_thread_counts() {
    // The same per-tenant command scripts, applied through brokers with
    // 1, 4, and 8 workers, must leave every tenant at the same epoch
    // with the same rulebase shape.
    let tenants = ["t0", "t1", "t2", "t3"];
    let outcome_for = |threads: usize| -> Vec<(u64, usize, usize)> {
        let store = Arc::new(RuleStore::new());
        for tenant in tenants {
            store.seed_tenant(tenant, Rulebase::standard());
        }
        let broker = ServiceBroker::new(Arc::clone(&store), threads);
        for (i, tenant) in tenants.iter().enumerate() {
            // Script: stage two rules, disable the door rule, enable one
            // staged rule, update the other — tenant-dependent lengths.
            drop(
                broker.submit(RuleCommand::new(
                    *tenant,
                    RuleOp::Create(
                        CreateRuleRequest::new(Rule::new(
                            RuleId::Custom("staged-a".into()),
                            "never fires",
                            |_, _, _| None,
                        ))
                        .disabled(),
                    ),
                )),
            );
            drop(broker.submit(RuleCommand::new(
                *tenant,
                RuleOp::Create(CreateRuleRequest::new(Rule::new(
                    RuleId::Custom("staged-b".into()),
                    "never fires",
                    |_, _, _| None,
                ))),
            )));
            drop(broker.submit(RuleCommand::new(*tenant, RuleOp::Disable(door_rule()))));
            drop(broker.submit(RuleCommand::new(
                *tenant,
                RuleOp::Enable(RuleId::Custom("staged-a".into())),
            )));
            if i % 2 == 0 {
                drop(broker.submit(RuleCommand::new(
                    *tenant,
                    RuleOp::Update(
                        RuleId::Custom("staged-b".into()),
                        UpdateRuleRequest::new().with_enabled(false),
                    ),
                )));
            }
        }
        broker.flush();
        tenants
            .iter()
            .map(|tenant| {
                let snap = store.snapshot(&TenantId::new(*tenant));
                (snap.epoch(), snap.len(), snap.enabled_count())
            })
            .collect()
    };
    let serial = outcome_for(1);
    assert_eq!(serial[0], (5, 13, 11), "epoch, total rules, enabled rules");
    assert_eq!(serial[1], (4, 13, 12));
    assert_eq!(outcome_for(4), serial);
    assert_eq!(outcome_for(8), serial);
}

/// The per-tenant command script for the overload differential: rounds
/// of stage → enable → door-toggle → remove churn, with a per-tenant
/// tail so tenants end at different epochs.
fn churn_script(tenant: &str, index: usize) -> Vec<RuleCommand> {
    let noop = |name: &str| {
        Rule::new(
            RuleId::Custom(name.to_string()),
            "never fires",
            |_, _, _| None,
        )
    };
    let mut script = Vec::new();
    for round in 0..8 {
        let staged = format!("staged-{round}");
        script.push(RuleCommand::new(
            tenant,
            RuleOp::Create(CreateRuleRequest::new(noop(&staged)).disabled()),
        ));
        script.push(RuleCommand::new(
            tenant,
            RuleOp::Enable(RuleId::Custom(staged.clone())),
        ));
        script.push(RuleCommand::new(tenant, RuleOp::Disable(door_rule())));
        script.push(RuleCommand::new(tenant, RuleOp::Enable(door_rule())));
        script.push(RuleCommand::new(
            tenant,
            RuleOp::Remove(RuleId::Custom(staged)),
        ));
    }
    if index.is_multiple_of(2) {
        script.push(RuleCommand::new(
            tenant,
            RuleOp::Create(CreateRuleRequest::new(noop("keeper"))),
        ));
    }
    script
}

#[test]
fn overloaded_bounded_broker_matches_unbounded_baseline() {
    // A bounded-lane broker driven through forced `Overloaded` sheds and
    // retries must produce the same committed receipts (epochs, order,
    // ops), the same final epochs, and the same final rulebases as an
    // effectively-unbounded baseline — at 1, 4, and 8 broker threads.
    let tenants = ["t0", "t1", "t2", "t3"];
    type Outcome = (Vec<Vec<RuleCommit>>, Vec<(u64, usize, usize)>);
    let final_shapes = |store: &RuleStore| -> Vec<(u64, usize, usize)> {
        tenants
            .iter()
            .map(|tenant| {
                let snap = store.snapshot(&TenantId::new(*tenant));
                (snap.epoch(), snap.len(), snap.enabled_count())
            })
            .collect()
    };

    let baseline = |threads: usize| -> Outcome {
        let store = Arc::new(RuleStore::new());
        for tenant in tenants {
            store.seed_tenant(tenant, Rulebase::standard());
        }
        let broker = ServiceBroker::new(Arc::clone(&store), threads);
        let tickets: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| broker.submit_batch(&churn_script(tenant, i)))
            .collect();
        let receipts = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .into_iter()
                    .map(|r| r.expect("baseline script commits cleanly"))
                    .collect()
            })
            .collect();
        (receipts, final_shapes(&store))
    };

    let bounded = |threads: usize| -> (Outcome, u64) {
        let store = Arc::new(RuleStore::new());
        for tenant in tenants {
            store.seed_tenant(tenant, Rulebase::standard());
        }
        // Lane capacity 4: every script overfills its lane many times.
        let broker = ServiceBroker::with_queue_capacity(Arc::clone(&store), threads, 4);
        let mut tickets: Vec<Vec<_>> = Vec::new();
        let mut sheds_seen = 0u64;
        for (i, tenant) in tenants.iter().enumerate() {
            let script = churn_script(tenant, i);
            let mut tenant_tickets = Vec::new();
            // Deterministic shed first: a group larger than the lane can
            // never fit, so its commands all come back `Overloaded`...
            let oversized = &script[..5.min(script.len())];
            let receipts = broker.try_submit_batch(oversized).wait();
            assert!(
                receipts
                    .iter()
                    .all(|r| r == &Err(ServiceError::Overloaded(TenantId::new(*tenant)))),
                "oversized groups are always shed whole"
            );
            sheds_seen += receipts.len() as u64;
            // ...and because shedding is all-or-nothing, resubmitting the
            // same commands (blocking this time) preserves tenant order.
            tenant_tickets.push(broker.submit_batch(oversized));
            // The rest goes through the non-blocking path with retries:
            // a chunk that sheds is retried until admitted, so per-tenant
            // order is never torn.
            let mut shed_base = broker.stats().shed_commands;
            for chunk in script[5.min(script.len())..].chunks(3) {
                loop {
                    let ticket = broker.try_submit_batch(chunk);
                    let shed_now = broker.stats().shed_commands;
                    if shed_now > shed_base {
                        shed_base = shed_now;
                        sheds_seen += chunk.len() as u64;
                        drop(ticket.wait());
                        std::thread::yield_now();
                        continue;
                    }
                    tenant_tickets.push(ticket);
                    break;
                }
            }
            tickets.push(tenant_tickets);
        }
        let receipts = tickets
            .into_iter()
            .map(|tenant_tickets| {
                tenant_tickets
                    .into_iter()
                    .flat_map(|t| t.wait())
                    .map(|r| r.expect("admitted commands commit cleanly"))
                    .collect()
            })
            .collect();
        assert_eq!(broker.stats().shed_commands, sheds_seen);
        ((receipts, final_shapes(&store)), sheds_seen)
    };

    let expected = baseline(1);
    assert_eq!(baseline(4), expected, "baseline thread-count identity");
    for threads in [1, 4, 8] {
        let (outcome, sheds) = bounded(threads);
        assert!(
            sheds >= 5 * tenants.len() as u64,
            "overload was actually forced at {threads} threads"
        );
        assert_eq!(
            outcome, expected,
            "bounded broker at {threads} threads diverged from baseline"
        );
    }
}

/// A [`SnapshotSource`] wrapper counting full snapshot resolutions.
struct CountingSource {
    inner: Arc<RuleStore>,
    snapshots: AtomicU64,
}

impl SnapshotSource for CountingSource {
    fn snapshot(&self, tenant: &TenantId) -> RulebaseSnapshot {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.inner.snapshot(tenant)
    }
    fn snapshot_epoch(&self, tenant: &TenantId) -> Option<u64> {
        self.inner.snapshot_epoch(tenant)
    }
}

#[test]
fn live_fleet_resolves_one_snapshot_per_epoch() {
    // A fleet over an unchanging store must hit the store once, not
    // once per job — and still pick up a commit landing between fleets.
    let store = seeded_store();
    let tenant = TenantId::default_tenant();
    let source = CountingSource {
        inner: Arc::clone(&store),
        snapshots: AtomicU64::new(0),
    };
    let sub = MiniSubstrate;
    let wfs = workflows();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|w| (&sub as _, w)).collect();

    let fleet = run_fleet_on_live(&jobs, 2, &source, &tenant);
    assert_eq!(
        source.snapshots.load(Ordering::Relaxed),
        1,
        "one fetch serves the whole fleet"
    );
    assert!(fleet.runs.iter().all(|r| r.rulebase_epoch == 0));

    // A commit between fleets is still observed (epoch probe misses).
    store
        .set_rule_enabled(&tenant, &door_rule(), false)
        .unwrap();
    let fleet = run_fleet_on_live(&jobs, 2, &source, &tenant);
    assert_eq!(source.snapshots.load(Ordering::Relaxed), 2);
    assert!(fleet.runs.iter().all(|r| r.rulebase_epoch == 1));
    assert_eq!(fleet.completed_runs(), 3, "disabled rule stopped firing");
}

#[test]
fn static_store_fleet_is_bit_identical_to_no_store() {
    // A seeded, never-committed store must be invisible: same verdicts,
    // same damage, same cache behaviour as the plain substrate path.
    let store = seeded_store();
    let sub = MiniSubstrate;
    let wfs = workflows();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|w| (&sub as _, w)).collect();
    let plain = run_fleet_on(&jobs, 2);
    let live = run_live(&store, 2);
    assert_eq!(plain.runs.len(), live.runs.len());
    for (p, l) in plain.runs.iter().zip(&live.runs) {
        assert_eq!(p.report.completed(), l.report.completed());
        assert_eq!(
            p.report.alert.as_ref().map(|a| a.headline()),
            l.report.alert.as_ref().map(|a| a.headline())
        );
        assert_eq!(p.report.executed, l.report.executed);
        assert_eq!(p.report.lab_time_s, l.report.lab_time_s);
        assert_eq!(p.damage.len(), l.damage.len());
        assert_eq!(p.report.counters, l.report.counters);
        assert_eq!(l.rulebase_epoch, 0, "static store pins epoch 0");
    }
}

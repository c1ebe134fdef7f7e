//! Rule-service churn benchmark.
//!
//! Exercises the versioned multi-tenant rule service the way a busy
//! deployment would: several tenants' rulebases under continuous live
//! CRUD through the [`ServiceBroker`], while validation traffic keeps
//! pulling fresh snapshots and checking commands against them. Three
//! phases come out:
//!
//! * **commands/sec** — broker commit throughput: per-tenant scripts of
//!   enable/disable toggles, rule creates, partial updates, and removes,
//!   pre-built off the clock, then pushed by one submitter thread per
//!   tenant through [`ServiceBroker::submit_batch`] and timed end to end
//!   (first submit → flush). One run takes well under a second, so the
//!   phase is repeated on fresh stores and every repeat's rate is
//!   recorded with the median and IQR. Full-mode runs are gated by the
//!   `SERVICE_MIN_CMDS_PER_SEC` schema floor on the slowest repeat.
//! * **overload probe** — a deliberately tiny bounded broker
//!   ([`ServiceBroker::with_queue_capacity`]) fed through
//!   [`ServiceBroker::try_submit_batch`]: an oversized command group is
//!   shed with `ServiceError::Overloaded` (typed backpressure, not a
//!   stall), and the remaining traffic lands under retry — proving shed
//!   commands are observable and non-destructive.
//! * **p50/p99 check latency (µs)** — the cost one validation pays under
//!   churn: snapshot the tenant's latest publication and run a rule
//!   check against it, timed per call while a background churn thread
//!   keeps committing batches. Copy-on-write snapshots mean the check
//!   never takes more than the brief publication lock — the p99 is the
//!   proof.
//!
//! The emitted envelope carries the broker's ingestion counters
//! (`queue_depth_peak`, `shed_commands`, `worker_parks`, `batches`) so
//! CI can assert the backpressure surface is really wired up.
//!
//! Writes `BENCH_service.json` (envelope kind `"service"`, validated on
//! write and by the `bench_schema` CI check) and prints the tables.
//! `--quick` runs a reduced pass for CI smoke checks.
//!
//! Run with `cargo run --release -p rabit-bench --bin service -- [--quick]`.

use rabit_bench::histogram::{percentile_interp, percentile_us};
use rabit_bench::report::render_table;
use rabit_devices::{ActionKind, Command, DeviceState, DeviceType, LabState, StateKey};
use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rule, RuleId, Rulebase, TenantId};
use rabit_service::{
    BrokerStats, CreateRuleRequest, RuleCommand, RuleOp, RuleStore, ServiceBroker,
    UpdateRuleRequest,
};
use rabit_util::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tenants churned concurrently (the schema's multi-tenant floor is 4).
const TENANTS: usize = 6;
/// Broker worker threads.
const BROKER_THREADS: usize = 4;
/// Commit rounds per tenant in the throughput phase (each round is 5
/// commands: create, disable, update, enable, remove).
const ROUNDS: usize = 8_000;
const ROUNDS_QUICK: usize = 200;
/// Throughput-phase repeats, each on a fresh store.
const REPEATS: usize = 7;
const REPEATS_QUICK: usize = 1;
/// Commands per submitted batch in the throughput phase (32 rounds).
const BATCH_COMMANDS: usize = 160;
/// Lane capacity of the overload-probe broker — small on purpose.
const PROBE_CAPACITY: usize = 16;
/// Enable/disable toggle pairs pushed through the probe broker.
const PROBE_TOGGLES: usize = 512;
const PROBE_TOGGLES_QUICK: usize = 64;
/// Timed validation checks in the latency phase.
const CHECKS: usize = 20_000;
const CHECKS_QUICK: usize = 2_000;

fn tenant(i: usize) -> TenantId {
    TenantId::new(format!("lab{i}"))
}

/// A rule that never fires — the churn payload.
fn staged_rule(name: &str) -> Rule {
    Rule::new(
        RuleId::Custom(name.to_string()),
        "staged by bench",
        |_, _, _| None,
    )
}

/// One churn round for a tenant: create a rule, toggle a general rule
/// off and back on, partially update the staged rule, then remove it —
/// five commits that leave the rulebase exactly where it started (but
/// five epochs later), so commit cost stays flat over the run.
fn round_commands(tenant: &TenantId, round: usize) -> [RuleCommand; 5] {
    let name = format!("staged-{round}");
    let toggled = RuleId::General((round % 11) as u8 + 1);
    [
        RuleCommand::new(
            tenant.clone(),
            RuleOp::Create(CreateRuleRequest::new(staged_rule(&name)).disabled()),
        ),
        RuleCommand::new(tenant.clone(), RuleOp::Disable(toggled.clone())),
        RuleCommand::new(
            tenant.clone(),
            RuleOp::Update(
                RuleId::Custom(name.clone()),
                UpdateRuleRequest::new().with_enabled(true),
            ),
        ),
        RuleCommand::new(tenant.clone(), RuleOp::Enable(toggled)),
        RuleCommand::new(tenant.clone(), RuleOp::Remove(RuleId::Custom(name))),
    ]
}

/// The per-tenant throughput script: `rounds` rounds, pre-built so the
/// timed region measures ingestion, not `format!`.
fn build_script(tenant: &TenantId, rounds: usize) -> Vec<RuleCommand> {
    (0..rounds)
        .flat_map(|round| round_commands(tenant, round))
        .collect()
}

/// The validation workload: a command + state + catalog that walks the
/// full dispatch path of the hein rulebase (an arm entering a dosing
/// system with its door open — every door rule is consulted, none fire).
fn check_fixture() -> (Command, LabState, DeviceCatalog) {
    let command = Command::new(
        "arm",
        ActionKind::MoveInsideDevice {
            device: "doser".into(),
        },
    );
    let mut state = LabState::new();
    state.insert(
        "arm",
        DeviceState::new().with(StateKey::Holding, None::<rabit_devices::DeviceId>),
    );
    state.insert("doser", DeviceState::new().with(StateKey::DoorOpen, true));
    let catalog = DeviceCatalog::new()
        .with(DeviceMeta::new("arm", DeviceType::RobotArm))
        .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door());
    (command, state, catalog)
}

/// Phase 1: batched commit throughput across all tenants of a freshly
/// seeded store — one submitter thread per tenant pushing
/// `BATCH_COMMANDS`-command batches. Returns (the store, wall seconds,
/// broker counters).
fn throughput_phase(rounds: usize) -> (Arc<RuleStore>, f64, BrokerStats) {
    let store = Arc::new(RuleStore::new());
    for i in 0..TENANTS {
        store.seed_tenant(tenant(i), Rulebase::hein_lab());
    }
    let scripts: Vec<Vec<RuleCommand>> = (0..TENANTS)
        .map(|i| build_script(&tenant(i), rounds))
        .collect();
    let broker = ServiceBroker::new(Arc::clone(&store), BROKER_THREADS);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for script in &scripts {
            scope.spawn(|| {
                for chunk in script.chunks(BATCH_COMMANDS) {
                    // Receipts are not needed at wire speed; dropping
                    // the ticket discards them, flush() still fences.
                    drop(broker.submit_batch(chunk));
                }
            });
        }
    });
    broker.flush();
    let wall_s = t0.elapsed().as_secs_f64();
    for i in 0..TENANTS {
        let epoch = store.epoch_of(&tenant(i)).expect("seeded tenant");
        assert_eq!(
            epoch,
            (rounds * 5) as u64,
            "every commit of tenant {i} must have landed"
        );
    }
    (store, wall_s, broker.stats())
}

/// Phase 2: overload probe on a deliberately tiny bounded broker.
/// Returns its counters; panics unless shedding was observed and all
/// retried traffic landed exactly once.
fn overload_phase(store: &Arc<RuleStore>, toggles: usize) -> BrokerStats {
    let target = tenant(0);
    let epoch_before = store.epoch_of(&target).expect("seeded tenant");
    let broker =
        ServiceBroker::with_queue_capacity(Arc::clone(store), BROKER_THREADS, PROBE_CAPACITY);

    // A single-tenant group wider than the lane can never be admitted
    // whole, so it is shed in full — deterministic typed backpressure.
    let oversized: Vec<RuleCommand> = (0..PROBE_CAPACITY + 1)
        .map(|i| {
            let id = RuleId::General((i % 11) as u8 + 1);
            RuleCommand::new(target.clone(), RuleOp::Enable(id))
        })
        .collect();
    let receipts = broker.try_submit_batch(&oversized).wait();
    assert!(
        receipts.iter().all(|r| r.is_err()),
        "oversized group must shed every command"
    );

    // Real traffic under retry: toggle pairs in lane-sized chunks. A
    // chunk is all-or-nothing for its tenant group, so a shed chunk is
    // simply resubmitted until the lane has room.
    let script: Vec<RuleCommand> = (0..toggles)
        .flat_map(|i| {
            let id = RuleId::General((i % 11) as u8 + 1);
            [
                RuleCommand::new(target.clone(), RuleOp::Disable(id.clone())),
                RuleCommand::new(target.clone(), RuleOp::Enable(id)),
            ]
        })
        .collect();
    for chunk in script.chunks(PROBE_CAPACITY / 2) {
        loop {
            let receipts = broker.try_submit_batch(chunk).wait();
            if receipts.iter().all(|r| r.is_ok()) {
                break;
            }
            std::thread::yield_now();
        }
    }
    broker.flush();

    let stats = broker.stats();
    assert!(
        stats.shed_commands >= (PROBE_CAPACITY + 1) as u64,
        "probe must observe shedding (saw {})",
        stats.shed_commands
    );
    let epoch_after = store.epoch_of(&target).expect("seeded tenant");
    assert_eq!(
        epoch_after - epoch_before,
        (toggles * 2) as u64,
        "every retried toggle must land exactly once"
    );
    stats
}

/// Phase 3: per-check latency while a churn thread keeps committing
/// batches. Returns (sorted latencies ns, churn rounds landed).
fn latency_phase(store: &Arc<RuleStore>, rounds: usize, checks: usize) -> (Vec<u64>, usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let broker_store = Arc::clone(store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let broker = ServiceBroker::new(broker_store, BROKER_THREADS);
            let mut round = rounds;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..TENANTS {
                    drop(broker.submit_batch(&round_commands(&tenant(i), round)));
                }
                round += 1;
            }
            broker.flush();
            round - rounds
        })
    };
    // Don't start the clock until churn commits are actually landing —
    // a warm check loop can otherwise finish before the churn broker's
    // workers have spun up, and "latency under churn" would be a lie.
    let baseline = store.epoch_of(&tenant(0)).expect("seeded tenant");
    while store.epoch_of(&tenant(0)).expect("seeded tenant") <= baseline {
        std::thread::yield_now();
    }
    let (command, state, catalog) = check_fixture();
    let mut latencies_ns = Vec::with_capacity(checks);
    use rabit_rulebase::SnapshotSource;
    for i in 0..checks {
        let target = tenant(i % TENANTS);
        let t = Instant::now();
        let snapshot = store.snapshot(&target);
        let violations = snapshot.check(&command, &state, &catalog);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        assert!(violations.is_empty(), "fixture is violation-free");
    }
    stop.store(true, Ordering::Relaxed);
    let churn_rounds = churner.join().expect("churn thread");
    latencies_ns.sort_unstable();
    (latencies_ns, churn_rounds)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { ROUNDS_QUICK } else { ROUNDS };
    let toggles = if quick {
        PROBE_TOGGLES_QUICK
    } else {
        PROBE_TOGGLES
    };
    let checks = if quick { CHECKS_QUICK } else { CHECKS };
    let repeats = if quick { REPEATS_QUICK } else { REPEATS };

    let commands = TENANTS * rounds * 5;
    let runs: Vec<_> = (0..repeats).map(|_| throughput_phase(rounds)).collect();
    let rates: Vec<f64> = runs.iter().map(|r| commands as f64 / r.1).collect();
    let mut measured: Vec<BrokerStats> = runs.iter().map(|r| r.2).collect();
    let rate_median = percentile_interp(&rates, 0.50);
    let rate_iqr = percentile_interp(&rates, 0.75) - percentile_interp(&rates, 0.25);
    let rate_min = rates.iter().copied().fold(f64::INFINITY, f64::min);

    // The probe and the latency phase run on the last repeat's store.
    let store = &runs.last().expect("at least one repeat").0;
    measured.push(overload_phase(store, toggles));

    let (latencies_ns, churn_rounds) = latency_phase(store, rounds, checks);
    let p50 = percentile_us(&latencies_ns, 0.50);
    let p99 = percentile_us(&latencies_ns, 0.99);

    // One counter set for the envelope: sum the monotonic counters over
    // every measured broker, take the deepest lane peak.
    let queue_depth_peak = measured
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    let shed_commands: u64 = measured.iter().map(|s| s.shed_commands).sum();
    let worker_parks: u64 = measured.iter().map(|s| s.worker_parks).sum();
    let batches: u64 = measured.iter().map(|s| s.batches).sum();

    println!("\n# rule service under churn\n");
    println!(
        "{}",
        render_table(
            &["metric", "value"],
            &[
                vec!["tenants".into(), TENANTS.to_string()],
                vec!["broker threads".into(), BROKER_THREADS.to_string()],
                vec!["commands committed per repeat".into(), commands.to_string()],
                vec!["throughput repeats".into(), repeats.to_string()],
                vec!["commands/sec, median".into(), format!("{rate_median:.0}")],
                vec!["commands/sec, IQR".into(), format!("{rate_iqr:.0}")],
                vec!["commands/sec, slowest".into(), format!("{rate_min:.0}")],
                vec!["store commits (batches)".into(), batches.to_string()],
                vec!["queue depth peak".into(), queue_depth_peak.to_string()],
                vec!["commands shed (probe)".into(), shed_commands.to_string()],
                vec!["worker parks".into(), worker_parks.to_string()],
                vec!["checks timed".into(), checks.to_string()],
                vec![
                    "churn rounds behind checks".into(),
                    churn_rounds.to_string()
                ],
                vec!["check p50 (µs)".into(), format!("{p50:.2}")],
                vec!["check p99 (µs)".into(), format!("{p99:.2}")],
            ],
        )
    );

    rabit_bench::schema::write_artifact_with_kind(
        "service",
        "service",
        Json::obj([
            ("quick_mode", Json::Bool(quick)),
            ("tenants", Json::Num(TENANTS as f64)),
            ("broker_threads", Json::Num(BROKER_THREADS as f64)),
            ("rounds_per_tenant", Json::Num(rounds as f64)),
            ("throughput_repeats", Json::Num(repeats as f64)),
            ("batch_commands", Json::Num(BATCH_COMMANDS as f64)),
            ("probe_capacity", Json::Num(PROBE_CAPACITY as f64)),
            ("checks_timed", Json::Num(checks as f64)),
        ]),
        Json::obj([
            ("tenants", Json::Num(TENANTS as f64)),
            ("commands_committed", Json::Num(commands as f64)),
            (
                "commands_per_sec_repeats",
                Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect()),
            ),
            ("commands_per_sec_median", Json::Num(rate_median)),
            ("commands_per_sec_iqr", Json::Num(rate_iqr)),
            ("batches", Json::Num(batches as f64)),
            ("queue_depth_peak", Json::Num(queue_depth_peak as f64)),
            ("shed_commands", Json::Num(shed_commands as f64)),
            ("worker_parks", Json::Num(worker_parks as f64)),
            ("p50_check_latency_us", Json::Num(p50)),
            ("p99_check_latency_us", Json::Num(p99)),
            ("churn_rounds_during_checks", Json::Num(churn_rounds as f64)),
        ]),
    );
}

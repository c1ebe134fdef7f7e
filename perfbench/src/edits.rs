//! Live rule edits: an open-loop generator issuing verdict-neutral CRUD
//! through a one-worker [`ServiceBroker`].
//!
//! Edit `i` is due at `start + i / rate`. The generator waits for each
//! receipt before issuing the next edit, so a stalled commit delays the
//! edits behind it; latency is therefore timed from the *due* time, not
//! the send time, and the send delay (`lag`) is recorded too. At the
//! configured rate a commit takes a small fraction of the period, so in
//! steady state the generator runs on schedule.
//!
//! The edits never change a verdict: per tenant they cycle one staged
//! rule through create (disabled), update, enable, disable and remove,
//! and the staged rule never fires.

use crate::stats::Histogram;
use rabit_devices::ActionClass;
use rabit_rulebase::{Rule, RuleId, Rulebase, TenantId};
use rabit_service::{
    BrokerStats, CreateRuleRequest, RuleCommand, RuleOp, RuleStore, ServiceBroker,
    UpdateRuleRequest,
};
use rabit_util::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edits per second the generator issues, in every workload.
///
/// A placeholder, not a recorded rate: the repo holds no record of real
/// rule-edit traffic. The only edits it records are the RAD promoter's
/// (5 commits over 112M mined commands in `BENCH_rad.json`), far below
/// this. The rate is chosen so the write path runs next to the read path
/// in every window while the edits' own CPU time (the spin before each
/// due time, the broker's commit) touches only about 2% of replay laps.
/// Commit latency is per-layer only, so no scored metric sees the write
/// path.
pub const EDIT_RATE_HZ: f64 = 50.0;

/// The generator sleeps until this close to an edit's due time, then
/// spins, so the OS timer's wake-up slack does not show up as lag.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Longest single sleep while waiting for a due time.
const MAX_NAP: Duration = Duration::from_millis(10);

/// What an open-loop run observed.
#[derive(Debug, Clone)]
pub struct LoopStats {
    /// Due time to receipt, per issued edit (ns).
    pub latency: Histogram,
    /// Due time to send, per issued edit (ns).
    pub lag: Histogram,
    /// Edits issued.
    pub issued: u64,
    /// Edits whose receipt was not a successful commit.
    pub failed: u64,
}

/// Waits until `due` (or until `stop` is raised); returns whether the
/// wait ran to the due time.
fn wait_until(due: Instant, stop: &AtomicBool) -> bool {
    loop {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let now = Instant::now();
        if now >= due {
            return true;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            // Naps are capped so a raised `stop` is seen promptly.
            std::thread::sleep((left - SPIN_WINDOW).min(MAX_NAP));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs the open-loop schedule until `stop` is raised: edit `i` is due
/// at `start + i / rate_hz` and `issue(i)` sends it and waits for its
/// receipt, returning whether it committed.
pub fn run_open_loop(
    start: Instant,
    rate_hz: f64,
    stop: &AtomicBool,
    mut issue: impl FnMut(u64) -> bool,
) -> LoopStats {
    let mut stats = LoopStats {
        latency: Histogram::new(),
        lag: Histogram::new(),
        issued: 0,
        failed: 0,
    };
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
        if !wait_until(due, stop) {
            break;
        }
        let sent = Instant::now();
        let ok = issue(i);
        let done = Instant::now();
        stats.lag.record(sent.duration_since(due).as_nanos() as u64);
        stats
            .latency
            .record(done.duration_since(due).as_nanos() as u64);
        stats.issued += 1;
        if !ok {
            stats.failed += 1;
        }
    }
    stats
}

/// The staged rule: dispatched for free-space moves, never fires.
fn staged_rule(name: &str, revision: u64) -> Rule {
    Rule::new(
        RuleId::Custom(name.to_string()),
        format!("staged rule under review (revision {revision}); never fires"),
        |_, _, _| None,
    )
    .with_actions(&[ActionClass::MoveToLocation])
}

/// Seeded, always-valid edit sequence spread over the tenants.
#[derive(Debug)]
pub struct EditPlan {
    rng: Rng,
    tenants: Vec<TenantId>,
    /// Edits issued so far, per tenant (drives each tenant's cycle).
    issued: Vec<u64>,
}

impl EditPlan {
    /// A plan over `tenants`, seeded.
    pub fn new(seed: u64, tenants: Vec<TenantId>) -> Self {
        let issued = vec![0; tenants.len()];
        EditPlan {
            rng: Rng::seed_from_u64(seed ^ 0x5eed_ed17),
            tenants,
            issued,
        }
    }

    /// The next edit.
    pub fn next_command(&mut self) -> RuleCommand {
        let t = self.rng.random_range(0..self.tenants.len());
        let k = self.issued[t];
        self.issued[t] += 1;
        let name = format!("perfbench-staged-{}", k / 5);
        let id = RuleId::Custom(name.clone());
        let op = match k % 5 {
            0 => RuleOp::Create(CreateRuleRequest::new(staged_rule(&name, 1)).disabled()),
            1 => RuleOp::Update(
                id,
                UpdateRuleRequest::new().with_rule(staged_rule(&name, 2)),
            ),
            2 => RuleOp::Enable(id),
            3 => RuleOp::Disable(id),
            _ => RuleOp::Remove(id),
        };
        RuleCommand::new(self.tenants[t].clone(), op)
    }

    /// Edits issued so far, per tenant, in tenant order.
    pub fn issued(&self) -> &[u64] {
        &self.issued
    }
}

/// A rule store with one tenant per configuration, fronted by a
/// one-worker broker.
pub struct EditService {
    store: Arc<RuleStore>,
    broker: ServiceBroker,
    tenants: Vec<TenantId>,
}

/// The generator's results plus the broker's view after a flush.
#[derive(Debug, Clone)]
pub struct EditSummary {
    /// The open-loop measurements.
    pub stats: LoopStats,
    /// Broker counters after the flush.
    pub broker: BrokerStats,
    /// Tenants whose final epoch differs from the edits issued to them.
    pub epoch_mismatches: u64,
}

impl EditService {
    /// Seeds one tenant per `(name, rulebase)` and starts the broker.
    pub fn new(tenants: Vec<(TenantId, Rulebase)>) -> Self {
        let store = Arc::new(RuleStore::new());
        let ids = tenants
            .into_iter()
            .map(|(id, rulebase)| {
                store.seed_tenant(id.clone(), rulebase);
                id
            })
            .collect();
        let broker = ServiceBroker::new(Arc::clone(&store), 1);
        EditService {
            store,
            broker,
            tenants: ids,
        }
    }

    /// The shared store trials resolve their snapshots from.
    pub fn store(&self) -> &RuleStore {
        &self.store
    }

    /// Issues edits open-loop from `start` until `stop`, then flushes
    /// the broker and checks that every edit landed exactly once.
    pub fn generate(&self, seed: u64, start: Instant, stop: &AtomicBool) -> EditSummary {
        let mut plan = EditPlan::new(seed, self.tenants.clone());
        let stats = run_open_loop(start, EDIT_RATE_HZ, stop, |_| {
            let command = plan.next_command();
            // Non-blocking admission: an overloaded lane sheds the edit,
            // which then counts as a failure.
            let ticket = self.broker.try_submit_batch(std::slice::from_ref(&command));
            ticket.wait().iter().all(Result::is_ok)
        });
        self.broker.flush();
        let epoch_mismatches = self
            .tenants
            .iter()
            .zip(plan.issued())
            .filter(|(tenant, &issued)| self.store.epoch_of(tenant) != Some(issued))
            .count() as u64;
        EditSummary {
            stats,
            broker: self.broker.stats(),
            epoch_mismatches,
        }
    }
}

//! The batched rule-command broker.
//!
//! [`ServiceBroker`] fronts a shared [`RuleStore`] with a pool of
//! worker threads and **one bounded FIFO lane per tenant**: commands
//! for one tenant commit strictly in submission order (so a tenant's
//! epoch history is the same for any worker count), while different
//! tenants commit in parallel. The differential suite checks this at 1,
//! 4, and 8 threads; it holds because epochs are per tenant, so
//! cross-tenant commit interleaving is unobservable.
//!
//! One mutex guards the lanes, a FIFO of runnable tenants, the
//! in-flight count and the counters. A worker claims the oldest
//! runnable tenant, drains up to `DRAIN_MAX` of its commands, commits
//! them with one [`RuleStore::apply_ops`] outside the lock, and puts
//! the lane back at the end of the FIFO if it still holds commands. A
//! lane's `scheduled` flag keeps it with at most one worker, which is
//! what turns lane order into commit order. Idle workers wait on one
//! condvar; producers blocked on a full lane and
//! [`ServiceBroker::flush`] wait on another, each in a predicate loop
//! under the lock, so no wakeup can be lost.
//!
//! [`ServiceBroker::submit_batch`] admits N commands with one lock
//! acquisition and one reply block ([`BatchTicket`]).
//! [`ServiceBroker::try_submit_batch`] instead *sheds* a tenant group
//! that does not fit its lane, whole, with typed
//! [`ServiceError::Overloaded`] receipts, so a retry can never reorder
//! a tenant's commands.

use crate::store::{RuleCommit, RuleOp, RuleStore, ServiceError};
use rabit_rulebase::TenantId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Default per-tenant lane capacity (commands).
const DEFAULT_QUEUE_CAPACITY: usize = 4096;
/// Most jobs a worker drains from a lane into one store commit.
const DRAIN_MAX: usize = 256;

const POISONED: &str = "broker state poisoned";

/// A tenant-addressed [`RuleOp`] — the broker's submission unit.
#[derive(Debug, Clone)]
pub struct RuleCommand {
    /// The tenant the operation addresses.
    pub tenant: TenantId,
    /// The operation.
    pub op: RuleOp,
}

impl RuleCommand {
    /// A command for `tenant`.
    pub fn new(tenant: impl Into<TenantId>, op: RuleOp) -> Self {
        RuleCommand {
            tenant: tenant.into(),
            op,
        }
    }
}

type Receipt = Result<RuleCommit, ServiceError>;

/// One submitted batch's receipts: a slot per command and the count
/// still open.
#[derive(Debug)]
struct Receipts {
    slots: Vec<Option<Receipt>>,
    open: usize,
}

/// Shared completion state for one submitted batch.
#[derive(Debug)]
struct BatchState {
    receipts: Mutex<Receipts>,
    done: Condvar,
}

impl BatchState {
    /// Fills the given slots under one lock and wakes the waiter when
    /// none is left open.
    fn complete(&self, filled: impl Iterator<Item = (usize, Receipt)>) {
        let mut receipts = self.receipts.lock().expect(POISONED);
        for (slot, receipt) in filled {
            receipts.slots[slot] = Some(receipt);
            receipts.open -= 1;
        }
        if receipts.open == 0 {
            self.done.notify_all();
        }
    }
}

/// The receipt channel for one submitted batch: a single shared reply
/// slot for all N commands.
#[derive(Debug)]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl BatchTicket {
    /// How many commands the batch carried.
    pub fn len(&self) -> usize {
        self.state.receipts.lock().expect(POISONED).slots.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until every command in the batch has an outcome, then
    /// returns them in submission order. Shed commands resolve to
    /// [`ServiceError::Overloaded`]. Dropping the ticket instead just
    /// discards the receipts; the commits stand.
    pub fn wait(self) -> Vec<Result<RuleCommit, ServiceError>> {
        let mut receipts = self.state.receipts.lock().expect(POISONED);
        while receipts.open > 0 {
            receipts = self.state.done.wait(receipts).expect(POISONED);
        }
        receipts
            .slots
            .drain(..)
            .map(|slot| slot.expect("completed batch fills every slot"))
            .collect()
    }
}

/// One queued job: the op plus its slot in the batch's reply state.
struct Job {
    op: RuleOp,
    reply: Arc<BatchState>,
    slot: usize,
}

/// One tenant's bounded lane.
#[derive(Default)]
struct Lane {
    jobs: VecDeque<Job>,
    /// True while the tenant is in the runnable FIFO or held by a
    /// worker; at most one worker holds a lane.
    scheduled: bool,
}

/// A point-in-time snapshot of the broker's ingestion counters — the
/// queue-depth/park/shed observability surfaced in the bench envelope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Commands admitted into lanes (accepted, whether yet committed).
    pub submitted: u64,
    /// Commands that committed successfully.
    pub committed: u64,
    /// Commands the store rejected with a typed error (not counting
    /// shed ones).
    pub rejected: u64,
    /// Commands shed with [`ServiceError::Overloaded`] by
    /// [`ServiceBroker::try_submit_batch`].
    pub shed_commands: u64,
    /// Store commits ([`RuleStore::apply_ops`] calls) — `submitted /
    /// batches` is the realised amortisation factor.
    pub batches: u64,
    /// Times a worker went to sleep empty-handed.
    pub worker_parks: u64,
    /// Deepest any tenant lane has been (commands), observed at
    /// enqueue time.
    pub queue_depth_peak: u64,
}

/// Everything behind the broker's one lock.
#[derive(Default)]
struct State {
    lanes: BTreeMap<TenantId, Lane>,
    /// Tenants with queued jobs that no worker holds, oldest first.
    runnable: VecDeque<TenantId>,
    /// Jobs admitted and not yet committed or rejected.
    in_flight: usize,
    /// Workers waiting on `Inner::work`.
    idle_workers: usize,
    /// Producers and flushers waiting on `Inner::retired`.
    waiters: usize,
    shutdown: bool,
    stats: BrokerStats,
}

impl State {
    /// The tenant's lane, created on first sight.
    fn lane(&mut self, tenant: &TenantId) -> &mut Lane {
        if !self.lanes.contains_key(tenant) {
            self.lanes.insert(tenant.clone(), Lane::default());
        }
        self.lanes.get_mut(tenant).expect("lane just inserted")
    }

    /// Appends `jobs` to the tenant's lane and makes it runnable.
    fn push(
        &mut self,
        tenant: &TenantId,
        jobs: impl ExactSizeIterator<Item = Job>,
        work: &Condvar,
    ) {
        self.stats.submitted += jobs.len() as u64;
        self.in_flight += jobs.len();
        let lane = self.lane(tenant);
        lane.jobs.extend(jobs);
        let depth = lane.jobs.len() as u64;
        if !std::mem::replace(&mut lane.scheduled, true) {
            self.make_runnable(tenant.clone(), work);
        }
        self.stats.queue_depth_peak = self.stats.queue_depth_peak.max(depth);
    }

    /// Queues a scheduled lane at the end of the FIFO and wakes a worker.
    fn make_runnable(&mut self, tenant: TenantId, work: &Condvar) {
        self.runnable.push_back(tenant);
        if self.idle_workers > 0 {
            work.notify_one();
        }
    }
}

/// Everything shared between submitters and workers.
struct Inner {
    store: Arc<RuleStore>,
    queue_capacity: usize,
    state: Mutex<State>,
    /// Idle workers wait here for a runnable tenant or shutdown.
    work: Condvar,
    /// Blocked producers and flushers wait here for commits to retire.
    retired: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    /// Waits on `retired`, counted so workers notify only when needed.
    fn wait_retired<'a>(&self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        state.waiters += 1;
        let mut state = self.retired.wait(state).expect(POISONED);
        state.waiters -= 1;
        state
    }
}

/// The asynchronous command broker over a shared [`RuleStore`].
///
/// Dropping the broker finishes every queued command, then joins the
/// workers.
pub struct ServiceBroker {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceBroker {
    /// Spawns a broker with `threads` workers (min 1) over the store,
    /// with the default per-tenant lane capacity.
    pub fn new(store: Arc<RuleStore>, threads: usize) -> Self {
        ServiceBroker::with_queue_capacity(store, threads, DEFAULT_QUEUE_CAPACITY)
    }

    /// Spawns a broker whose per-tenant lanes hold at most
    /// `queue_capacity` commands (min 1). Small capacities exercise the
    /// backpressure paths: blocking admission waits,
    /// [`ServiceBroker::try_submit_batch`] sheds.
    pub fn with_queue_capacity(
        store: Arc<RuleStore>,
        threads: usize,
        queue_capacity: usize,
    ) -> Self {
        let inner = ServiceBroker::build(store, queue_capacity);
        let workers = (0..threads.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        ServiceBroker { inner, workers }
    }

    /// The shared state with no workers attached.
    fn build(store: Arc<RuleStore>, queue_capacity: usize) -> Arc<Inner> {
        Arc::new(Inner {
            store,
            queue_capacity: queue_capacity.max(1),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            retired: Condvar::new(),
        })
    }

    /// A broker with **no workers**: admitted jobs stay queued forever.
    /// Lets tests exercise shedding deterministically.
    #[cfg(test)]
    fn paused(store: Arc<RuleStore>, queue_capacity: usize) -> Self {
        ServiceBroker {
            inner: ServiceBroker::build(store, queue_capacity),
            workers: Vec::new(),
        }
    }

    /// Current ingestion counters.
    pub fn stats(&self) -> BrokerStats {
        self.inner.lock().stats
    }

    /// Enqueues a batch of commands with a single reply allocation.
    ///
    /// Within the batch, same-tenant commands commit in batch order;
    /// different tenants commit in parallel, exactly as if submitted
    /// one at a time. If a tenant's lane is full the call waits until a
    /// worker frees space (groups larger than the lane capacity are
    /// admitted in capacity-sized chunks).
    pub fn submit_batch(&self, commands: &[RuleCommand]) -> BatchTicket {
        self.admit(commands, true)
    }

    /// Non-blocking batch admission with typed overload shedding.
    ///
    /// Tenant groups that fit their lane are admitted exactly like
    /// [`ServiceBroker::submit_batch`]; a group that does not fit is
    /// shed **whole** — every command in it resolves to
    /// [`ServiceError::Overloaded`], none commits — so resubmitting the
    /// shed commands later preserves per-tenant order. (A group larger
    /// than the lane capacity can never fit and is always shed.)
    pub fn try_submit_batch(&self, commands: &[RuleCommand]) -> BatchTicket {
        self.admit(commands, false)
    }

    /// Shared admission: group by tenant, then admit each group into its
    /// lane — blocking (waits for space, in lane-sized chunks) or
    /// shedding (the whole group, with typed receipts).
    fn admit(&self, commands: &[RuleCommand], block: bool) -> BatchTicket {
        let reply = Arc::new(BatchState {
            receipts: Mutex::new(Receipts {
                slots: vec![None; commands.len()],
                open: commands.len(),
            }),
            done: Condvar::new(),
        });
        // Group commands by tenant, preserving per-tenant order. Linear
        // tenant lookup: batches overwhelmingly carry few tenants.
        let mut groups: Vec<(&TenantId, Vec<Job>)> = Vec::new();
        for (slot, command) in commands.iter().enumerate() {
            let job = Job {
                op: command.op.clone(),
                reply: Arc::clone(&reply),
                slot,
            };
            match groups
                .iter_mut()
                .find(|(tenant, _)| **tenant == command.tenant)
            {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((&command.tenant, vec![job])),
            }
        }
        let inner = &*self.inner;
        let capacity = inner.queue_capacity;
        let mut state = inner.lock();
        for (tenant, mut jobs) in groups {
            if block {
                while !jobs.is_empty() {
                    let take = jobs.len().min(capacity);
                    while state.lane(tenant).jobs.len() + take > capacity {
                        state = inner.wait_retired(state);
                    }
                    state.push(tenant, jobs.drain(..take), &inner.work);
                }
            } else if state.lane(tenant).jobs.len() + jobs.len() <= capacity {
                state.push(tenant, jobs.into_iter(), &inner.work);
            } else {
                state.stats.shed_commands += jobs.len() as u64;
                // A group is one batch's jobs, so one reply serves all.
                let overloaded = || Err(ServiceError::Overloaded(tenant.clone()));
                jobs[0]
                    .reply
                    .complete(jobs.iter().map(|job| (job.slot, overloaded())));
            }
        }
        BatchTicket { state: reply }
    }

    /// Blocks until every command admitted so far has been committed,
    /// rejected, or shed. Snapshots taken from the store afterwards see
    /// all of them.
    pub fn flush(&self) {
        let mut state = self.inner.lock();
        while state.in_flight > 0 {
            state = self.inner.wait_retired(state);
        }
    }
}

impl Drop for ServiceBroker {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.work.notify_all();
        for worker in self.workers.drain(..) {
            let _unused = worker.join();
        }
    }
}

/// Worker: claim the oldest runnable tenant, commit one drained batch
/// outside the lock, hand the lane back; wait when nothing is runnable.
/// Exits at shutdown once nothing is in flight.
fn worker_loop(inner: &Inner) {
    let mut ops: Vec<RuleOp> = Vec::with_capacity(DRAIN_MAX);
    let mut replies: Vec<(Arc<BatchState>, usize)> = Vec::with_capacity(DRAIN_MAX);
    let mut state = inner.lock();
    loop {
        let Some(tenant) = state.runnable.pop_front() else {
            if state.shutdown && state.in_flight == 0 {
                return;
            }
            state.stats.worker_parks += 1;
            state.idle_workers += 1;
            state = inner.work.wait(state).expect(POISONED);
            state.idle_workers -= 1;
            continue;
        };
        let lane = state.lanes.get_mut(&tenant).expect("runnable lane exists");
        let take = lane.jobs.len().min(DRAIN_MAX);
        for job in lane.jobs.drain(..take) {
            ops.push(job.op);
            replies.push((job.reply, job.slot));
        }
        drop(state);

        // One copy-on-write commit for the whole drained batch; per-op
        // epochs and receipts come back in lane (= submission) order.
        let results = inner.store.apply_ops(&tenant, &ops);
        ops.clear();

        state = inner.lock();
        // Count before completing: a caller holding its receipts never
        // reads stats that lag them.
        let committed = results.iter().filter(|r| r.is_ok()).count() as u64;
        state.stats.batches += 1;
        state.stats.committed += committed;
        state.stats.rejected += results.len() as u64 - committed;
        state.in_flight -= results.len();
        let lane = state.lanes.get_mut(&tenant).expect("held lane exists");
        if lane.jobs.is_empty() {
            lane.scheduled = false;
        } else {
            state.make_runnable(tenant, &inner.work);
        }
        if state.waiters > 0 {
            inner.retired.notify_all();
        }
        if state.shutdown && state.in_flight == 0 {
            inner.work.notify_all();
        }
        drop(state);

        // Consecutive jobs of one batch deliver under one lock.
        let mut results = results.into_iter();
        for run in replies.chunk_by(|a, b| Arc::ptr_eq(&a.0, &b.0)) {
            run[0]
                .0
                .complete(run.iter().map(|&(_, slot)| slot).zip(&mut results));
        }
        replies.clear();
        state = inner.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CreateRuleRequest;
    use rabit_rulebase::{Rule, RuleId, Rulebase};

    fn noop_rule(name: &str) -> Rule {
        Rule::new(
            RuleId::Custom(name.to_string()),
            "never fires",
            |_, _, _| None,
        )
    }

    #[test]
    fn broker_commits_in_per_tenant_submission_order() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("a", Rulebase::standard());
        store.seed_tenant("b", Rulebase::standard());
        let broker = ServiceBroker::new(Arc::clone(&store), 4);
        let mut tickets = Vec::new();
        for i in 0..8 {
            for tenant in ["a", "b"] {
                tickets.push(broker.submit_batch(&[RuleCommand::new(
                    tenant,
                    RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
                )]));
            }
        }
        let receipts: Vec<_> = tickets.into_iter().flat_map(|t| t.wait()).collect();
        // Per tenant, the i-th submission published epoch i+1.
        for (i, pair) in receipts.chunks(2).enumerate() {
            for receipt in pair {
                let receipt = receipt.as_ref().expect("create commits");
                assert_eq!(receipt.epoch, i as u64 + 1);
            }
        }
        assert_eq!(store.epoch_of(&TenantId::new("a")), Some(8));
        assert_eq!(store.epoch_of(&TenantId::new("b")), Some(8));
    }

    #[test]
    fn flush_makes_all_commits_visible() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        let broker = ServiceBroker::new(Arc::clone(&store), 2);
        for i in 0..16 {
            drop(broker.submit_batch(&[RuleCommand::new(
                "lab",
                RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
            )]));
        }
        broker.flush();
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(16));
        assert_eq!(
            store.snapshot_for(&TenantId::new("lab")).unwrap().len(),
            11 + 16
        );
    }

    #[test]
    fn rejected_commands_report_typed_errors() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        let broker = ServiceBroker::new(Arc::clone(&store), 1);
        let err = broker
            .submit_batch(&[RuleCommand::new(
                "ghost",
                RuleOp::Disable(RuleId::General(1)),
            )])
            .wait()
            .remove(0)
            .expect_err("unseeded tenant");
        assert_eq!(err, ServiceError::UnknownTenant(TenantId::new("ghost")));
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(0));
    }

    #[test]
    fn batch_receipts_come_back_in_submission_order() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("a", Rulebase::standard());
        store.seed_tenant("b", Rulebase::standard());
        let broker = ServiceBroker::new(Arc::clone(&store), 4);
        // Interleave two tenants plus a failing command in one batch.
        let commands = vec![
            RuleCommand::new("a", RuleOp::Create(CreateRuleRequest::new(noop_rule("x")))),
            RuleCommand::new("b", RuleOp::Create(CreateRuleRequest::new(noop_rule("x")))),
            RuleCommand::new("a", RuleOp::Disable(RuleId::General(1))),
            RuleCommand::new("a", RuleOp::Remove(RuleId::Custom("ghost".into()))),
            RuleCommand::new("b", RuleOp::Disable(RuleId::General(2))),
        ];
        let ticket = broker.submit_batch(&commands);
        assert_eq!(ticket.len(), 5);
        let receipts = ticket.wait();
        assert_eq!(receipts[0].as_ref().unwrap().epoch, 1);
        assert_eq!(receipts[1].as_ref().unwrap().epoch, 1);
        assert_eq!(receipts[2].as_ref().unwrap().epoch, 2);
        assert!(matches!(receipts[3], Err(ServiceError::UnknownRule { .. })));
        assert_eq!(receipts[4].as_ref().unwrap().epoch, 2);
        assert_eq!(store.epoch_of(&TenantId::new("a")), Some(2));
        assert_eq!(store.epoch_of(&TenantId::new("b")), Some(2));
        let stats = broker.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.committed, 4);
        assert_eq!(stats.rejected, 1);
        assert!(stats.queue_depth_peak >= 1);
    }

    #[test]
    fn empty_batches_resolve_immediately() {
        let store = Arc::new(RuleStore::new());
        let broker = ServiceBroker::new(Arc::clone(&store), 1);
        let ticket = broker.submit_batch(&[]);
        assert!(ticket.is_empty());
        assert!(ticket.wait().is_empty());
        broker.flush();
    }

    #[test]
    fn try_submit_sheds_whole_groups_when_the_lane_is_full() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        // No workers: nothing drains, so shedding is deterministic.
        let broker = ServiceBroker::paused(Arc::clone(&store), 4);
        let cmd = |name: &str| {
            RuleCommand::new(
                "lab",
                RuleOp::Create(CreateRuleRequest::new(noop_rule(name))),
            )
        };
        // Fills the 4-slot lane.
        drop(broker.try_submit_batch(&[cmd("a"), cmd("b"), cmd("c"), cmd("d")]));
        // A 2-command group cannot fit: shed whole, typed receipts.
        let receipts = broker.try_submit_batch(&[cmd("e"), cmd("f")]).wait();
        assert_eq!(receipts.len(), 2);
        for receipt in &receipts {
            assert_eq!(
                receipt,
                &Err(ServiceError::Overloaded(TenantId::new("lab")))
            );
        }
        // Oversized groups (bigger than the lane) are always shed.
        let oversized: Vec<_> = (0..5).map(|i| cmd(&format!("g{i}"))).collect();
        let receipts = broker.try_submit_batch(&oversized).wait();
        assert!(receipts
            .iter()
            .all(|r| matches!(r, Err(ServiceError::Overloaded(_)))));
        let stats = broker.stats();
        assert_eq!(stats.shed_commands, 7);
        assert_eq!(stats.submitted, 4, "accepted commands only");
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(0));
    }

    #[test]
    fn blocking_submit_parks_until_workers_free_space() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        // Capacity 2 with live workers: a 64-command batch must park
        // and chunk its way in rather than shed or spin forever.
        let broker = ServiceBroker::with_queue_capacity(Arc::clone(&store), 2, 2);
        let commands: Vec<_> = (0..64)
            .map(|i| {
                RuleCommand::new(
                    "lab",
                    RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
                )
            })
            .collect();
        let receipts = broker.submit_batch(&commands).wait();
        for (i, receipt) in receipts.iter().enumerate() {
            assert_eq!(receipt.as_ref().unwrap().epoch, i as u64 + 1);
        }
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(64));
        assert_eq!(broker.stats().shed_commands, 0);
    }

    #[test]
    fn lane_capacity_is_exact() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        let broker = ServiceBroker::paused(Arc::clone(&store), 3);
        let toggle = RuleCommand::new("lab", RuleOp::Disable(RuleId::General(1)));
        drop(broker.try_submit_batch(&[toggle.clone(), toggle.clone(), toggle.clone()]));
        let receipts = broker.try_submit_batch(&[toggle]).wait();
        assert_eq!(
            receipts,
            vec![Err(ServiceError::Overloaded(TenantId::new("lab")))]
        );
        assert_eq!(broker.stats().submitted, 3);
    }

    #[test]
    fn one_commit_takes_at_most_drain_max_commands() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        let broker = ServiceBroker::new(Arc::clone(&store), 1);
        // One group is admitted under one lock acquisition, so the
        // worker finds all of it queued: 256 + 256 + 88 commands.
        let commands = vec![RuleCommand::new("lab", RuleOp::Enable(RuleId::General(1))); 600];
        let receipts = broker.submit_batch(&commands).wait();
        for (i, receipt) in receipts.iter().enumerate() {
            assert_eq!(receipt.as_ref().unwrap().epoch, i as u64 + 1);
        }
        assert_eq!(broker.stats().batches, 3);
    }

    #[test]
    fn drop_finishes_queued_work() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        {
            let broker = ServiceBroker::new(Arc::clone(&store), 2);
            for i in 0..32 {
                drop(broker.submit_batch(&[RuleCommand::new(
                    "lab",
                    RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
                )]));
            }
            // No flush: Drop must drain the lanes before joining.
        }
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(32));
    }
}

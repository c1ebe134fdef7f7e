//! The sharded, batched rule-command broker.
//!
//! [`ServiceBroker`] fronts a shared [`RuleStore`] with a pool of
//! worker threads and **per-tenant bounded ring queues** (one
//! [`rabit_util::ring::RingBuffer`] lane per tenant): commands for one
//! tenant are applied strictly in submission order (so a tenant's epoch
//! history is the same for any worker count), while commands for
//! different tenants commit in parallel. This is the determinism
//! contract the differential suite checks at 1, 4, and 8 threads — it
//! holds exactly because epochs are per tenant, so cross-tenant commit
//! interleaving is unobservable.
//!
//! # Architecture
//!
//! The ingestion path is sharded and mostly lock-free:
//!
//! * **Lanes** — each tenant gets a `TenantLane`: a bounded MPSC ring
//!   of jobs plus a `scheduled` flag. The flag's compare-and-swap
//!   guarantees at most one worker holds a lane at a time, which is
//!   what turns the lane ring into per-tenant serial order — even when
//!   lanes are stolen across shards.
//! * **Shards** — one per worker. A lane's home shard receives it when
//!   it becomes runnable; each shard has its own run-queue and
//!   [`Parker`], so producers wake exactly one shard instead of
//!   convoying every thread through one global mutex + condvar. Idle
//!   workers steal *whole lanes* from other shards (never individual
//!   commands, which would break FIFO).
//! * **Batched admission** — [`ServiceBroker::submit_batch`] enqueues N
//!   commands with one reply allocation ([`BatchTicket`]), one ring
//!   reservation per tenant group, and one wakeup. Workers drain lanes
//!   in batches and commit them through [`RuleStore::apply_ops`] — one
//!   copy-on-write clone per drained batch instead of one per command.
//! * **Backpressure** — lanes are bounded. Blocking admission parks the
//!   producer until space frees; [`ServiceBroker::try_submit_batch`]
//!   instead *sheds* overloaded tenant groups with typed
//!   [`ServiceError::Overloaded`] receipts, all-or-nothing per group so
//!   a retry can never reorder a tenant's commands.
//!
//! Every blocking wait in this module goes through [`Parker`], whose
//! condvar wait sits inside a generation-predicate loop — spurious
//! wakeups re-check the condition, and a wakeup racing the check cannot
//! be lost. The legacy single-command [`ServiceBroker::submit`] path is
//! a thin wrapper over a one-command batch and inherits the same
//! guarantees.

use crate::store::{RuleCommit, RuleOp, RuleStore, ServiceError};
use rabit_rulebase::TenantId;
use rabit_util::ring::{Parker, RingBuffer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default per-tenant lane capacity (commands).
const DEFAULT_QUEUE_CAPACITY: usize = 4096;
/// Per-shard run-queue capacity (lanes; a lane occupies at most one
/// run-queue slot broker-wide, so overflow only matters with thousands
/// of simultaneously-runnable tenants — the push spins briefly then).
const RUNQ_CAPACITY: usize = 1024;
/// Most jobs a worker drains from a lane into one store commit.
const DRAIN_MAX: usize = 256;
/// Batches a worker applies from one lane before requeueing it, so one
/// firehose tenant cannot starve the rest of its shard.
const BATCHES_PER_CLAIM: usize = 4;

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

/// Shared completion state for one submitted batch: one slot per
/// command, a countdown, and the parker the waiter sleeps on.
#[derive(Debug)]
struct BatchState {
    results: Mutex<Vec<Option<Result<RuleCommit, ServiceError>>>>,
    remaining: AtomicUsize,
    parker: Parker,
}

impl BatchState {
    fn for_len(len: usize) -> Arc<Self> {
        Arc::new(BatchState {
            results: Mutex::new(vec![None; len]),
            remaining: AtomicUsize::new(len),
            parker: Parker::new(),
        })
    }
}

/// Fills `slot` and wakes the waiter when it was the last one open.
fn complete(state: &BatchState, slot: u32, result: Result<RuleCommit, ServiceError>) {
    {
        let mut results = state.results.lock().expect("batch results poisoned");
        results[slot as usize] = Some(result);
    }
    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        state.parker.unpark_all();
    }
}

/// The receipt channel for one submitted batch: a single shared reply
/// slot for all N commands (this is the amortisation that replaces the
/// old one-channel-per-command design).
#[derive(Debug)]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl BatchTicket {
    /// How many commands the batch carried.
    pub fn len(&self) -> usize {
        self.state
            .results
            .lock()
            .expect("batch results poisoned")
            .len()
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
        loop {
            let ticket = self.state.parker.ticket();
            if self.state.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            self.state.parker.park(ticket);
        }
        let mut results = self.state.results.lock().expect("batch results poisoned");
        results
            .drain(..)
            .map(|slot| slot.expect("completed batch fills every slot"))
            .collect()
    }
}

/// The receipt channel for one submitted command: [`Ticket::wait`]
/// blocks until the broker has committed (or rejected) it. A thin
/// wrapper over a one-command [`BatchTicket`].
#[derive(Debug)]
pub struct Ticket {
    batch: BatchTicket,
}

impl Ticket {
    /// Blocks until the command's outcome is known.
    pub fn wait(self) -> Result<RuleCommit, ServiceError> {
        self.batch
            .wait()
            .pop()
            .expect("single-command batch yields one receipt")
    }
}

/// One queued job: the op plus its slot in the batch's reply state.
struct Job {
    op: RuleOp,
    reply: Arc<BatchState>,
    slot: u32,
}

/// One tenant's bounded ingestion lane.
struct TenantLane {
    tenant: TenantId,
    /// Home shard: where the lane is queued when it becomes runnable.
    shard: usize,
    ring: RingBuffer<Job>,
    /// True while the lane is queued on a shard or held by a worker.
    /// The CAS on this flag is the per-tenant exclusivity that makes
    /// lane order commit order.
    scheduled: AtomicBool,
    /// Parks blocking producers waiting for lane space.
    producers: Parker,
}

/// One worker's slice of the broker: a run-queue of runnable lanes and
/// the parker its worker (and only its worker) sleeps on.
struct Shard {
    runq: RingBuffer<Arc<TenantLane>>,
    parker: Parker,
}

/// Monotonic ingestion counters (relaxed; read via [`ServiceBroker::stats`]).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    committed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    parks: AtomicU64,
    steals: AtomicU64,
    queue_depth_peak: AtomicU64,
}

/// A point-in-time snapshot of the broker's ingestion counters — the
/// queue-depth/steal/park observability surfaced in the bench envelope.
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
    /// Lanes claimed from another worker's shard.
    pub worker_steals: u64,
    /// Deepest any tenant lane has been (commands), observed at
    /// enqueue time.
    pub queue_depth_peak: u64,
}

/// Everything shared between submitters and workers.
struct Inner {
    store: Arc<RuleStore>,
    shards: Vec<Shard>,
    lanes: Mutex<BTreeMap<TenantId, Arc<TenantLane>>>,
    queue_capacity: usize,
    /// Jobs admitted and not yet retired (drives [`ServiceBroker::flush`]).
    in_flight: AtomicUsize,
    flush_parker: Parker,
    shutdown: AtomicBool,
    /// Round-robin cursor for homing new lanes onto shards.
    next_shard: AtomicUsize,
    counters: Counters,
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
    /// `queue_capacity` commands (rounded up to a power of two, min 2).
    /// Small capacities exercise the backpressure paths: blocking
    /// admission parks, [`ServiceBroker::try_submit_batch`] sheds.
    pub fn with_queue_capacity(
        store: Arc<RuleStore>,
        threads: usize,
        queue_capacity: usize,
    ) -> Self {
        let inner = ServiceBroker::build(store, threads, queue_capacity);
        let workers = (0..inner.shards.len())
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, me))
            })
            .collect();
        ServiceBroker { inner, workers }
    }

    /// The shared state with no workers attached.
    fn build(store: Arc<RuleStore>, threads: usize, queue_capacity: usize) -> Arc<Inner> {
        let threads = threads.max(1);
        Arc::new(Inner {
            store,
            shards: (0..threads)
                .map(|_| Shard {
                    runq: RingBuffer::with_capacity(RUNQ_CAPACITY),
                    parker: Parker::new(),
                })
                .collect(),
            lanes: Mutex::new(BTreeMap::new()),
            queue_capacity,
            in_flight: AtomicUsize::new(0),
            flush_parker: Parker::new(),
            shutdown: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            counters: Counters::default(),
        })
    }

    /// A broker with **no workers**: admitted jobs stay queued forever.
    /// Lets tests exercise shedding deterministically.
    #[cfg(test)]
    fn paused(store: Arc<RuleStore>, queue_capacity: usize) -> Self {
        ServiceBroker {
            inner: ServiceBroker::build(store, 1, queue_capacity),
            workers: Vec::new(),
        }
    }

    /// The shared store (snapshots read from it reflect every commit
    /// the broker has applied so far).
    pub fn store(&self) -> &Arc<RuleStore> {
        &self.inner.store
    }

    /// Current ingestion counters.
    pub fn stats(&self) -> BrokerStats {
        let c = &self.inner.counters;
        BrokerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            committed: c.committed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed_commands: c.shed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            worker_parks: c.parks.load(Ordering::Relaxed),
            worker_steals: c.steals.load(Ordering::Relaxed),
            queue_depth_peak: c.queue_depth_peak.load(Ordering::Relaxed),
        }
    }

    /// Enqueues a command; per-tenant submission order is commit order.
    /// Returns a [`Ticket`] resolving to the commit receipt. Blocks
    /// only if the tenant's lane is full (until a worker frees space).
    pub fn submit(&self, command: RuleCommand) -> Ticket {
        Ticket {
            batch: self.admit(std::slice::from_ref(&command), true),
        }
    }

    /// Enqueues a batch of commands with a single reply allocation and
    /// (per tenant in the batch) a single ring reservation + wakeup.
    ///
    /// Within the batch, same-tenant commands commit in batch order;
    /// different tenants commit in parallel, exactly as if submitted
    /// one at a time. If a tenant's lane is full the call parks until a
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

    /// Shared admission: group by tenant, enqueue each group.
    fn admit(&self, commands: &[RuleCommand], block: bool) -> BatchTicket {
        let state = BatchState::for_len(commands.len());
        // Group commands by tenant, preserving per-tenant order. Linear
        // tenant lookup: batches overwhelmingly carry few tenants.
        let mut groups: Vec<(Arc<TenantLane>, Vec<Job>)> = Vec::new();
        for (slot, command) in commands.iter().enumerate() {
            let job = Job {
                op: command.op.clone(),
                reply: Arc::clone(&state),
                slot: slot as u32,
            };
            match groups
                .iter_mut()
                .find(|(lane, _)| lane.tenant == command.tenant)
            {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((self.lane(&command.tenant), vec![job])),
            }
        }
        for (lane, jobs) in groups {
            self.enqueue(&lane, jobs, block);
        }
        BatchTicket { state }
    }

    /// The tenant's lane, created (and homed round-robin on a shard) on
    /// first sight.
    fn lane(&self, tenant: &TenantId) -> Arc<TenantLane> {
        let inner = &self.inner;
        let mut lanes = inner.lanes.lock().expect("broker lanes poisoned");
        if let Some(lane) = lanes.get(tenant) {
            return Arc::clone(lane);
        }
        let shard = inner.next_shard.fetch_add(1, Ordering::Relaxed) % inner.shards.len();
        let lane = Arc::new(TenantLane {
            tenant: tenant.clone(),
            shard,
            ring: RingBuffer::with_capacity(inner.queue_capacity),
            scheduled: AtomicBool::new(false),
            producers: Parker::new(),
        });
        lanes.insert(tenant.clone(), Arc::clone(&lane));
        lane
    }

    /// Admits one tenant group into its lane — blocking (parks until
    /// space) or shedding (whole group, typed receipts).
    fn enqueue(&self, lane: &Arc<TenantLane>, jobs: Vec<Job>, block: bool) {
        let inner = &self.inner;
        let n = jobs.len();
        inner
            .counters
            .submitted
            .fetch_add(n as u64, Ordering::Relaxed);
        inner.in_flight.fetch_add(n, Ordering::AcqRel);
        if !block {
            match lane.ring.try_push_batch(jobs) {
                Ok(()) => self.after_push(lane),
                Err(shed) => {
                    inner.counters.shed.fetch_add(n as u64, Ordering::Relaxed);
                    inner
                        .counters
                        .submitted
                        .fetch_sub(n as u64, Ordering::Relaxed);
                    for job in shed {
                        complete(
                            &job.reply,
                            job.slot,
                            Err(ServiceError::Overloaded(lane.tenant.clone())),
                        );
                    }
                    retire(inner, n);
                }
            }
            return;
        }
        let capacity = lane.ring.capacity();
        let mut rest = jobs;
        while !rest.is_empty() {
            let take = rest.len().min(capacity);
            let mut chunk: Vec<Job> = rest.drain(..take).collect();
            loop {
                // Ticket before the attempt: a worker freeing space
                // between our failed push and our park bumps the
                // generation, so the park returns immediately.
                let ticket = lane.producers.ticket();
                match lane.ring.try_push_batch(chunk) {
                    Ok(()) => break,
                    Err(back) => {
                        chunk = back;
                        lane.producers.park(ticket);
                    }
                }
            }
            self.after_push(lane);
        }
    }

    /// Post-push bookkeeping: record depth, make the lane runnable on
    /// its home shard if it was not already scheduled, wake that shard.
    fn after_push(&self, lane: &Arc<TenantLane>) {
        let inner = &self.inner;
        let depth = lane.ring.len() as u64;
        inner
            .counters
            .queue_depth_peak
            .fetch_max(depth, Ordering::Relaxed);
        if !lane.scheduled.swap(true, Ordering::AcqRel) {
            push_runq(inner, lane.shard, Arc::clone(lane));
            inner.shards[lane.shard].parker.unpark_all();
        }
    }

    /// Blocks until every command admitted so far has been committed,
    /// rejected, or shed. Snapshots taken from the store afterwards see
    /// all of them.
    pub fn flush(&self) {
        let inner = &self.inner;
        loop {
            let ticket = inner.flush_parker.ticket();
            if inner.in_flight.load(Ordering::Acquire) == 0 {
                return;
            }
            inner.flush_parker.park(ticket);
        }
    }
}

impl Drop for ServiceBroker {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.parker.unpark_all();
        }
        for worker in self.workers.drain(..) {
            let _unused = worker.join();
        }
    }
}

/// Queues a runnable lane on `shard` (spins on the rare runq overflow).
fn push_runq(inner: &Inner, shard: usize, lane: Arc<TenantLane>) {
    let mut item = lane;
    loop {
        match inner.shards[shard].runq.try_push(item) {
            Ok(()) => return,
            Err(back) => {
                item = back;
                std::thread::yield_now();
            }
        }
    }
}

/// Retires `n` completed (or shed) jobs; wakes flush waiters — and,
/// during shutdown, the workers — when the count hits zero.
fn retire(inner: &Inner, n: usize) {
    if inner.in_flight.fetch_sub(n, Ordering::AcqRel) == n {
        inner.flush_parker.unpark_all();
        if inner.shutdown.load(Ordering::Acquire) {
            for shard in &inner.shards {
                shard.parker.unpark_all();
            }
        }
    }
}

/// Pops a runnable lane: own shard first, then steal from the others.
fn claim(inner: &Inner, me: usize) -> Option<Arc<TenantLane>> {
    if let Some(lane) = inner.shards[me].runq.try_pop() {
        return Some(lane);
    }
    let shards = inner.shards.len();
    for offset in 1..shards {
        if let Some(lane) = inner.shards[(me + offset) % shards].runq.try_pop() {
            inner.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(lane);
        }
    }
    None
}

/// Worker: claim a lane, process it, park when nothing is runnable.
fn worker_loop(inner: &Inner, me: usize) {
    let mut ops: Vec<RuleOp> = Vec::with_capacity(DRAIN_MAX);
    let mut meta: Vec<(Arc<BatchState>, u32)> = Vec::with_capacity(DRAIN_MAX);
    loop {
        // Ticket before the scan: work pushed to this shard after the
        // scan bumps the generation and the park falls through.
        let ticket = inner.shards[me].parker.ticket();
        if let Some(lane) = claim(inner, me) {
            process(inner, &lane, &mut ops, &mut meta);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) && inner.in_flight.load(Ordering::Acquire) == 0 {
            return;
        }
        inner.counters.parks.fetch_add(1, Ordering::Relaxed);
        inner.shards[me].parker.park(ticket);
    }
}

/// Drains and commits batches from an exclusively-held lane, then hands
/// the lane back (requeue if still loaded, release + recheck if not).
fn process(
    inner: &Inner,
    lane: &Arc<TenantLane>,
    ops: &mut Vec<RuleOp>,
    meta: &mut Vec<(Arc<BatchState>, u32)>,
) {
    for _ in 0..BATCHES_PER_CLAIM {
        ops.clear();
        meta.clear();
        while ops.len() < DRAIN_MAX {
            match lane.ring.try_pop() {
                Some(job) => {
                    ops.push(job.op);
                    meta.push((job.reply, job.slot));
                }
                None => break,
            }
        }
        if ops.is_empty() {
            break;
        }
        let drained = ops.len();
        // One copy-on-write commit for the whole drained batch; per-op
        // epochs and receipts come back in lane (= submission) order.
        let results = inner.store.apply_ops(&lane.tenant, ops);
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        // Count before completing. `complete` releases through the
        // `AcqRel` decrement of `remaining`, and a waiter returns only
        // after its `Acquire` load reads the final decrement, so these
        // adds happen before the waiter's return: a caller holding its
        // receipts never reads stats that lag them.
        let committed = results.iter().filter(|r| r.is_ok()).count() as u64;
        inner
            .counters
            .committed
            .fetch_add(committed, Ordering::Relaxed);
        inner
            .counters
            .rejected
            .fetch_add(results.len() as u64 - committed, Ordering::Relaxed);
        for ((state, slot), result) in meta.drain(..).zip(results) {
            complete(&state, slot, result);
        }
        // Space freed: wake producers parked on this lane.
        lane.producers.unpark_all();
        retire(inner, drained);
    }
    if !lane.ring.is_empty() {
        // Still loaded after its fairness quantum: keep it scheduled
        // and requeue so any worker (including a stealer) continues it.
        push_runq(inner, lane.shard, Arc::clone(lane));
        inner.shards[lane.shard].parker.unpark_all();
        return;
    }
    lane.scheduled.store(false, Ordering::Release);
    // A producer may have pushed between our last drain and the clear,
    // seen `scheduled == true`, and skipped queueing the lane — recheck
    // and reclaim so that push is never stranded.
    if !lane.ring.is_empty() && !lane.scheduled.swap(true, Ordering::AcqRel) {
        push_runq(inner, lane.shard, Arc::clone(lane));
        inner.shards[lane.shard].parker.unpark_all();
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
                tickets.push(broker.submit(RuleCommand::new(
                    tenant,
                    RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
                )));
            }
        }
        let receipts: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
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
            drop(broker.submit(RuleCommand::new(
                "lab",
                RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
            )));
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
            .submit(RuleCommand::new(
                "ghost",
                RuleOp::Disable(RuleId::General(1)),
            ))
            .wait()
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
    fn drop_finishes_queued_work() {
        let store = Arc::new(RuleStore::new());
        store.seed_tenant("lab", Rulebase::standard());
        {
            let broker = ServiceBroker::new(Arc::clone(&store), 2);
            for i in 0..32 {
                drop(broker.submit(RuleCommand::new(
                    "lab",
                    RuleOp::Create(CreateRuleRequest::new(noop_rule(&format!("r{i}")))),
                )));
            }
            // No flush: Drop must drain the lanes before joining.
        }
        assert_eq!(store.epoch_of(&TenantId::new("lab")), Some(32));
    }
}

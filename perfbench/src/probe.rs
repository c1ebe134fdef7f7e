//! A timing wrapper around the Extended Simulator.
//!
//! [`Probe`] implements [`TrajectoryValidator`] by delegating to an
//! [`ExtendedSimulator`]. While its shared switch is on, it times each
//! `validate` call, counts the call's allocations, notes whether the
//! call missed the IK memo (`ik_cache_len` changed), and accumulates the
//! simulator's own counters across the call. Counters are read only
//! through the simulator's public surface: the cache counters,
//! `sweep_stats()` and `narrow_checks_performed()`.

use crate::alloc::allocations;
use rabit_core::{TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{Command, LabState};
use rabit_sim::ExtendedSimulator;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed `validate` call.
#[derive(Debug, Clone, Copy)]
pub struct ValidateCall {
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Allocations it made on the calling thread.
    pub allocs: u64,
    /// Whether it missed the IK memo.
    pub ik_miss: bool,
}

/// Simulator work accumulated over the probed calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    /// Probed `validate` calls.
    pub validations: u64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// Verdict-cache misses.
    pub cache_misses: u64,
    /// Polling-grid samples collision-checked.
    pub samples_checked: u64,
    /// Polling-grid samples proved hit-free and skipped.
    pub samples_skipped: u64,
    /// Exact signed-distance evaluations.
    pub distance_queries: u64,
    /// Lane slots of the batched distance kernels, padding included.
    pub distance_lanes: u64,
    /// Narrow-phase collision tests.
    pub narrow_checks: u64,
    /// Calls that missed the IK memo.
    pub ik_misses: u64,
}

/// What probed calls leave behind for the measuring thread.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Calls since the last [`ProbeShared::drain_calls`].
    pub calls: Vec<ValidateCall>,
    /// Counters over every probed call.
    pub counters: SimCounters,
}

/// The switch and log shared by every [`Probe`] of a run.
#[derive(Debug, Default)]
pub struct ProbeShared {
    enabled: AtomicBool,
    log: Mutex<ProbeLog>,
}

impl ProbeShared {
    /// A shared, switched-off probe state.
    pub fn new() -> Arc<Self> {
        Arc::new(ProbeShared::default())
    }

    /// Switches timing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Moves the calls recorded so far into `out` (cleared first). Both
    /// buffers keep their capacity, so once warm the probe's own
    /// bookkeeping never allocates inside a measured step.
    pub fn drain_calls(&self, out: &mut Vec<ValidateCall>) {
        out.clear();
        out.append(&mut self.log.lock().expect("probe log poisoned").calls);
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> SimCounters {
        self.log.lock().expect("probe log poisoned").counters
    }
}

/// The simulator's counters and IK memo size at one instant.
fn snapshot(sim: &ExtendedSimulator) -> (SimCounters, usize) {
    let sweep = TrajectoryValidator::sweep_stats(sim);
    let counters = SimCounters {
        cache_hits: sim.cache_hits(),
        cache_misses: sim.cache_misses(),
        samples_checked: sweep.samples_checked,
        samples_skipped: sweep.samples_skipped,
        distance_queries: sweep.distance_queries,
        distance_lanes: sweep.distance_evals_batched,
        narrow_checks: sim.narrow_checks_performed(),
        ..SimCounters::default()
    };
    (counters, sim.ik_cache_len())
}

/// A [`TrajectoryValidator`] that times the simulator it wraps.
pub struct Probe {
    sim: ExtendedSimulator,
    shared: Arc<ProbeShared>,
}

impl Probe {
    /// Wraps `sim`, reporting into `shared`.
    pub fn new(sim: ExtendedSimulator, shared: Arc<ProbeShared>) -> Self {
        Probe { sim, shared }
    }
}

impl TrajectoryValidator for Probe {
    fn validate(&mut self, command: &Command, state: &LabState) -> TrajectoryVerdict {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return self.sim.validate(command, state);
        }
        let (before, ik_before) = snapshot(&self.sim);
        let a0 = allocations();
        let start = Instant::now();
        let verdict = self.sim.validate(command, state);
        let end = Instant::now();
        let allocs = allocations() - a0;
        let (after, ik_after) = snapshot(&self.sim);
        // A memo hit leaves the memo unchanged; a miss inserts (or, at
        // capacity, clears and inserts).
        let ik_miss = ik_after != ik_before;
        let mut log = self.shared.log.lock().expect("probe log poisoned");
        let c = &mut log.counters;
        c.validations += 1;
        c.cache_hits += after.cache_hits - before.cache_hits;
        c.cache_misses += after.cache_misses - before.cache_misses;
        c.samples_checked += after.samples_checked - before.samples_checked;
        c.samples_skipped += after.samples_skipped - before.samples_skipped;
        c.distance_queries += after.distance_queries - before.distance_queries;
        c.distance_lanes += after.distance_lanes - before.distance_lanes;
        c.narrow_checks += after.narrow_checks - before.narrow_checks;
        c.ik_misses += u64::from(ik_miss);
        log.calls.push(ValidateCall {
            start,
            end,
            allocs,
            ik_miss,
        });
        verdict
    }

    fn note_rulebase_epoch(&mut self, epoch: u64) {
        self.sim.note_rulebase_epoch(epoch);
    }

    fn check_latency_s(&self) -> f64 {
        self.sim.check_latency_s()
    }

    fn narrow_checks_performed(&self) -> u64 {
        self.sim.narrow_checks_performed()
    }

    fn cache_hits(&self) -> u64 {
        self.sim.cache_hits()
    }

    fn cache_misses(&self) -> u64 {
        self.sim.cache_misses()
    }

    fn samples_checked(&self) -> u64 {
        TrajectoryValidator::samples_checked(&self.sim)
    }

    fn samples_skipped(&self) -> u64 {
        self.sim.samples_skipped()
    }

    fn distance_queries(&self) -> u64 {
        self.sim.distance_queries()
    }

    fn distance_evals_batched(&self) -> u64 {
        self.sim.distance_evals_batched()
    }

    fn certificate_spans(&self) -> u64 {
        self.sim.certificate_spans()
    }
}

//! Allocation budget of the guarded step.
//!
//! A warm Modified+Simulator testbed engine runs Fig. 5; every
//! allocation the calling thread makes inside `Rabit::step` is counted
//! by a pass-through global allocator. A warm step on the 9-device
//! testbed allocates nothing: the postconditions come back as inline
//! writes to `S_current`, `FetchState` refills the lab's own snapshot in
//! place, and the compare-and-commit pass writes values into existing
//! slots. The one allocation in a Fig. 5 lap (mean 0.03 per step) is the
//! lab's held-object map allocating its leaf on the fresh lab's first
//! pick.
//!
//! The same lap with the verdict cache off sweeps every motion: the warm
//! IK memo serves the candidates, and each candidate's samples stream
//! from its two endpoints through the simulator's reused buffers. A
//! candidate that collides before a later one comes back clear is
//! reported under the obstacle's own `DeviceId`, shared rather than
//! copied, so the swept lap's one allocation is the same held-object
//! leaf. Both laps are held to one budget.

use rabit::core::{Rabit, RabitConfig, StepOutcome};
use rabit::devices::LatencyModel;
use rabit::testbed::{rulebase_for, workflows, RabitStage, Testbed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mean allocations per warm `Rabit::step` that the tests allow, swept
/// or cached.
const BUDGET_PER_STEP: f64 = 0.1;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations and
/// reallocations per thread so parallel tests never leak into the count.
struct CountingAlloc;

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded verbatim to `System`. The counter is a
// const-initialised thread-local `Cell<u64>` without a destructor, so
// bumping it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs three Fig. 5 laps on fresh labs and returns the allocations of
/// each step of the last one.
fn third_lap_allocations(testbed: &Testbed, rabit: &mut Rabit) -> Vec<u64> {
    let workflow = workflows::fig5_safe_workflow(&testbed.locations);
    let commands = workflow.commands();
    assert!(!commands.is_empty());

    let mut counted = Vec::new();
    for lap in 0..3 {
        let mut lab = Testbed::build_lab(LatencyModel::TESTBED);
        rabit.initialize(&mut lab);
        for cmd in commands {
            let before = allocations();
            let outcome = rabit.step(&mut lab, cmd);
            let made = allocations() - before;
            assert!(
                matches!(outcome, Ok(StepOutcome::Executed)),
                "lap {lap}: {cmd}: {outcome:?}"
            );
            // The first two laps warm the IK memo and the verdict cache.
            if lap == 2 {
                counted.push(made);
            }
        }
    }

    counted
}

fn mean(counted: &[u64]) -> f64 {
    counted.iter().sum::<u64>() as f64 / counted.len() as f64
}

#[test]
fn warm_guarded_steps_stay_within_the_allocation_budget() {
    let testbed = Testbed::new();
    let mut rabit = testbed.rabit(RabitStage::ModifiedWithSimulator);
    let counted = third_lap_allocations(&testbed, &mut rabit);
    let mean = mean(&counted);
    assert!(
        mean <= BUDGET_PER_STEP,
        "warm steps average {mean:.2} allocations, budget {BUDGET_PER_STEP}: {counted:?}"
    );
}

#[test]
fn warm_swept_steps_stay_within_the_allocation_budget() {
    let testbed = Testbed::new();
    let mut sim = testbed.extended_simulator(false);
    sim.config_mut().verdict_cache = false;
    let mut rabit = Rabit::new(
        rulebase_for(RabitStage::ModifiedWithSimulator),
        testbed.catalog.clone(),
        RabitConfig::default(),
    )
    .with_validator(Box::new(sim));
    let counted = third_lap_allocations(&testbed, &mut rabit);
    let mean = mean(&counted);
    assert!(
        mean <= BUDGET_PER_STEP,
        "warm swept steps average {mean:.2} allocations, budget {BUDGET_PER_STEP}: {counted:?}"
    );
}

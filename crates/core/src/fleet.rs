//! A deterministic worker pool for fleets of independent runs.
//!
//! Self-driving-lab studies replay the same workflow library against many
//! virtual labs (the uncontrolled study alone re-runs 16 bugs × 3 RABIT
//! configurations). Each run is independent and CPU-bound, so a worker
//! pool parallelises them — but the results must not depend on thread
//! scheduling: a fleet sweep at 8 threads has to report byte-identical
//! alerts to the serial sweep, or the study is not reproducible.
//!
//! [`run_indexed`] guarantees that by construction: jobs are identified
//! by index, each job function sees only its index (no shared mutable
//! state), and results land in an index-keyed slot vector. Scheduling
//! affects *when* a job runs, never *what* it computes or *where* its
//! result goes.
//!
//! Work distribution is one shared job cursor over
//! `std::thread::scope`: each worker claims the next unclaimed index
//! until none is left, so a long-running job never strands work behind
//! it.
//!
//! # Example
//!
//! ```
//! use rabit_core::fleet::run_indexed;
//!
//! let squares = run_indexed(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `n_jobs` independent jobs on `threads` workers and returns their
/// results in job order.
///
/// `job(i)` is called exactly once for every `i in 0..n_jobs`, from some
/// worker thread. Results are keyed by index, so the returned vector is
/// identical for every `threads >= 1` as long as `job` itself is
/// deterministic and does not touch shared mutable state.
///
/// `threads == 0` is treated as 1; `threads` is capped at `n_jobs`.
///
/// # Panics
///
/// Propagates the first panic of any job after all workers have stopped.
pub fn run_indexed<R, F>(n_jobs: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n_jobs.max(1));
    let slots: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();

    if threads == 1 {
        // Serial fast path — no scope, no threads.
        for (i, slot) in slots.iter().enumerate() {
            *slot.lock().expect("slot poisoned") = Some(job(i));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cursor = &cursor;
                let slots = &slots;
                let job = &job;
                scope.spawn(move || loop {
                    // The cursor only hands out indices; results travel
                    // through the slot mutexes and the scope join, so
                    // `Relaxed` suffices: each `fetch_add` still returns
                    // a distinct index.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_jobs {
                        break;
                    }
                    let result = job(i);
                    *slots[i].lock().expect("slot poisoned") = Some(result);
                });
            }
        });
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every job index was scheduled exactly once")
        })
        .collect()
}

/// Maps `items` through `job` on a worker pool, preserving input order.
///
/// Convenience wrapper over [`run_indexed`] for owned inputs.
pub fn map_indexed<T, R, F>(items: Vec<T>, threads: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let items = &items;
    run_indexed(items.len(), threads, move |i| job(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_fleet_is_fine() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_serial() {
        assert_eq!(run_indexed(3, 0, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(100, 8, |i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let expected: Vec<usize> = (0..53).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                run_indexed(53, threads, |i| i * 7 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn uneven_job_durations_still_deterministic() {
        // Early jobs sleep; stealing redistributes, results stay ordered.
        let out = run_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_borrows_items() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens = map_indexed(words, 2, |i, w| (i, w.len()));
        assert_eq!(lens, vec![(0, 1), (1, 2), (2, 3)]);
    }
}

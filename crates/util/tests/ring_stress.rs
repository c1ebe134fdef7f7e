//! Loom-style interleaving stress for the MPMC ring buffer.
//!
//! The workspace has no model checker, so this suite forces scheduling
//! diversity the way the fault-injection runtime does: seeded latency
//! spikes. Each thread draws from its own deterministic [`Rng`] stream
//! and occasionally sleeps or yields at the worst possible moments
//! (between reserving a slot and publishing it, between claiming and
//! releasing), so slow-producer/fast-consumer, out-of-order publish,
//! and multi-lap wrap interleavings are all exercised. Every seed runs
//! the same schedule again on re-execution — failures reproduce.

use rabit_util::ring::{Parker, RingBuffer};
use rabit_util::rng::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Seeded scheduling jitter: mostly nothing, sometimes a yield,
/// occasionally a real sleep (the "latency spike").
fn jitter(rng: &mut Rng) {
    match rng.next_u64() % 32 {
        0 => std::thread::sleep(Duration::from_micros(rng.next_u64() % 80)),
        1..=4 => std::thread::yield_now(),
        _ => {}
    }
}

/// Runs `producers` push threads against `consumers` pop threads on a
/// deliberately tiny ring, with seeded latency spikes on both sides.
/// Asserts (a) nothing is lost or duplicated and (b) each consumer saw
/// every producer's items as an increasing subsequence — the per-tenant
/// FIFO property the broker's lanes rely on.
fn stress(seed: u64, producers: usize, consumers: usize, per_producer: usize, capacity: usize) {
    let ring = Arc::new(RingBuffer::with_capacity(capacity));
    let space = Arc::new(Parker::new());
    let items = Arc::new(Parker::new());
    let received = Arc::new(AtomicUsize::new(0));
    let total = producers * per_producer;
    let mut views: Vec<Vec<(usize, usize)>> = Vec::new();

    std::thread::scope(|scope| {
        for producer in 0..producers {
            let ring = Arc::clone(&ring);
            let space = Arc::clone(&space);
            let items = Arc::clone(&items);
            let mut rng = Rng::seed_from_u64(seed ^ (producer as u64).wrapping_mul(0x9E37));
            scope.spawn(move || {
                for seq in 0..per_producer {
                    let mut item = (producer, seq);
                    loop {
                        let ticket = space.ticket();
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                space.park(ticket);
                            }
                        }
                    }
                    items.unpark_all();
                    jitter(&mut rng);
                }
            });
        }

        let mut handles = Vec::new();
        for consumer in 0..consumers {
            let ring = Arc::clone(&ring);
            let space = Arc::clone(&space);
            let items = Arc::clone(&items);
            let received = Arc::clone(&received);
            let mut rng = Rng::seed_from_u64(seed ^ (consumer as u64).wrapping_mul(0xC2B2) ^ 1);
            handles.push(scope.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let ticket = items.ticket();
                    if let Some(item) = ring.try_pop() {
                        received.fetch_add(1, Ordering::AcqRel);
                        seen.push(item);
                        space.unpark_all();
                        jitter(&mut rng);
                        continue;
                    }
                    if received.load(Ordering::Acquire) >= total {
                        // A peer may have parked after the test thread's
                        // wake-up for it; wake it to see the exit too.
                        items.unpark_all();
                        return seen;
                    }
                    items.park(ticket);
                }
            }));
        }
        // Final drain may leave consumers parked with no producer left
        // to wake them: every consumer that sees the exit condition
        // broadcasts it before returning, and the test thread broadcasts
        // once more before each join.
        for handle in handles {
            items.unpark_all();
            views.push(handle.join().expect("consumer panicked"));
        }
    });

    let mut counts = vec![vec![0usize; per_producer]; producers];
    for view in &views {
        let mut last_seen = vec![None::<usize>; producers];
        for &(producer, seq) in view {
            counts[producer][seq] += 1;
            assert!(
                last_seen[producer].is_none_or(|last| last < seq),
                "seed {seed}: consumer view reordered producer {producer}"
            );
            last_seen[producer] = Some(seq);
        }
    }
    for (producer, seqs) in counts.iter().enumerate() {
        for (seq, &count) in seqs.iter().enumerate() {
            assert_eq!(
                count, 1,
                "seed {seed}: item ({producer},{seq}) seen {count} times"
            );
        }
    }
}

#[test]
fn mpsc_under_seeded_latency_spikes() {
    for seed in 0..6 {
        stress(0xA11CE + seed, 4, 1, 800, 8);
    }
}

#[test]
fn mpmc_under_seeded_latency_spikes() {
    for seed in 0..6 {
        stress(0xB0B + seed, 4, 3, 600, 4);
    }
}

#[test]
fn single_slot_pairs_force_maximum_contention() {
    // Capacity 2 (the minimum) makes every push race every pop.
    for seed in 0..4 {
        stress(0xFACADE + seed, 2, 2, 500, 2);
    }
}

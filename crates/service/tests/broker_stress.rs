//! Interleaving stress for the broker's lanes under shedding and
//! blocking admission.
//!
//! The workspace has no model checker, so this suite forces scheduling
//! diversity with seeded latency spikes: each submitter draws from its
//! own deterministic [`Rng`] stream and sometimes sleeps or yields
//! between submissions and before resubmitting what was shed. Lanes
//! hold two commands, so most submissions contend for space. Checked at
//! 1, 4 and 8 workers, over several seeds:
//!
//! * every command commits exactly once (the tenants' final epochs sum
//!   to the commands sent);
//! * each submitter sees each tenant's receipt epochs strictly increase;
//! * no `(tenant, epoch)` pair is handed out twice.

use rabit_rulebase::{RuleId, Rulebase, TenantId};
use rabit_service::{RuleCommand, RuleCommit, RuleOp, RuleStore, ServiceBroker, ServiceError};
use rabit_util::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
const SUBMITTERS: u64 = 4;
const BATCHES_PER_SUBMITTER: usize = 400;
const LANE_CAPACITY: usize = 2;

/// Seeded scheduling jitter: mostly nothing, sometimes a yield,
/// occasionally a real sleep (the "latency spike").
fn jitter(rng: &mut Rng) {
    match rng.next_u64() % 32 {
        0 => std::thread::sleep(Duration::from_micros(rng.next_u64() % 80)),
        1..=4 => std::thread::yield_now(),
        _ => {}
    }
}

/// A command that always commits: toggles one of two general rules.
fn random_command(rng: &mut Rng) -> RuleCommand {
    let tenant = TENANTS[rng.random_range(0..TENANTS.len())];
    let rule = RuleId::General(rng.random_range(1u32..3) as u8);
    let op = if rng.next_u64().is_multiple_of(2) {
        RuleOp::Disable(rule)
    } else {
        RuleOp::Enable(rule)
    };
    RuleCommand::new(tenant, op)
}

/// One submitter: 1–3-command batches over the tenants, alternating
/// blocking and non-blocking admission; shed groups are resubmitted
/// (blocking) before the next batch. A tenant's group is admitted or
/// shed whole, so the returned commits, filtered to one tenant, are in
/// that tenant's submission order. Returns (sent, shed, commits).
fn submitter(broker: &ServiceBroker, seed: u64) -> (u64, u64, Vec<RuleCommit>) {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut sent, mut shed, mut commits) = (0, 0, Vec::new());
    let mut commit = |command: &RuleCommand, receipt: Result<RuleCommit, ServiceError>| {
        let receipt = receipt.expect("every command commits");
        assert_eq!(receipt.tenant, command.tenant);
        commits.push(receipt);
    };
    for batch in 0..BATCHES_PER_SUBMITTER {
        let len = rng.random_range(1usize..4);
        let commands: Vec<RuleCommand> = (0..len).map(|_| random_command(&mut rng)).collect();
        sent += len as u64;
        jitter(&mut rng);
        let mut retry = Vec::new();
        let receipts = if batch.is_multiple_of(2) {
            broker.submit_batch(&commands).wait()
        } else {
            broker.try_submit_batch(&commands).wait()
        };
        for (command, receipt) in commands.iter().zip(receipts) {
            match receipt {
                Err(ServiceError::Overloaded(tenant)) => {
                    assert_eq!(tenant, command.tenant);
                    retry.push(command.clone());
                }
                receipt => commit(command, receipt),
            }
        }
        shed += retry.len() as u64;
        jitter(&mut rng);
        for (command, receipt) in retry.iter().zip(broker.submit_batch(&retry).wait()) {
            commit(command, receipt);
        }
    }
    (sent, shed, commits)
}

fn stress(seed: u64, workers: usize) {
    let store = Arc::new(RuleStore::new());
    for tenant in TENANTS {
        store.seed_tenant(tenant, Rulebase::standard());
    }
    let broker = ServiceBroker::with_queue_capacity(Arc::clone(&store), workers, LANE_CAPACITY);
    let broker_ref = &broker;
    let results: Vec<(u64, u64, Vec<RuleCommit>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|s| scope.spawn(move || submitter(broker_ref, seed ^ s.wrapping_mul(0x9E37))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect()
    });
    broker.flush();

    let context = format!("seed {seed}, {workers} workers");
    let sent: u64 = results.iter().map(|(sent, _, _)| sent).sum();
    let shed: u64 = results.iter().map(|(_, shed, _)| shed).sum();
    let final_epochs: u64 = TENANTS
        .iter()
        .map(|t| store.epoch_of(&TenantId::new(*t)).expect("seeded tenant"))
        .sum();
    assert_eq!(final_epochs, sent, "{context}: not exactly once");
    assert!(shed > 0, "{context}: nothing was shed");
    let stats = broker.stats();
    assert_eq!(stats.shed_commands, shed);
    assert_eq!((stats.committed, stats.rejected), (sent, 0));

    let mut handed_out = BTreeSet::new();
    for (submitter, (_, _, commits)) in results.iter().enumerate() {
        for tenant in TENANTS {
            let epochs: Vec<u64> = commits
                .iter()
                .filter(|c| c.tenant.as_str() == tenant)
                .map(|c| c.epoch)
                .collect();
            assert!(
                epochs.windows(2).all(|w| w[0] < w[1]),
                "{context}: submitter {submitter} saw {tenant} reordered"
            );
        }
        for c in commits {
            let (tenant, epoch) = (c.tenant.as_str(), c.epoch);
            assert!(
                handed_out.insert((tenant, epoch)),
                "{context}: ({tenant}, {epoch}) handed out twice"
            );
        }
    }
}

#[test]
fn lanes_hold_under_seeded_latency_spikes_at_1_4_and_8_workers() {
    for (workers, seeds) in [(1, 0xA11CE), (4, 0xB0B), (8, 0xFACADE)] {
        for seed in seeds..seeds + 5 {
            stress(seed, workers);
        }
    }
}

//! The RABIT rule service: a versioned, multi-tenant rule store with
//! live CRUD and epoch-consistent validation.
//!
//! The paper's rulebase is born static: a lab bakes its rules into a
//! substrate and every run validates against that one value. Real
//! self-driving labs edit their rules while workflows are in flight —
//! an operator stages a new custom rule, disables a false-positive one,
//! tightens a precondition — and the intervention layer must neither
//! miss the change nor tear an in-flight validation between two rule
//! generations. This crate provides that layer:
//!
//! * [`RuleStore`] — per-tenant, epoch-versioned storage. Every commit
//!   (create / update / enable / disable / remove) is copy-on-write: it
//!   publishes a fresh immutable [`RulebaseSnapshot`] at the tenant's
//!   next epoch. In-flight validations keep the snapshot they started
//!   with; the next command picks up the latest — exactly the
//!   "epoch-consistent" contract the differential suite pins down.
//! * [`ServiceBroker`] — an asynchronous command broker over the store:
//!   worker threads draining per-tenant bounded FIFO lanes behind one
//!   lock, so one lab's edits apply in submission order while different
//!   labs commit in parallel, with identical results for any worker
//!   count. Each drained batch is one [`RuleStore::apply_ops`] commit,
//!   and batched admission ([`ServiceBroker::submit_batch`] →
//!   [`BatchTicket`]) shares one receipt block per batch; bounded lanes
//!   give typed backpressure ([`ServiceError::Overloaded`] via
//!   [`ServiceBroker::try_submit_batch`]).
//! * Typed requests and receipts — [`CreateRuleRequest`],
//!   [`UpdateRuleRequest`] (partial, with `is_enabled`), [`RuleCommit`],
//!   [`ServiceError`] — the REST-shaped surface an HTTP frontend would
//!   serialise directly.
//!
//! The store implements [`rabit_rulebase::SnapshotSource`], so
//! `rabit_tracer::run_fleet_on_live` can drive whole fleets against it:
//! each fleet job validates against the snapshot current at its start.
//!
//! # Example
//!
//! ```
//! use rabit_rulebase::{RuleId, Rulebase, SnapshotSource, TenantId};
//! use rabit_service::RuleStore;
//!
//! let store = RuleStore::new();
//! let tenant = TenantId::new("hein");
//! store.seed_tenant(tenant.clone(), Rulebase::hein_lab());
//!
//! // An in-flight validation pins epoch 0...
//! let pinned = store.snapshot(&tenant);
//!
//! // ...a live commit publishes epoch 1...
//! store.set_rule_enabled(&tenant, &RuleId::General(1), false).unwrap();
//!
//! // ...and only new readers see it.
//! assert_eq!(pinned.epoch(), 0);
//! assert_eq!(pinned.enabled_count(), 15);
//! let latest = store.snapshot(&tenant);
//! assert_eq!(latest.epoch(), 1);
//! assert_eq!(latest.enabled_count(), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod store;

pub use broker::{BatchTicket, BrokerStats, RuleCommand, ServiceBroker};
pub use store::{
    CommitOp, CreateRuleRequest, RuleCommit, RuleOp, RuleStore, ServiceError, UpdateRuleRequest,
};

// Re-exported so service users name tenants and snapshots without a
// direct rabit-rulebase dependency.
pub use rabit_rulebase::{RulebaseSnapshot, SnapshotSource, TenantId, STATIC_EPOCH};

//! Builder-style engine assembly.
//!
//! [`RabitBuilder`] replaces the old three-step construction dance —
//! `Rabit::new(...)`, then `.with_validator(...)`, then mutating
//! through `config_mut()` — with one declarative expression:
//!
//! ```
//! use rabit_core::{Rabit, RecoveryPolicy, RetryPolicy, StopPolicy};
//! use rabit_rulebase::{DeviceCatalog, Rulebase};
//!
//! let rabit = Rabit::builder()
//!     .rulebase(Rulebase::standard())
//!     .catalog(DeviceCatalog::new())
//!     .stop_policy(StopPolicy::FailSafe)
//!     .recovery(RecoveryPolicy::Retry(RetryPolicy::default()))
//!     .build();
//! assert_eq!(rabit.config().stop_policy, StopPolicy::FailSafe);
//! ```

use crate::alert::StopPolicy;
use crate::engine::{Rabit, RabitConfig};
use crate::faults::{FaultPlan, RecoveryPolicy};
use crate::trajcheck::TrajectoryValidator;
use rabit_rulebase::{DeviceCatalog, Rulebase, RulebaseSnapshot};

/// Assembles a [`Rabit`] engine: rulebase → catalog → config →
/// validator → fault plan. Every component has a sensible default (the
/// standard rulebase, an empty catalog, the default configuration, no
/// validator, no faults), so a builder chain only names what it
/// changes. Start one with [`Rabit::builder`].
pub struct RabitBuilder {
    rulebase: RulebaseSnapshot,
    catalog: DeviceCatalog,
    config: RabitConfig,
    validator: Option<Box<dyn TrajectoryValidator>>,
    fault_plan: FaultPlan,
}

impl RabitBuilder {
    /// A builder with all defaults (equivalent to
    /// `Rabit::new(Rulebase::standard(), DeviceCatalog::new(),
    /// RabitConfig::default())`).
    pub fn new() -> Self {
        RabitBuilder {
            rulebase: RulebaseSnapshot::pinned(Rulebase::standard()),
            catalog: DeviceCatalog::new(),
            config: RabitConfig::default(),
            validator: None,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Sets the rulebase the engine enforces: either an owned
    /// [`Rulebase`] (pinned at epoch 0) or an epoch-stamped
    /// [`RulebaseSnapshot`] published by a live rule store.
    pub fn rulebase(mut self, rulebase: impl Into<RulebaseSnapshot>) -> Self {
        self.rulebase = rulebase.into();
        self
    }

    /// Sets the device catalog the engine consults.
    pub fn catalog(mut self, catalog: DeviceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Replaces the whole engine configuration.
    pub fn config(mut self, config: RabitConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the `S_actual ≠ S_expected` numeric tolerance.
    pub fn state_tolerance(mut self, tolerance: f64) -> Self {
        self.config.state_tolerance = tolerance;
        self
    }

    /// Sets what the engine does on alert.
    pub fn stop_policy(mut self, policy: StopPolicy) -> Self {
        self.config.stop_policy = policy;
        self
    }

    /// Skips the post-execution malfunction check (ablation knob).
    pub fn skip_malfunction_check(mut self, on: bool) -> Self {
        self.config.skip_malfunction_check = on;
        self
    }

    /// Sets how the engine treats transient faults.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.config.recovery = policy;
        self
    }

    /// Attaches a trajectory validator (`SimAvailable` becomes true).
    pub fn validator(mut self, validator: Box<dyn TrajectoryValidator>) -> Self {
        self.validator = Some(validator);
        self
    }

    /// Carries a fault plan the engine arms on `initialize`.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Rabit {
        let mut rabit = Rabit::new(self.rulebase, self.catalog, self.config);
        if let Some(validator) = self.validator {
            rabit = rabit.with_validator(validator);
        }
        rabit.with_fault_plan(self.fault_plan)
    }
}

impl Default for RabitBuilder {
    fn default() -> Self {
        RabitBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultSchedule, RetryPolicy};
    use crate::trajcheck::ApproveAll;

    #[test]
    fn builder_defaults_match_plain_construction() {
        let built = Rabit::builder().build();
        let plain = Rabit::new(
            Rulebase::standard(),
            DeviceCatalog::new(),
            RabitConfig::default(),
        );
        assert_eq!(built.rulebase().len(), plain.rulebase().len());
        assert_eq!(
            built.config().state_tolerance,
            plain.config().state_tolerance
        );
        assert!(built.fault_plan().is_empty());
    }

    #[test]
    fn builder_threads_every_component() {
        let plan = FaultPlan::seeded(5).with(
            FaultKind::DropCommand,
            FaultSchedule::EveryNth {
                period: 2,
                offset: 0,
            },
        );
        let rabit = Rabit::builder()
            .rulebase(Rulebase::standard())
            .catalog(DeviceCatalog::new())
            .state_tolerance(0.25)
            .stop_policy(StopPolicy::FailSafe)
            .skip_malfunction_check(false)
            .recovery(RecoveryPolicy::Quarantine(RetryPolicy::default()))
            .validator(Box::new(ApproveAll))
            .fault_plan(plan.clone())
            .build();
        assert_eq!(rabit.config().state_tolerance, 0.25);
        assert_eq!(rabit.config().stop_policy, StopPolicy::FailSafe);
        assert!(matches!(
            rabit.config().recovery,
            RecoveryPolicy::Quarantine(_)
        ));
        assert_eq!(rabit.fault_plan(), &plan);
        assert_eq!(rabit.validator_cache_stats(), (0, 0));
    }
}

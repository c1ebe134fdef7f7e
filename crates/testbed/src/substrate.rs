//! Deployment substrates over the testbed deck.
//!
//! The testbed deck realises every stage of the promotion pipeline: the
//! Extended Simulator sweeps its cuboid world (stage 1), the physical
//! testbed runs it at TESTBED latency and centimetre noise (stage 2),
//! and the same topology at PRODUCTION latency stands in for the real
//! lab (stage 3, Table I's "same deck, different speeds" comparison).
//!
//! * [`Testbed`] itself implements [`Substrate`] as the canonical
//!   stage-2 backend;
//! * [`TestbedSubstrate`] is a lightweight profile — a [`Stage`] plus a
//!   [`RabitStage`] study configuration — that rebuilds the deck fresh
//!   for every run, so the 16-bug suite can replay against any stage or
//!   configuration without sharing state;
//! * [`Testbed::simulator_substrate`] wires the deck's recipes into a
//!   sim-backed [`SimulatorSubstrate`];
//! * [`Testbed::pipeline`] assembles the full three-stage
//!   [`StagePipeline`].

use crate::env::{rulebase_for, RabitStage, Testbed};
use rabit_core::{FaultPlan, Lab, Stage, Substrate, TrajectoryValidator};
use rabit_rulebase::{DeviceCatalog, RulebaseSnapshot};
use rabit_sim::SimulatorSubstrate;
use rabit_tracer::StagePipeline;

/// A stage/configuration profile of the testbed deck implementing
/// [`Substrate`]: fresh labs at the stage's latency, the configuration's
/// rulebase, and (for [`RabitStage::ModifiedWithSimulator`]) a fresh
/// headless Extended Simulator as validator.
#[derive(Debug, Clone)]
pub struct TestbedSubstrate {
    name: String,
    stage: Stage,
    config: RabitStage,
    fault_plan: FaultPlan,
}

impl TestbedSubstrate {
    /// A profile at an explicit stage and study configuration.
    pub fn new(stage: Stage, config: RabitStage) -> Self {
        let tag = match config {
            RabitStage::Baseline => "baseline",
            RabitStage::Modified => "modified",
            RabitStage::ModifiedWithSimulator => "modified+sim",
        };
        TestbedSubstrate {
            name: format!("testbed:{}:{tag}", stage.name().to_lowercase()),
            stage,
            config,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Arms every run of this profile with a fault plan (robustness
    /// sweeps). [`Substrate::instantiate_with`] overrides it per run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The canonical promotion profile for a stage: modified rules
    /// everywhere, with the Extended Simulator attached only at the
    /// simulator stage (physical stages validate nothing virtually).
    pub fn for_stage(stage: Stage) -> Self {
        let config = if stage == Stage::Simulator {
            RabitStage::ModifiedWithSimulator
        } else {
            RabitStage::Modified
        };
        TestbedSubstrate::new(stage, config)
    }

    /// A study configuration at the physical testbed stage — the three
    /// deployments the §IV uncontrolled study compares (8/12/13 of 16
    /// bugs detected).
    pub fn study(config: RabitStage) -> Self {
        TestbedSubstrate::new(Stage::Testbed, config)
    }

    /// The study configuration this profile runs.
    pub fn config(&self) -> RabitStage {
        self.config
    }
}

impl Substrate for TestbedSubstrate {
    fn name(&self) -> &str {
        &self.name
    }

    fn stage(&self) -> Stage {
        self.stage
    }

    fn build_lab(&self) -> Lab {
        Testbed::build_lab(self.latency())
    }

    fn rulebase(&self) -> RulebaseSnapshot {
        rulebase_for(self.config).into()
    }

    fn catalog(&self) -> DeviceCatalog {
        Testbed::build_catalog()
    }

    fn validator(&self) -> Option<Box<dyn TrajectoryValidator>> {
        (self.config == RabitStage::ModifiedWithSimulator)
            .then(|| Box::new(Testbed::build_extended_simulator(false)) as _)
    }

    fn fault_plan(&self) -> FaultPlan {
        self.fault_plan.clone()
    }
}

/// The assembled testbed is itself the canonical stage-2 substrate:
/// modified rules, TESTBED latency, no virtual validator.
impl Substrate for Testbed {
    fn name(&self) -> &str {
        "testbed"
    }

    fn stage(&self) -> Stage {
        Stage::Testbed
    }

    fn build_lab(&self) -> Lab {
        Testbed::build_lab(self.latency())
    }

    fn rulebase(&self) -> RulebaseSnapshot {
        rulebase_for(RabitStage::Modified).into()
    }

    fn catalog(&self) -> DeviceCatalog {
        self.catalog.clone()
    }
}

impl Testbed {
    /// The sim-backed stage-1 substrate over the testbed deck: fresh
    /// SIMULATED-latency labs from the deck recipe, modified rules, and
    /// a fresh headless Extended Simulator per engine.
    pub fn simulator_substrate() -> SimulatorSubstrate {
        let mut substrate = SimulatorSubstrate::new("testbed:simulator")
            .with_world(Testbed::simulator_world())
            .with_lab(|| Testbed::build_lab(Stage::Simulator.latency()))
            .with_rulebase(|| rulebase_for(RabitStage::Modified))
            .with_catalog(Testbed::build_catalog);
        for (id, model) in Testbed::simulator_arms() {
            substrate = substrate.with_arm(id, model);
        }
        substrate
    }

    /// The full three-stage promotion pipeline over the testbed deck:
    /// Extended Simulator → physical testbed → production profile.
    pub fn pipeline() -> StagePipeline {
        StagePipeline::new()
            .with_substrate(Box::new(Testbed::simulator_substrate()))
            .with_substrate(Box::new(TestbedSubstrate::for_stage(Stage::Testbed)))
            .with_substrate(Box::new(TestbedSubstrate::for_stage(Stage::Production)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflows;
    use rabit_devices::LatencyModel;
    use rabit_tracer::Tracer;

    #[test]
    fn study_profiles_match_the_paper_configurations() {
        let base = TestbedSubstrate::study(RabitStage::Baseline);
        let modif = TestbedSubstrate::study(RabitStage::Modified);
        let with_sim = TestbedSubstrate::study(RabitStage::ModifiedWithSimulator);
        assert_eq!(base.rulebase().len(), 15);
        assert_eq!(modif.rulebase().len(), 18);
        assert_eq!(with_sim.rulebase().len(), 18);
        assert!(base.validator().is_none());
        assert!(modif.validator().is_none());
        assert!(with_sim.validator().is_some());
        assert_eq!(base.stage(), Stage::Testbed);
        assert_eq!(base.name(), "testbed:testbed:baseline");
    }

    #[test]
    fn stage_profiles_carry_stage_latency_and_validator() {
        let sim = TestbedSubstrate::for_stage(Stage::Simulator);
        let prod = TestbedSubstrate::for_stage(Stage::Production);
        assert_eq!(sim.config(), RabitStage::ModifiedWithSimulator);
        assert!(sim.validator().is_some());
        assert_eq!(prod.config(), RabitStage::Modified);
        assert!(prod.validator().is_none());
        assert_eq!(sim.latency(), LatencyModel::SIMULATED);
        assert_eq!(prod.latency(), LatencyModel::PRODUCTION);
        assert_eq!(prod.position_noise().sigma(), 0.0005);
    }

    #[test]
    fn testbed_is_the_canonical_stage_two_substrate() {
        let tb = Testbed::new();
        assert_eq!(Substrate::name(&tb), "testbed");
        assert_eq!(tb.stage(), Stage::Testbed);
        assert_eq!(Substrate::rulebase(&tb).len(), 18);
        let (mut lab, mut rabit) = tb.instantiate();
        let wf = workflows::fig5_safe_workflow(&tb.locations);
        let report = Tracer::guarded(&mut lab, &mut rabit).run(&wf);
        assert!(report.completed(), "false positive: {:?}", report.alert);
        assert!(lab.damage_log().is_empty());
    }

    #[test]
    fn pipeline_deploys_the_safe_workflow() {
        let pipeline = Testbed::pipeline();
        assert_eq!(pipeline.len(), 3);
        let loc = crate::locations::locations();
        let wf = workflows::fig5_safe_workflow(&loc);
        let report = pipeline.promote(&wf);
        assert!(
            report.deployed(),
            "blocked at {:?}: {:?}",
            report.blocked_at(),
            report.stages.last().map(|s| &s.report.alert)
        );
        assert_eq!(report.stages.len(), 3);
        // The simulator stage actually swept trajectories.
        let sim_stage = report.stage(Stage::Simulator).unwrap();
        assert!(sim_stage.report.counters.cache_hit_rate().is_some());
        assert_eq!(report.total_damage(), 0);
    }
}

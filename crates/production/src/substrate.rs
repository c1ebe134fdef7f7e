//! Deployment substrates over the production deck.
//!
//! The Hein Lab deck has no cardboard intermediate: a workflow is vetted
//! in the Extended Simulator and then runs on the real equipment. Its
//! promotion pipeline therefore has two stages — a [`StagePipeline`]
//! explicitly permits skipping one (stages must only be non-decreasing):
//!
//! * [`ProductionDeck::simulator_substrate`] — the deck's recipes wired
//!   into a sim-backed [`SimulatorSubstrate`] (stage 1);
//! * [`ProductionDeck`] itself implements [`Substrate`] as the stage-3
//!   backend (PRODUCTION latency, deployed rules, no virtual validator);
//! * [`ProductionDeck::pipeline`] assembles the two into a
//!   [`StagePipeline`].

use crate::deck::{production_rulebase, ProductionDeck};
use rabit_core::{Lab, Stage, Substrate};
use rabit_rulebase::{DeviceCatalog, RulebaseSnapshot};
use rabit_sim::SimulatorSubstrate;
use rabit_tracer::StagePipeline;

/// The assembled deck is the stage-3 substrate: deployed rules,
/// PRODUCTION latency, fresh labs per run, no virtual validator.
impl Substrate for ProductionDeck {
    fn name(&self) -> &str {
        "production"
    }

    fn stage(&self) -> Stage {
        Stage::Production
    }

    fn build_lab(&self) -> Lab {
        ProductionDeck::build_lab(self.latency())
    }

    fn rulebase(&self) -> RulebaseSnapshot {
        production_rulebase().into()
    }

    fn catalog(&self) -> DeviceCatalog {
        self.catalog.clone()
    }
}

impl ProductionDeck {
    /// The sim-backed stage-1 substrate over the production deck: fresh
    /// SIMULATED-latency labs from the deck recipe, the deployed
    /// rulebase, and a fresh headless Extended Simulator per engine.
    pub fn simulator_substrate() -> SimulatorSubstrate {
        let mut substrate = SimulatorSubstrate::new("production:simulator")
            .with_world(ProductionDeck::simulator_world())
            .with_lab(|| ProductionDeck::build_lab(Stage::Simulator.latency()))
            .with_rulebase(production_rulebase)
            .with_catalog(ProductionDeck::build_catalog);
        for (id, model) in ProductionDeck::simulator_arms() {
            substrate = substrate.with_arm(id, model);
        }
        substrate
    }

    /// The deck's promotion pipeline: Extended Simulator → production
    /// (no physical testbed stage exists for this deck).
    pub fn pipeline() -> StagePipeline {
        StagePipeline::new()
            .with_substrate(Box::new(ProductionDeck::simulator_substrate()))
            .with_substrate(Box::new(ProductionDeck::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solubility::{solubility_workflow, SolubilityParams};
    use rabit_devices::LatencyModel;

    #[test]
    fn deck_is_the_stage_three_substrate() {
        let deck = ProductionDeck::new();
        assert_eq!(Substrate::name(&deck), "production");
        assert_eq!(deck.stage(), Stage::Production);
        assert_eq!(deck.latency(), LatencyModel::PRODUCTION);
        assert_eq!(Substrate::rulebase(&deck).len(), 16);
        assert!(deck.validator().is_none());
        assert_eq!(deck.position_noise().sigma(), 0.0005);
    }

    #[test]
    fn pipeline_deploys_the_solubility_workflow() {
        let pipeline = ProductionDeck::pipeline();
        assert_eq!(pipeline.len(), 2, "sim + production, no testbed stage");
        let wf = solubility_workflow(&SolubilityParams::default());
        let report = pipeline.promote(&wf);
        assert!(
            report.deployed(),
            "blocked at {:?}: {:?}",
            report.blocked_at(),
            report.stages.last().map(|s| &s.report.alert)
        );
        assert!(report.stage(Stage::Testbed).is_none());
        // The simulator stage swept trajectories before any motor turned.
        let sim_stage = report.stage(Stage::Simulator).unwrap();
        assert!(sim_stage.report.counters.cache_hit_rate().is_some());
        // Production is 15× the simulator's per-run overhead in setup
        // cost alone.
        assert!(report.total_cost_s() > Stage::Production.setup_cost_s());
    }
}

//! The three-stage deployment pipeline as a first-class abstraction.
//!
//! The paper deploys *one* rule engine across three execution
//! environments of increasing fidelity and risk (§III, Table I):
//! the Extended Simulator, the low-fidelity testbed, and the production
//! lab. This module makes that pipeline explicit:
//!
//! * [`Stage`] — the deployment stage itself, with the latency, noise,
//!   cost, and setup profiles the Table I comparison quantifies;
//! * [`Substrate`] — a pluggable backend for one stage: it names itself
//!   and builds its [`Lab`], [`DeviceCatalog`], [`RulebaseSnapshot`], latency and
//!   noise models, and (optionally) a [`TrajectoryValidator`].
//!
//! The gated promotion through a sequence of substrates
//! (`StagePipeline`) lives in `rabit-tracer`, next to the fleet job that
//! runs each stage.

use crate::engine::{Rabit, RabitConfig};
use crate::faults::FaultPlan;
use crate::lab::Lab;
use crate::trajcheck::TrajectoryValidator;
use rabit_devices::LatencyModel;
use rabit_geometry::noise::PositionNoise;
use rabit_rulebase::{DeviceCatalog, RulebaseSnapshot};
use std::fmt;

/// One of RABIT's three deployment stages, in promotion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Stage 1: the Extended Simulator (virtual, free to crash).
    Simulator,
    /// Stage 2: the low-fidelity testbed (cardboard mockups, toy arms).
    Testbed,
    /// Stage 3: the production lab (real chemistry, real damage).
    Production,
}

impl Stage {
    /// All three stages, in deployment order.
    pub fn all() -> [Stage; 3] {
        [Stage::Simulator, Stage::Testbed, Stage::Production]
    }

    /// The stage's name.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Simulator => "Simulator",
            Stage::Testbed => "Testbed",
            Stage::Production => "Production",
        }
    }

    /// The stage a workflow is promoted to after clearing this one
    /// (`None` after production: the workflow is deployed).
    pub fn next(&self) -> Option<Stage> {
        match self {
            Stage::Simulator => Some(Stage::Testbed),
            Stage::Testbed => Some(Stage::Production),
            Stage::Production => None,
        }
    }

    /// The stage's device command-latency model.
    pub fn latency(&self) -> LatencyModel {
        match self {
            Stage::Simulator => LatencyModel::SIMULATED,
            Stage::Testbed => LatencyModel::TESTBED,
            Stage::Production => LatencyModel::PRODUCTION,
        }
    }

    /// Positional repeatability (σ, metres): zero in simulation,
    /// centimetre-scale on the educational arms, sub-millimetre on the
    /// UR3e (vendor repeatability ±0.03 mm, dominated in practice by
    /// calibration drift).
    pub fn precision_sigma_m(&self) -> f64 {
        match self {
            Stage::Simulator => 0.0,
            Stage::Testbed => 0.013,
            Stage::Production => 0.0005,
        }
    }

    /// Cost multiplier of damaging this stage's equipment.
    pub fn damage_cost_multiplier(&self) -> f64 {
        match self {
            Stage::Simulator => 0.0, // nothing physical can break
            Stage::Testbed => 1.0,   // cardboard and toy arms
            Stage::Production => 50.0,
        }
    }

    /// Per-experiment setup/reset cost (seconds): zero for a simulator
    /// restart, minutes of repositioning mockups on the testbed, and the
    /// chemical prep + cleanup of a real run. This, not raw arm speed, is
    /// what makes exploration "High / Medium / Low" across the stages.
    pub fn setup_cost_s(&self) -> f64 {
        match self {
            Stage::Simulator => 0.0,
            Stage::Testbed => 60.0,
            Stage::Production => 900.0,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deployment substrate: everything needed to instantiate one stage of
/// the pipeline for a fresh run.
///
/// A substrate is a *recipe*, not an instance: [`Substrate::build_lab`]
/// and [`Substrate::rabit`] construct fresh state on every call, so the
/// same substrate can back many parallel fleet runs (`Send + Sync` is a
/// supertrait for exactly that reason).
pub trait Substrate: Send + Sync {
    /// The substrate's name (shown in stage and fleet reports).
    fn name(&self) -> &str;

    /// Which deployment stage this substrate realises.
    fn stage(&self) -> Stage;

    /// Builds a fresh lab for one run.
    fn build_lab(&self) -> Lab;

    /// The epoch-stamped rulebase snapshot the stage's engine enforces.
    /// Static substrates return a pinned snapshot (epoch 0); substrates
    /// backed by a live rule store return the store's latest published
    /// snapshot. `impl Into<RulebaseSnapshot>` conversions mean a plain
    /// `Rulebase::...().into()` suffices for the static case.
    fn rulebase(&self) -> RulebaseSnapshot;

    /// Builds the device catalog the stage's engine consults.
    fn catalog(&self) -> DeviceCatalog;

    /// The stage's device command-latency model.
    fn latency(&self) -> LatencyModel {
        self.stage().latency()
    }

    /// The stage's arm positional-noise model (σ from
    /// [`Stage::precision_sigma_m`] unless the substrate overrides it).
    fn position_noise(&self) -> PositionNoise {
        PositionNoise::gaussian(self.stage().precision_sigma_m())
    }

    /// A fresh trajectory validator, if the substrate attaches one (the
    /// Extended Simulator stage does; physical stages may not).
    fn validator(&self) -> Option<Box<dyn TrajectoryValidator>> {
        None
    }

    /// The engine configuration for this stage.
    fn engine_config(&self) -> RabitConfig {
        RabitConfig::default()
    }

    /// The fault plan this substrate injects into every run (empty by
    /// default: substrates are fault-free unless configured otherwise).
    fn fault_plan(&self) -> FaultPlan {
        FaultPlan::none()
    }

    /// Assembles a fresh RABIT engine from the substrate's rulebase,
    /// catalog, configuration, fault plan, and (optional) validator.
    fn rabit(&self) -> Rabit {
        self.rabit_on(self.rulebase())
    }

    /// Assembles a fresh RABIT engine enforcing an explicit snapshot
    /// instead of the substrate's own — the hook a live rule store uses
    /// to hand a lab the latest published rule generation without
    /// rebuilding the substrate.
    fn rabit_on(&self, snapshot: RulebaseSnapshot) -> Rabit {
        let mut builder = Rabit::builder()
            .rulebase(snapshot)
            .catalog(self.catalog())
            .config(self.engine_config())
            .fault_plan(self.fault_plan());
        if let Some(validator) = self.validator() {
            builder = builder.validator(validator);
        }
        builder.build()
    }

    /// Builds a fresh `(Lab, Rabit)` pair, ready to run a workflow,
    /// armed with the substrate's own fault plan (none by default).
    fn instantiate(&self) -> (Lab, Rabit) {
        self.instantiate_with(&self.fault_plan())
    }

    /// Builds a fresh `(Lab, Rabit)` pair armed with an explicit fault
    /// plan, overriding the substrate's own. An empty plan arms
    /// nothing — the run is byte-for-byte identical to a plain
    /// [`Substrate::instantiate`] on a fault-free substrate.
    fn instantiate_with(&self, plan: &FaultPlan) -> (Lab, Rabit) {
        self.instantiate_on(self.rulebase(), plan)
    }

    /// Builds a fresh `(Lab, Rabit)` pair enforcing an explicit rulebase
    /// snapshot, armed with an explicit fault plan. With the substrate's
    /// own (pinned) snapshot this is exactly
    /// [`Substrate::instantiate_with`]; with a store-published snapshot
    /// it is how live fleets pick up the latest rule generation.
    fn instantiate_on(&self, snapshot: RulebaseSnapshot, plan: &FaultPlan) -> (Lab, Rabit) {
        let mut lab = self.build_lab();
        if !plan.is_empty() {
            lab.arm_faults(plan.session());
        }
        // The engine carries the override too, so the substrate's own
        // plan can never sneak in through `Rabit::initialize`.
        (lab, self.rabit_on(snapshot).with_fault_plan(plan.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::{DeviceType, DosingDevice, RobotArm};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_rulebase::DeviceMeta;

    /// A minimal one-arm/one-doser substrate.
    struct MiniSubstrate {
        stage: Stage,
    }

    impl Substrate for MiniSubstrate {
        fn name(&self) -> &str {
            "mini"
        }
        fn stage(&self) -> Stage {
            self.stage
        }
        fn build_lab(&self) -> Lab {
            Lab::new()
                .with_device(
                    RobotArm::new("arm", Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2))
                        .with_latency(self.latency()),
                )
                .with_device(DosingDevice::new(
                    "doser",
                    Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
                ))
        }
        fn rulebase(&self) -> RulebaseSnapshot {
            rabit_rulebase::Rulebase::standard().into()
        }
        fn catalog(&self) -> DeviceCatalog {
            DeviceCatalog::new()
                .with(
                    DeviceMeta::new("arm", DeviceType::RobotArm)
                        .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
                )
                .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
        }
    }

    #[test]
    fn stage_order_and_profiles() {
        assert_eq!(Stage::all().len(), 3);
        assert_eq!(Stage::Simulator.next(), Some(Stage::Testbed));
        assert_eq!(Stage::Production.next(), None);
        assert!(Stage::Simulator < Stage::Production);
        assert_eq!(Stage::Simulator.damage_cost_multiplier(), 0.0);
        assert!(Stage::Production.setup_cost_s() > Stage::Testbed.setup_cost_s());
        assert_eq!(Stage::Testbed.to_string(), "Testbed");
        // The noise model defaults track the stage σ.
        let s = MiniSubstrate {
            stage: Stage::Testbed,
        };
        assert_eq!(
            s.position_noise().sigma(),
            Stage::Testbed.precision_sigma_m()
        );
    }

    #[test]
    fn substrate_objects_are_shareable() {
        fn assert_sync<T: Send + Sync + ?Sized>() {}
        assert_sync::<dyn Substrate>();
    }
}

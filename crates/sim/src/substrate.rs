//! The sim-backed deployment substrate (stage 1 of the pipeline).
//!
//! [`SimulatorSubstrate`] implements [`rabit_core::Substrate`] for the
//! Extended Simulator stage: every run gets a fresh lab from a stored
//! recipe, and a fresh headless [`ExtendedSimulator`] is attached to the
//! engine as its trajectory validator. Because `rabit-sim` sits below the
//! stage crates in the dependency graph, the substrate is *recipe-based*:
//! deck crates (testbed, production) hand it closures that build their
//! lab, rulebase, and catalog, plus the obstacle world and arm models to
//! simulate — see `Testbed::simulator_substrate` and
//! `ProductionDeck::simulator_substrate`.

use crate::simulator::{ExtendedSimulator, SimConfig};
use crate::world::SimWorld;
use rabit_core::{FaultPlan, Lab, RabitConfig, Stage, Substrate, TrajectoryValidator};
use rabit_devices::DeviceId;
use rabit_kinematics::ArmModel;
use rabit_rulebase::{DeviceCatalog, Rulebase, RulebaseSnapshot};

type LabBuilder = Box<dyn Fn() -> Lab + Send + Sync>;
type RulebaseBuilder = Box<dyn Fn() -> RulebaseSnapshot + Send + Sync>;
type CatalogBuilder = Box<dyn Fn() -> DeviceCatalog + Send + Sync>;

/// A [`Substrate`] realising the Extended Simulator stage: a lab recipe
/// plus the simulated world and arm models a fresh validator is built
/// from on every [`Substrate::rabit`] call.
pub struct SimulatorSubstrate {
    name: String,
    world: SimWorld,
    arms: Vec<(DeviceId, ArmModel)>,
    sim_config: SimConfig,
    engine_config: RabitConfig,
    fault_plan: FaultPlan,
    lab: LabBuilder,
    rulebase: RulebaseBuilder,
    catalog: CatalogBuilder,
}

impl SimulatorSubstrate {
    /// A named substrate with an empty world, no arms, the standard
    /// rulebase, and a headless simulator configuration (the pipeline
    /// stage exists to run many virtual experiments fast; GUI latency is
    /// opt-in via [`SimulatorSubstrate::with_sim_config`]).
    pub fn new(name: impl Into<String>) -> Self {
        SimulatorSubstrate {
            name: name.into(),
            world: SimWorld::new(),
            arms: Vec::new(),
            sim_config: SimConfig {
                gui: false,
                ..SimConfig::default()
            },
            engine_config: RabitConfig::default(),
            fault_plan: FaultPlan::none(),
            lab: Box::new(Lab::new),
            rulebase: Box::new(|| Rulebase::standard().into()),
            catalog: Box::new(DeviceCatalog::new),
        }
    }

    /// Sets the obstacle world trajectories are swept against.
    pub fn with_world(mut self, world: SimWorld) -> Self {
        self.world = world;
        self
    }

    /// Registers an arm model the simulator mirrors.
    pub fn with_arm(mut self, id: impl Into<DeviceId>, model: ArmModel) -> Self {
        self.arms.push((id.into(), model));
        self
    }

    /// Sets the lab-construction recipe (called afresh for every run).
    pub fn with_lab(mut self, lab: impl Fn() -> Lab + Send + Sync + 'static) -> Self {
        self.lab = Box::new(lab);
        self
    }

    /// Sets the rulebase-construction recipe. The recipe may return an
    /// owned [`Rulebase`] (pinned at epoch 0) or an epoch-stamped
    /// [`RulebaseSnapshot`] — e.g. a closure over a live rule store that
    /// returns its latest published snapshot on every call.
    pub fn with_rulebase<R: Into<RulebaseSnapshot>>(
        mut self,
        rulebase: impl Fn() -> R + Send + Sync + 'static,
    ) -> Self {
        self.rulebase = Box::new(move || rulebase().into());
        self
    }

    /// Sets the catalog-construction recipe.
    pub fn with_catalog(
        mut self,
        catalog: impl Fn() -> DeviceCatalog + Send + Sync + 'static,
    ) -> Self {
        self.catalog = Box::new(catalog);
        self
    }

    /// Overrides the simulator configuration (GUI latency, poll interval,
    /// held-object modelling, verdict cache and dense sampling).
    pub fn with_sim_config(mut self, config: SimConfig) -> Self {
        self.sim_config = config;
        self
    }

    /// Overrides the engine configuration.
    pub fn with_engine_config(mut self, config: RabitConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Arms every run of this substrate with a fault plan (chaos-style
    /// robustness sweeps). [`Substrate::instantiate_with`] overrides it
    /// per run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builds a fresh Extended Simulator from the stored world and arms —
    /// the validator [`Substrate::validator`] attaches.
    pub fn build_simulator(&self) -> ExtendedSimulator {
        let mut sim = ExtendedSimulator::new(self.world.clone(), self.sim_config);
        for (id, model) in &self.arms {
            sim.add_arm(id.clone(), model.clone());
        }
        sim
    }
}

impl Substrate for SimulatorSubstrate {
    fn name(&self) -> &str {
        &self.name
    }

    fn stage(&self) -> Stage {
        Stage::Simulator
    }

    fn build_lab(&self) -> Lab {
        (self.lab)()
    }

    fn rulebase(&self) -> RulebaseSnapshot {
        (self.rulebase)()
    }

    fn catalog(&self) -> DeviceCatalog {
        (self.catalog)()
    }

    fn validator(&self) -> Option<Box<dyn TrajectoryValidator>> {
        Some(Box::new(self.build_simulator()))
    }

    fn engine_config(&self) -> RabitConfig {
        self.engine_config.clone()
    }

    fn fault_plan(&self) -> FaultPlan {
        self.fault_plan.clone()
    }
}

impl std::fmt::Debug for SimulatorSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorSubstrate")
            .field("name", &self.name)
            .field("obstacles", &self.world.obstacles().len())
            .field("arms", &self.arms.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::{ActionKind, Command, DeviceType, RobotArm};
    use rabit_geometry::{Aabb, Vec3};
    use rabit_kinematics::presets;
    use rabit_rulebase::DeviceMeta;

    fn substrate() -> SimulatorSubstrate {
        let arm = presets::ur3e();
        let home = arm.tool_position(&arm.home_configuration());
        let sleep = arm.tool_position(&arm.sleep_configuration());
        SimulatorSubstrate::new("unit-sim")
            .with_world(SimWorld::new().with_platform(1.0))
            .with_arm("ur3e", presets::ur3e())
            .with_lab(move || Lab::new().with_device(RobotArm::new("ur3e", home, sleep)))
            .with_catalog(move || {
                DeviceCatalog::new().with(
                    DeviceMeta::new("ur3e", DeviceType::RobotArm).with_arm_positions(home, sleep),
                )
            })
    }

    #[test]
    fn substrate_builds_fresh_guarded_engines() {
        let s = substrate();
        assert_eq!(s.stage(), Stage::Simulator);
        assert_eq!(s.name(), "unit-sim");
        assert_eq!(s.stage().damage_cost_multiplier(), 0.0);
        let (mut lab, mut rabit) = s.instantiate();
        // The validator is attached: a reachable free-space move sweeps.
        let arm = presets::ur3e();
        let target = arm.tool_position(&arm.home_configuration()) + Vec3::new(0.05, 0.0, 0.05);
        rabit.initialize(&mut lab);
        let outcome = rabit.step(
            &mut lab,
            &Command::new("ur3e", ActionKind::MoveToLocation { target }),
        );
        assert!(outcome.is_ok(), "alert: {outcome:?}");
        let counters = rabit.counters(&lab);
        assert!(counters.narrow_checks > 0 || counters.cache_misses > 0);
        // Each instantiate() is fresh — no state bleeds between runs.
        let (lab2, rabit2) = s.instantiate();
        assert_eq!(rabit2.counters(&lab2), rabit_core::RunCounters::default());
    }

    #[test]
    fn simulator_stage_blocks_colliding_motion() {
        let arm = presets::ur3e();
        let home = arm.tool_position(&arm.home_configuration());
        let target = home + Vec3::new(0.0, 0.25, 0.0);
        let wall =
            Aabb::from_center_half_extents(home.lerp(target, 0.5), Vec3::new(0.35, 0.04, 0.35));
        let s = substrate().with_world(SimWorld::new().with_obstacle("hotplate", wall));
        let (mut lab, mut rabit) = s.instantiate();
        rabit.initialize(&mut lab);
        let outcome = rabit.step(
            &mut lab,
            &Command::new("ur3e", ActionKind::MoveToLocation { target }),
        );
        match &outcome {
            Err(rabit_core::Alert::InvalidTrajectory { collision, .. }) => {
                assert_eq!(collision.device.as_str(), "hotplate");
            }
            other => panic!("expected a trajectory alert, got {other:?}"),
        }
        assert!(lab.damage_log().is_empty(), "blocked before execution");
    }
}

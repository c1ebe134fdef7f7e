//! The automated solubility measurement workflow (Fig. 1(b)).
//!
//! ```python
//! dosing_device.doseSolid(amount)
//! syringe_pump.doseInitialSolvent(volume)
//! hotplate.stirSolution(temperature)
//! image = recordImage()
//! measureSolubility(image)
//! while (not SolutionDissolved):
//!     syringe_pump.doseSolvent(amount)
//!     hotplate.stirSolution(temperature)
//!     image = recordImage()
//!     measureSolubility(image)
//! ```
//!
//! Each Python wrapper call expands into the underlying device commands,
//! exactly like the `doseSolid` definition shown in the figure.

use crate::camera::RECORD_IMAGE;
use crate::deck::locations;
use rabit_devices::{ActionKind, Command};
use rabit_tracer::Workflow;

/// Parameters of one solubility run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolubilityParams {
    /// Solid dose (mg). Fig. 1(b) raises an exception above 10 mg.
    pub solid_mg: f64,
    /// Initial solvent volume (mL).
    pub initial_solvent_ml: f64,
    /// Per-iteration solvent top-up (mL).
    pub solvent_step_ml: f64,
    /// Stirring temperature (°C).
    pub temperature_c: f64,
    /// Number of dissolve-check iterations after the initial one.
    pub iterations: usize,
}

impl Default for SolubilityParams {
    fn default() -> Self {
        SolubilityParams {
            solid_mg: 5.0,
            initial_solvent_ml: 2.0,
            solvent_step_ml: 1.0,
            temperature_c: 60.0,
            iterations: 3,
        }
    }
}

fn record_image(wf: Workflow) -> Workflow {
    wf.then(Command::new(
        "camera",
        ActionKind::Custom {
            name: RECORD_IMAGE.to_string(),
            params: vec![],
        },
    ))
}

/// `dosing_device.doseSolid(amount)` — the full expansion from Fig. 1(b):
/// open door, fetch the vial from the grid, place it inside, dose with
/// the door closed, then return the vial to the grid.
pub fn dose_solid_expansion(wf: Workflow, amount_mg: f64) -> Workflow {
    wf.set_door("dosing_device", true)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .pick_up("ur3e", "vial", locations::GRID_A1)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .move_to("ur3e", locations::DOSING_APPROACH)
        .move_inside("ur3e", "dosing_device")
        .then(Command::new(
            "ur3e",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("dosing_device".into()),
            },
        ))
        .move_out("ur3e")
        .go_home("ur3e")
        .set_door("dosing_device", false)
        .dose_solid("dosing_device", amount_mg, "vial")
        // Dosing stops when the amount is dispensed (Fig. 1(b) comment).
        .set_door("dosing_device", true)
        .move_to("ur3e", locations::DOSING_APPROACH)
        .move_inside("ur3e", "dosing_device")
        .then(Command::new(
            "ur3e",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .move_out("ur3e")
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .place_at("ur3e", "vial", locations::GRID_A1)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .go_home("ur3e")
        .set_door("dosing_device", false)
}

/// One stir cycle: carry the vial to the hotplate, stir at temperature,
/// and bring it back to the grid.
pub fn stir_expansion(wf: Workflow, temperature_c: f64) -> Workflow {
    wf.move_to("ur3e", locations::GRID_A1_SAFE)
        .pick_up("ur3e", "vial", locations::GRID_A1)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .move_to("ur3e", locations::HOTPLATE_APPROACH)
        .then(Command::new(
            "ur3e",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("hotplate".into()),
            },
        ))
        .start_action("hotplate", temperature_c)
        .stop_action("hotplate")
        .then(Command::new(
            "ur3e",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        ))
        .move_to("ur3e", locations::HOTPLATE_APPROACH)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .place_at("ur3e", "vial", locations::GRID_A1)
        .move_to("ur3e", locations::GRID_A1_SAFE)
        .go_home("ur3e")
}

/// Builds the full Fig. 1(b) solubility workflow.
pub fn solubility_workflow(params: &SolubilityParams) -> Workflow {
    let mut wf = Workflow::new("solubility").go_home("ur3e").decap("vial");
    wf = dose_solid_expansion(wf, params.solid_mg);
    wf = wf.dose_liquid("syringe_pump", params.initial_solvent_ml, "vial");
    wf = stir_expansion(wf, params.temperature_c);
    wf = record_image(wf);
    for _ in 0..params.iterations {
        wf = wf.dose_liquid("syringe_pump", params.solvent_step_ml, "vial");
        wf = stir_expansion(wf, params.temperature_c);
        wf = record_image(wf);
    }
    wf.cap("vial").go_to_sleep("ur3e")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::ProductionDeck;
    use rabit_tracer::{TraceOutcome, Tracer};

    #[test]
    fn workflow_structure() {
        let wf = solubility_workflow(&SolubilityParams::default());
        assert!(wf.len() > 50, "full expansion, got {}", wf.len());
        assert!(wf.find("dose_solid").is_some());
        assert!(wf.find("dose_liquid").is_some());
        assert!(wf.find("custom(record_image)").is_some());
        // More iterations → strictly longer workflow.
        let longer = solubility_workflow(&SolubilityParams {
            iterations: 6,
            ..SolubilityParams::default()
        });
        assert!(longer.len() > wf.len());
    }

    #[test]
    fn solubility_run_completes_under_rabit() {
        let mut deck = ProductionDeck::new();
        let mut rabit = deck.rabit();
        let wf = solubility_workflow(&SolubilityParams::default());
        let report = Tracer::guarded(&mut deck.lab, &mut rabit).run(&wf);
        assert!(report.completed(), "false positive: {:?}", report.alert);
        assert!(deck.lab.damage_log().is_empty());
        // The chemistry happened: solid and solvent are in the vial.
        let vial = deck.lab.device(&"vial".into()).unwrap().as_vial().unwrap();
        assert_eq!(vial.solid_mg(), 5.0);
        assert_eq!(vial.liquid_ml(), 5.0); // 2.0 + 3×1.0
        assert!(vial.has_stopper());
    }

    #[test]
    fn solubility_run_completes_with_headless_simulator() {
        let mut deck = ProductionDeck::new();
        let mut rabit = deck.rabit_with_simulator(false);
        let wf = solubility_workflow(&SolubilityParams::default());
        let report = Tracer::guarded(&mut deck.lab, &mut rabit).run(&wf);
        assert!(report.completed(), "false positive: {:?}", report.alert);
    }

    #[test]
    fn unchecked_run_also_completes_but_faster() {
        // The safe workflow is safe with or without RABIT; RABIT only
        // adds overhead (the E2 baseline).
        let mut deck = ProductionDeck::new();
        let wf = solubility_workflow(&SolubilityParams::default());
        let unchecked = Tracer::pass_through(&mut deck.lab).run(&wf);
        assert!(unchecked.completed());
        let mut deck2 = ProductionDeck::new();
        let mut rabit = deck2.rabit();
        let checked = Tracer::guarded(&mut deck2.lab, &mut rabit).run(&wf);
        assert!(checked.completed());
        assert!(checked.lab_time_s > unchecked.lab_time_s);
        // Without the simulator the overhead is small (paper: ~1.5%).
        let overhead_frac = checked.rabit_overhead_s / unchecked.lab_time_s;
        assert!(
            overhead_frac < 0.10,
            "overhead without simulator should be percent-level, got {overhead_frac:.3}"
        );
    }

    #[test]
    fn camera_recorded_all_images() {
        let mut deck = ProductionDeck::new();
        let mut rabit = deck.rabit();
        let wf = solubility_workflow(&SolubilityParams::default());
        let report = Tracer::guarded(&mut deck.lab, &mut rabit).run(&wf);
        assert!(report.completed(), "false positive: {:?}", report.alert);
        // 1 initial + 3 iterations = 4 images, each forwarded to the
        // camera and executed there.
        let captures = report
            .trace
            .events
            .iter()
            .filter(|e| e.command.actor.as_str() == "camera")
            .filter(|e| e.outcome == TraceOutcome::Forwarded)
            .count();
        assert_eq!(captures, 4);
    }
}

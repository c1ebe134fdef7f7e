//! Real compute cost of rulebase evaluation: the `Valid(S, a)` check that
//! runs on every intercepted command.

use rabit_bench::timing::{bench, group};
use rabit_devices::{ActionKind, Command, DeviceId, DeviceState, LabState, StateKey};
use rabit_geometry::Vec3;
use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase};
use std::hint::black_box;

fn setup() -> (Rulebase, DeviceCatalog, LabState) {
    let rulebase = Rulebase::hein_lab();
    let catalog = DeviceCatalog::new()
        .with(DeviceMeta::new("arm", rabit_devices::DeviceType::RobotArm))
        .with(DeviceMeta::new("doser", rabit_devices::DeviceType::DosingSystem).with_door())
        .with(
            DeviceMeta::new("centrifuge", rabit_devices::DeviceType::ActionDevice)
                .with_door()
                .with_tag("centrifuge")
                .with_threshold(6000.0),
        )
        .with(DeviceMeta::new(
            "vial",
            rabit_devices::DeviceType::Container,
        ));
    let mut state = LabState::new();
    state.insert(
        "doser",
        DeviceState::new()
            .with(StateKey::DoorOpen, true)
            .with(StateKey::ActionActive, false)
            .with(
                StateKey::Footprint,
                rabit_geometry::Aabb::new(Vec3::new(0.0, 0.3, 0.0), Vec3::new(0.2, 0.5, 0.3)),
            ),
    );
    state.insert(
        "arm",
        DeviceState::new()
            .with(StateKey::Holding, None::<DeviceId>)
            .with(StateKey::InsideOf, None::<DeviceId>),
    );
    state.insert(
        "vial",
        DeviceState::new()
            .with(StateKey::SolidMg, 5.0)
            .with(StateKey::LiquidMl, 3.0)
            .with(StateKey::CapacityMg, 10.0)
            .with(StateKey::CapacityMl, 20.0)
            .with(StateKey::HasStopper, false),
    );
    (rulebase, catalog, state)
}

fn main() {
    let (rulebase, catalog, state) = setup();
    let safe_cmd = Command::new(
        "arm",
        ActionKind::MoveInsideDevice {
            device: "doser".into(),
        },
    );
    let move_cmd = Command::new(
        "arm",
        ActionKind::MoveToLocation {
            target: Vec3::new(0.5, 0.0, 0.4),
        },
    );
    let dose_cmd = Command::new(
        "doser",
        ActionKind::DoseSolid {
            amount_mg: 3.0,
            into: "vial".into(),
        },
    );

    group("rule_eval");
    bench("full_scan_safe_enter", || {
        rulebase.check(black_box(&safe_cmd), &state, &catalog)
    });
    bench("full_scan_move", || {
        rulebase.check(black_box(&move_cmd), &state, &catalog)
    });
    bench("full_scan_dose", || {
        rulebase.check(black_box(&dose_cmd), &state, &catalog)
    });

    // The postcondition/transition function.
    group("transition");
    bench("expected_state_move", || {
        rabit_rulebase::transition::expected_state(&catalog, black_box(&state), &move_cmd)
    });

    // Scaling: rule evaluation over growing device counts (rule III-3
    // scans every footprint, so this is the linear term in deck size).
    group("rule_eval_scaling");
    for n in [8usize, 32, 128] {
        let mut big_catalog =
            DeviceCatalog::new().with(DeviceMeta::new("arm", rabit_devices::DeviceType::RobotArm));
        let mut big_state = LabState::new();
        big_state.insert(
            "arm",
            DeviceState::new()
                .with(StateKey::Holding, None::<DeviceId>)
                .with(StateKey::InsideOf, None::<DeviceId>),
        );
        for i in 0..n {
            let id = format!("device_{i}");
            big_catalog.insert(
                DeviceMeta::new(id.clone(), rabit_devices::DeviceType::ActionDevice)
                    .with_threshold(100.0),
            );
            let x = (i % 16) as f64 * 0.3 - 2.0;
            let y = (i / 16) as f64 * 0.3 - 2.0;
            big_state.insert(
                id,
                DeviceState::new().with(StateKey::ActionActive, false).with(
                    StateKey::Footprint,
                    rabit_geometry::Aabb::new(
                        Vec3::new(x, y, 0.0),
                        Vec3::new(x + 0.2, y + 0.2, 0.2),
                    ),
                ),
            );
        }
        let rulebase = Rulebase::hein_lab();
        bench(&format!("move_check_{n}_devices"), || {
            rulebase.check(black_box(&move_cmd), &big_state, &big_catalog)
        });
    }
}

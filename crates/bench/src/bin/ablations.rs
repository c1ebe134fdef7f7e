//! Ablation studies for the design choices called out in DESIGN.md:
//! trajectory polling rate, time- vs space-multiplexing, and the
//! held-object geometry extension.

use rabit_bench::report::{mark, render_table};
use rabit_buginject::{catalog, run_bug};
use rabit_geometry::{Aabb, Vec3};
use rabit_kinematics::presets;
use rabit_sim::SimWorld;
use rabit_testbed::{RabitStage, Testbed};
use rabit_tracer::Workflow;

fn main() {
    polling_rate();
    multiplexing();
    held_object();
}

/// Ablation 1: polling interval vs detection of a small obstacle that the
/// tool only grazes mid-motion.
fn polling_rate() {
    println!("Ablation 1 — trajectory polling interval vs small-obstacle detection\n");
    let arm = presets::ur3e();
    let q0 = arm.home_configuration();
    let home_tool = arm.tool_position(&q0);
    let target = home_tool + Vec3::new(0.0, 0.22, 0.0);
    let q1 = rabit_kinematics::ik::solve_position(&arm, &q0, target).expect("reachable");
    let traj = rabit_kinematics::trajectory::Trajectory::linear(q0, q1);

    // A small box exactly where the tool passes at 50% of the motion.
    let mid_tool = arm.tool_position(&traj.config_at(traj.duration() * 0.5));
    let world = SimWorld::new().with_obstacle(
        "beaker",
        Aabb::from_center_half_extents(mid_tool, Vec3::new(0.02, 0.015, 0.02)),
    );

    let mask = world.exclusion_mask(&[]);
    let mut rows = Vec::new();
    for interval in [0.005, 0.02, 0.05, 0.2, 0.5, 1.5] {
        let samples = traj.sample_every(interval);
        let mut detected = false;
        let mut checks = 0usize;
        for q in &samples {
            checks += 1;
            let capsules = &arm.link_capsules(q, None)[1..];
            if world.first_hit(capsules, &mask).0.is_some() {
                detected = true;
                break;
            }
        }
        rows.push(vec![
            format!("{interval:.3}"),
            checks.to_string(),
            mark(detected),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Poll interval (s)", "Collision checks", "Obstacle detected"],
            &rows
        )
    );
    println!("Finer polling costs more checks; coarse polling can step over small obstacles.\n");
}

/// Ablation 2: time multiplexing serialises arm work; space multiplexing
/// lets the arms run concurrently on their own sides of the wall. The
/// makespans come from the deterministic concurrent scheduler
/// (`rabit_tracer::run_concurrent`) over the live testbed.
fn multiplexing() {
    println!("Ablation 2 — time vs space multiplexing (two-arm makespan)\n");

    let viperx_work = |tb: &Testbed| -> Workflow {
        let grid = tb.locations.grid_nw_viperx;
        Workflow::new("viperx_side")
            .go_home("viperx")
            .move_to("viperx", grid.pickup_safe_height)
            .pick_up("viperx", "vial", grid.pickup)
            .move_to("viperx", grid.pickup_safe_height)
            .place_at("viperx", "vial", grid.pickup)
            .go_home("viperx")
            .go_to_sleep("viperx")
    };
    let ned2_work = || -> Workflow {
        Workflow::new("ned2_side")
            .go_home("ned2")
            .move_to("ned2", Vec3::new(0.95, 0.2, 0.3))
            .move_to("ned2", Vec3::new(1.1, 0.0, 0.2))
            .go_home("ned2")
            .go_to_sleep("ned2")
    };

    // Space multiplexing: both streams interleave under the software wall.
    let mut tb = Testbed::new();
    let streams = [viperx_work(&tb), ned2_work()];
    let mut rabit = tb.rabit(RabitStage::Baseline);
    rabit
        .rulebase_mut()
        .push(rabit_rulebase::extensions::space_multiplexing_rule());
    let report = rabit_tracer::run_concurrent(&mut tb.lab, &mut rabit, &streams);
    assert!(report.completed(), "{:?}", report.alert);
    let space_mux = report.makespan_s;
    // Time multiplexing: one arm at a time → the serialised figure.
    let time_mux = report.serialized_s;

    let rows = vec![
        vec![
            "time multiplexing (one arm moves at a time)".to_string(),
            format!("{time_mux:.1}"),
        ],
        vec![
            "space multiplexing (software wall, concurrent)".to_string(),
            format!("{space_mux:.1}"),
        ],
    ];
    println!("{}", render_table(&["Policy", "Makespan (s)"], &rows));
    println!(
        "Space multiplexing recovers {:.0}% of the wall-clock time while keeping a \
         formal separation guarantee — the paper: \"pushing for more concurrency in \
         their experiments\".\n",
        report.concurrency_gain() * 100.0
    );
}

/// Ablation 3: the held-object geometry extension on/off against the
/// Bug-D-class bug.
fn held_object() {
    println!("Ablation 3 — held-object geometry extension (Bug D class)\n");
    let bug = catalog()
        .into_iter()
        .find(|b| b.id == "held_vial_low")
        .expect("catalogued");
    let without = run_bug(&bug, RabitStage::Baseline);
    let with = run_bug(&bug, RabitStage::Modified);
    let rows = vec![
        vec![
            "without (baseline RABIT)".to_string(),
            mark(without.detected),
            format!("{} damage event(s)", without.damage.len()),
        ],
        vec![
            "with (post-Bug-D modification)".to_string(),
            mark(with.detected),
            format!("{} damage event(s)", with.damage.len()),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["Held-object modelling", "Bug detected", "Physical outcome"],
            &rows
        )
    );
    println!(
        "Paper: \"RABIT failed to account that a robot arm's dimensions may change if \
         it is holding an object. We modified RABIT to account for these changes.\"\n"
    );
}

//! Real compute cost of the kinematics substrate: forward kinematics,
//! inverse kinematics, and trajectory sampling.

use rabit_bench::timing::{bench, group};
use rabit_geometry::Vec3;
use rabit_kinematics::ik::solve_position;
use rabit_kinematics::presets;
use rabit_kinematics::trajectory::Trajectory;
use std::hint::black_box;

fn main() {
    let arm = presets::ur3e();
    let q0 = arm.home_configuration();
    let q1 = arm.sleep_configuration();

    group("kinematics");
    bench("forward_kinematics", || {
        arm.chain().end_effector_pose(black_box(q0.angles()))
    });
    bench("link_capsules", || arm.link_capsules(black_box(&q0), None));
    let target = arm.tool_position(&q0) + Vec3::new(0.05, 0.03, -0.04);
    bench("ik_solve_nearby", || {
        solve_position(&arm, &q0, black_box(target))
    });

    let traj = Trajectory::linear(q0, q1);
    group("trajectory");
    bench("sample_every_50ms", || traj.sample_every(black_box(0.05)));
    bench("swept_capsules_20", || {
        traj.swept_capsules(&arm, None, black_box(20))
    });
}

//! Joint-space trajectories.
//!
//! The Extended Simulator detects collisions "by continuously polling the
//! robot arm's trajectory and comparing it with the 3D objects'
//! coordinates" (paper §III). A [`Trajectory`] is the polled object: a
//! sequence of joint-space waypoints with a constant-velocity time profile,
//! sampled at the simulator's polling rate.

use crate::arm::{ArmModel, HeldObject};
use crate::chain::JointConfig;
use rabit_geometry::Capsule;

/// A piecewise-linear joint-space trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<JointConfig>,
    /// Joint speed used for timing (radians/second, L∞ across joints).
    joint_speed: f64,
}

/// Default joint speed for lab arms (rad/s). UR3e tops out near π rad/s,
/// but lab moves run far slower for safety.
pub const DEFAULT_JOINT_SPEED: f64 = 1.0;

impl Trajectory {
    /// Creates a trajectory through `waypoints` at `joint_speed` rad/s.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 waypoints are supplied or the speed is not
    /// strictly positive.
    pub fn new(waypoints: Vec<JointConfig>, joint_speed: f64) -> Self {
        assert!(
            waypoints.len() >= 2,
            "a trajectory needs at least 2 waypoints"
        );
        assert!(
            joint_speed.is_finite() && joint_speed > 0.0,
            "joint speed must be positive, got {joint_speed}"
        );
        Trajectory {
            waypoints,
            joint_speed,
        }
    }

    /// A single straight joint-space move.
    pub fn linear(from: JointConfig, to: JointConfig) -> Self {
        Trajectory::new(vec![from, to], DEFAULT_JOINT_SPEED)
    }

    /// The waypoints.
    pub fn waypoints(&self) -> &[JointConfig] {
        &self.waypoints
    }

    /// Start configuration.
    pub fn start(&self) -> JointConfig {
        self.waypoints[0]
    }

    /// End configuration.
    pub fn end(&self) -> JointConfig {
        *self.waypoints.last().expect("trajectory has waypoints")
    }

    /// Total joint-space path length under the L∞ metric (radians).
    pub fn joint_path_length(&self) -> f64 {
        path_length(&self.waypoints)
    }

    /// Duration at the configured joint speed (seconds).
    pub fn duration(&self) -> f64 {
        self.joint_path_length() / self.joint_speed
    }

    /// The configuration at time `t` seconds (clamped to the ends).
    pub fn config_at(&self, t: f64) -> JointConfig {
        if t <= 0.0 {
            return self.start();
        }
        let mut remaining = t * self.joint_speed;
        for w in self.waypoints.windows(2) {
            let seg = w[0].max_joint_delta(&w[1]);
            if seg <= f64::EPSILON {
                continue;
            }
            if remaining <= seg {
                return w[0].lerp(&w[1], remaining / seg);
            }
            remaining -= seg;
        }
        self.end()
    }

    /// Samples the trajectory uniformly in time, returning `n ≥ 2`
    /// configurations including both endpoints. This is the polling set
    /// the Extended Simulator checks.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample(&self, n: usize) -> Vec<JointConfig> {
        assert!(n >= 2, "need at least 2 samples, got {n}");
        let d = self.duration();
        (0..n)
            .map(|i| self.config_at(d * i as f64 / (n - 1) as f64))
            .collect()
    }

    /// Samples at a fixed polling interval `dt` seconds (the simulator's
    /// polling rate), always including the final configuration.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn sample_every(&self, dt: f64) -> Vec<JointConfig> {
        self.samples_every(dt).map(|(_, q)| q).collect()
    }

    /// Iterator twin of [`Trajectory::sample_every`]: yields
    /// `(fraction, configuration)` pairs at the polling interval `dt`
    /// without materialising a `Vec`, walking the waypoint segments
    /// incrementally (O(samples + waypoints) instead of
    /// O(samples × waypoints)). The fraction is elapsed time over total
    /// duration; the final configuration is always yielded at fraction
    /// 1.0. A zero-length trajectory yields its end configuration once,
    /// at fraction 0.0.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn samples_every(&self, dt: f64) -> Samples<'_> {
        Samples::new(&self.waypoints, self.joint_speed, dt)
    }

    /// [`Trajectory::linear`]`(ends[0], ends[1]).samples_every(dt)`,
    /// sample for sample, without building the trajectory's waypoint
    /// `Vec`: the Extended Simulator sweeps every IK candidate this way.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn linear_samples(ends: &[JointConfig; 2], dt: f64) -> Samples<'_> {
        Samples::new(ends, DEFAULT_JOINT_SPEED, dt)
    }

    /// The swept capsule volumes of `arm` over `n` samples of this
    /// trajectory: one capsule set per sample.
    pub fn swept_capsules(
        &self,
        arm: &ArmModel,
        held: Option<&HeldObject>,
        n: usize,
    ) -> Vec<Vec<Capsule>> {
        self.sample(n)
            .iter()
            .map(|q| arm.link_capsules(q, held))
            .collect()
    }

    /// Appends another leg to the trajectory.
    pub fn then(mut self, to: JointConfig) -> Self {
        self.waypoints.push(to);
        self
    }
}

/// Iterator over time-uniform samples of a [`Trajectory`] — see
/// [`Trajectory::samples_every`]. Keeps a segment cursor so each step is
/// O(1) amortised, unlike repeated [`Trajectory::config_at`] calls which
/// rescan the waypoint list.
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    waypoints: &'a [JointConfig],
    speed: f64,
    duration: f64,
    dt: f64,
    t: f64,
    /// Index of the segment (pair `waypoints[seg]..waypoints[seg + 1]`)
    /// containing the cursor time.
    seg: usize,
    seg_start_t: f64,
    seg_end_t: f64,
    done: bool,
}

impl<'a> Samples<'a> {
    /// Samples of the path through `waypoints` (at least two) at `speed`
    /// rad/s, every `dt` seconds.
    fn new(waypoints: &'a [JointConfig], speed: f64, dt: f64) -> Self {
        assert!(
            dt.is_finite() && dt > 0.0,
            "polling interval must be positive"
        );
        Samples {
            waypoints,
            speed,
            duration: path_length(waypoints) / speed,
            dt,
            t: 0.0,
            seg: 0,
            seg_start_t: 0.0,
            seg_end_t: waypoints[0].max_joint_delta(&waypoints[1]) / speed,
            done: false,
        }
    }
}

/// Joint-space length of the path through `waypoints` under the L∞
/// metric (radians).
fn path_length(waypoints: &[JointConfig]) -> f64 {
    waypoints
        .windows(2)
        .map(|w| w[0].max_joint_delta(&w[1]))
        .sum()
}

impl Iterator for Samples<'_> {
    /// `(fraction of the motion in [0, 1], configuration)`.
    type Item = (f64, JointConfig);

    fn next(&mut self) -> Option<(f64, JointConfig)> {
        if self.done {
            return None;
        }
        let end = *self.waypoints.last().expect("trajectory has waypoints");
        if self.duration <= f64::EPSILON {
            self.done = true;
            return Some((0.0, end));
        }
        if self.t >= self.duration {
            self.done = true;
            return Some((1.0, end));
        }
        while self.seg + 2 < self.waypoints.len() && self.t > self.seg_end_t {
            self.seg += 1;
            self.seg_start_t = self.seg_end_t;
            self.seg_end_t += self.waypoints[self.seg]
                .max_joint_delta(&self.waypoints[self.seg + 1])
                / self.speed;
        }
        let w0 = &self.waypoints[self.seg];
        let w1 = &self.waypoints[self.seg + 1];
        let seg_duration = self.seg_end_t - self.seg_start_t;
        let config = if seg_duration <= f64::EPSILON {
            *w1
        } else {
            let f = ((self.t - self.seg_start_t) / seg_duration).clamp(0.0, 1.0);
            w0.lerp(w1, f)
        };
        let fraction = self.t / self.duration;
        self.t += self.dt;
        Some((fraction, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn q(a: f64) -> JointConfig {
        JointConfig::new([a, 0.0, 0.0, 0.0, 0.0, 0.0])
    }

    #[test]
    fn linear_trajectory_timing() {
        let t = Trajectory::new(vec![q(0.0), q(1.0)], 0.5);
        assert!((t.duration() - 2.0).abs() < 1e-12);
        assert_eq!(t.config_at(0.0), q(0.0));
        assert_eq!(t.config_at(2.0), q(1.0));
        assert_eq!(t.config_at(1.0).angle(0), 0.5);
        // Clamping beyond the ends.
        assert_eq!(t.config_at(-1.0), q(0.0));
        assert_eq!(t.config_at(10.0), q(1.0));
    }

    #[test]
    fn multi_segment_interpolation() {
        let t = Trajectory::new(vec![q(0.0), q(1.0), q(0.5)], 1.0);
        assert!((t.joint_path_length() - 1.5).abs() < 1e-12);
        // At t = 1.25 s we are halfway down the second segment.
        assert!((t.config_at(1.25).angle(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampling_includes_endpoints() {
        let t = Trajectory::linear(q(0.0), q(1.0));
        let s = t.sample(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], q(0.0));
        assert_eq!(s[4], q(1.0));
        // Uniform spacing.
        assert!((s[1].angle(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sample_every_covers_whole_motion() {
        let t = Trajectory::new(vec![q(0.0), q(1.0)], 1.0); // 1 s long
        let s = t.sample_every(0.3);
        assert_eq!(s.first().unwrap(), &q(0.0));
        assert_eq!(s.last().unwrap(), &q(1.0));
        assert!(s.len() >= 4);
    }

    #[test]
    fn samples_every_matches_config_at() {
        // The incremental cursor must reproduce exactly what repeated
        // config_at calls produce, including across degenerate segments.
        let t = Trajectory::new(vec![q(0.0), q(1.0), q(1.0), q(0.25), q(0.9)], 0.7);
        let d = t.duration();
        let dt = 0.13;
        let samples: Vec<(f64, JointConfig)> = t.samples_every(dt).collect();
        assert_eq!(samples.last().unwrap(), &(1.0, t.end()));
        let mut expect_t = 0.0;
        for (fraction, config) in &samples[..samples.len() - 1] {
            assert!((fraction - expect_t / d).abs() < 1e-12);
            let reference = t.config_at(expect_t);
            for j in 0..6 {
                assert!(
                    (config.angle(j) - reference.angle(j)).abs() < 1e-12,
                    "sample at t={expect_t} diverged from config_at"
                );
            }
            expect_t += dt;
        }
        // And the Vec path is literally the iterator collected.
        let vec_path = t.sample_every(dt);
        assert_eq!(vec_path.len(), samples.len());
        for (v, (_, s)) in vec_path.iter().zip(&samples) {
            assert_eq!(v, s);
        }
    }

    #[test]
    fn linear_samples_match_the_linear_trajectory_bit_for_bit() {
        let bits = |(f, c): (f64, JointConfig)| (f.to_bits(), c.angles().map(f64::to_bits));
        let a = JointConfig::new([0.3, -1.2, 1.0, -1.4, -0.0, 2.5]);
        let b = JointConfig::new([-0.7, -0.4, 1.9, 0.2, -1.5, 2.5]);
        for ends in [[a, b], [b, a], [a, a]] {
            for dt in [0.05, 0.013, 0.3, 10.0] {
                let reference = Trajectory::linear(ends[0], ends[1]);
                assert!(Trajectory::linear_samples(&ends, dt)
                    .map(bits)
                    .eq(reference.samples_every(dt).map(bits)));
            }
        }
    }

    #[test]
    fn samples_every_fractions_are_monotone_in_unit_interval() {
        let t = Trajectory::new(vec![q(0.0), q(2.0), q(-1.0)], 1.3);
        let mut prev = -1.0;
        for (fraction, _) in t.samples_every(0.05) {
            assert!((0.0..=1.0).contains(&fraction));
            assert!(fraction > prev, "fractions must strictly increase");
            prev = fraction;
        }
    }

    #[test]
    fn zero_length_trajectory_yields_single_sample() {
        let t = Trajectory::new(vec![q(0.5), q(0.5)], 1.0);
        let samples: Vec<(f64, JointConfig)> = t.samples_every(0.05).collect();
        assert_eq!(samples, vec![(0.0, q(0.5))]);
    }

    #[test]
    fn degenerate_segments_are_skipped() {
        let t = Trajectory::new(vec![q(0.0), q(0.0), q(1.0)], 1.0);
        assert!((t.duration() - 1.0).abs() < 1e-12);
        assert!((t.config_at(0.5).angle(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn then_extends() {
        let t = Trajectory::linear(q(0.0), q(1.0)).then(q(2.0));
        assert_eq!(t.waypoints().len(), 3);
        assert_eq!(t.end(), q(2.0));
    }

    #[test]
    fn swept_capsules_shape() {
        let arm = presets::ur3e();
        let t = Trajectory::linear(arm.home_configuration(), arm.sleep_configuration());
        let sweep = t.swept_capsules(&arm, None, 7);
        assert_eq!(sweep.len(), 7);
        for caps in &sweep {
            assert_eq!(caps.len(), 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 waypoints")]
    fn too_few_waypoints_panics() {
        let _ = Trajectory::new(vec![q(0.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        let _ = Trajectory::new(vec![q(0.0), q(1.0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn too_few_samples_panics() {
        let _ = Trajectory::linear(q(0.0), q(1.0)).sample(1);
    }
}

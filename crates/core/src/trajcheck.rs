//! The trajectory-validation hook (`SimAvailable` / `ValidTrajectory` in
//! Fig. 2).
//!
//! When an Extended Simulator is attached, RABIT routes every robot-arm
//! move through it before execution; "in the absence of such a simulator,
//! only the target location is checked" (§II-B) — that fallback is rule
//! III-3 in the rulebase.

use rabit_devices::{Command, DeviceId, LabState};
use rabit_geometry::Vec3;
use std::fmt;

/// A structured description of a predicted collision: which obstacle the
/// sweep hit, with which arm link, where, and how far into the motion.
/// Replaces the old free-text payload so alerts are matchable without
/// string parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionReport {
    /// The obstacle (device or environment region) the arm would hit.
    pub device: DeviceId,
    /// Index of the colliding arm link, counted from the base (link 0 is
    /// the base itself, which the sweep exempts — reported links start
    /// at 1).
    pub link: usize,
    /// Approximate contact point in deck coordinates (metres): the point
    /// on the colliding link's axis closest to the obstacle.
    pub contact: Vec3,
    /// Fraction of the motion at which the collision occurs (0-1).
    pub at_fraction: f64,
}

impl CollisionReport {
    /// A report with the colliding obstacle and motion fraction but no
    /// link-level geometry (link 0 / origin contact). Used by validators
    /// that predict *that* a collision happens without resolving *where*
    /// on the arm — e.g. mocks and coarse target-only checks.
    pub fn coarse(device: impl Into<DeviceId>, at_fraction: f64) -> Self {
        CollisionReport {
            device: device.into(),
            link: 0,
            contact: Vec3::ZERO,
            at_fraction,
        }
    }
}

impl fmt::Display for CollisionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collision with {} at {:.0}% of the motion",
            self.device,
            self.at_fraction * 100.0
        )?;
        if self.link > 0 {
            write!(
                f,
                " (link {} near ({:.3}, {:.3}, {:.3}))",
                self.link, self.contact.x, self.contact.y, self.contact.z
            )?;
        }
        Ok(())
    }
}

/// A snapshot of a validator's sweep-kernel work counters, reported
/// alongside run statistics so benchmarks and reports can attribute cost:
/// how many polling-grid samples were checked vs proved hit-free and
/// skipped, and how many exact distance evaluations the clearance
/// machinery issued. Validators without a sweep report all-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Polling-grid samples actually collision-checked.
    pub samples_checked: u64,
    /// Samples proved hit-free from clearance + motion bounds and skipped.
    pub samples_skipped: u64,
    /// Per-primitive exact signed-distance evaluations issued.
    pub distance_queries: u64,
    /// Always 0: the 4-wide batched distance kernels this counted lane
    /// slots for were removed. Kept so existing readers of the field
    /// (perfbench's timing probe) still compile.
    pub distance_evals_batched: u64,
}

impl SweepStats {
    /// Componentwise difference `self − earlier` — the work performed
    /// between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &SweepStats) -> SweepStats {
        SweepStats {
            samples_checked: self.samples_checked - earlier.samples_checked,
            samples_skipped: self.samples_skipped - earlier.samples_skipped,
            distance_queries: self.distance_queries - earlier.distance_queries,
            ..SweepStats::default()
        }
    }

    /// Adds `other` into `self`, componentwise.
    pub fn merge(&mut self, other: &SweepStats) {
        self.samples_checked += other.samples_checked;
        self.samples_skipped += other.samples_skipped;
        self.distance_queries += other.distance_queries;
    }
}

/// The simulator's verdict on a proposed robot motion.
#[derive(Debug, Clone, PartialEq)]
pub enum TrajectoryVerdict {
    /// The full trajectory is collision-free.
    Safe,
    /// The trajectory collides.
    Collision(CollisionReport),
    /// The simulator could not evaluate this command (e.g. unknown arm);
    /// RABIT falls back to target-only checking.
    Unavailable,
}

/// A trajectory validator: implemented by the Extended Simulator
/// (`rabit-sim`), and mockable in tests.
pub trait TrajectoryValidator: Send {
    /// Evaluates the trajectory implied by `command` from the current
    /// state.
    fn validate(&mut self, command: &Command, state: &LabState) -> TrajectoryVerdict;

    /// Tells the validator which rulebase epoch governs the next
    /// [`TrajectoryValidator::validate`] call. The engine invokes this
    /// before every validation so epoch-keyed verdict caches compose
    /// (world_epoch, rulebase_epoch) and can never serve an entry
    /// computed under a different rule generation. Validators without a
    /// cache ignore it (the default is a no-op).
    fn note_rulebase_epoch(&mut self, epoch: u64) {
        let _ = epoch;
    }

    /// The simulated wall-clock cost of one validation call in seconds
    /// (the paper's GUI-bound simulator costs ~2 s per check; headless
    /// mode collapses this).
    fn check_latency_s(&self) -> f64 {
        0.0
    }

    /// Total narrow-phase collision tests this validator has performed —
    /// the cost a bounding-box prefilter prunes. Validators without a notion
    /// of collision checking report zero.
    fn narrow_checks_performed(&self) -> u64 {
        0
    }

    /// Validations served from a verdict cache. Validators without a
    /// cache report zero.
    fn cache_hits(&self) -> u64 {
        0
    }

    /// Validations that missed the verdict cache and ran in full.
    /// Validators without a cache report zero.
    fn cache_misses(&self) -> u64 {
        0
    }

    /// Trajectory polling-grid samples this validator actually
    /// collision-checked. Validators without a sampling sweep report
    /// zero.
    fn samples_checked(&self) -> u64 {
        0
    }

    /// Polling-grid samples an adaptive sweep kernel proved hit-free
    /// from clearance and motion bounds and skipped without checking.
    /// Dense validators report zero.
    fn samples_skipped(&self) -> u64 {
        0
    }

    /// Per-primitive exact signed-distance evaluations issued while
    /// measuring clearance for skip decisions. Dense validators report
    /// zero.
    fn distance_queries(&self) -> u64 {
        0
    }

    /// Always 0: no validator has batched distance kernels any more.
    /// Kept only so existing validator wrappers that forward it
    /// (perfbench's timing probe) still compile.
    fn distance_evals_batched(&self) -> u64 {
        0
    }

    /// Always 0: no validator has a whole-arm certificate any more. Kept
    /// only so existing validator wrappers that forward it (perfbench's
    /// timing probe) still compile.
    fn certificate_spans(&self) -> u64 {
        0
    }

    /// All sweep-kernel work counters as one [`SweepStats`] snapshot.
    fn sweep_stats(&self) -> SweepStats {
        SweepStats {
            samples_checked: self.samples_checked(),
            samples_skipped: self.samples_skipped(),
            distance_queries: self.distance_queries(),
            ..SweepStats::default()
        }
    }
}

/// A validator that approves everything — useful as a baseline and in
/// tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproveAll;

impl TrajectoryValidator for ApproveAll {
    fn validate(&mut self, _command: &Command, _state: &LabState) -> TrajectoryVerdict {
        TrajectoryVerdict::Safe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::ActionKind;

    #[test]
    fn approve_all_is_safe_and_free() {
        let mut v = ApproveAll;
        let cmd = Command::new("arm", ActionKind::MoveHome);
        assert_eq!(v.validate(&cmd, &LabState::new()), TrajectoryVerdict::Safe);
        assert_eq!(v.check_latency_s(), 0.0);
    }

    #[test]
    fn verdict_equality() {
        let c = TrajectoryVerdict::Collision(CollisionReport::coarse("grid", 0.4));
        assert_ne!(c, TrajectoryVerdict::Safe);
        assert_ne!(TrajectoryVerdict::Unavailable, TrajectoryVerdict::Safe);
    }

    #[test]
    fn collision_report_display() {
        let coarse = CollisionReport::coarse("grid", 0.5);
        assert_eq!(
            coarse.to_string(),
            "collision with grid at 50% of the motion"
        );
        let detailed = CollisionReport {
            device: "hotplate".into(),
            link: 4,
            contact: Vec3::new(0.31, -0.02, 0.145),
            at_fraction: 0.72,
        };
        let text = detailed.to_string();
        assert!(text.contains("72% of the motion"));
        assert!(text.contains("link 4"));
        assert!(text.contains("0.310"));
    }
}

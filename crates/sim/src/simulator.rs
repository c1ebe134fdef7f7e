//! The Extended Simulator.
//!
//! The paper augments the vendor's URSim with device cuboids and
//! trajectory polling (§III): "by continuously polling the robot arm's
//! trajectory and comparing it with the 3D objects' coordinates, the
//! Extended Simulator can detect if the robot arm is likely to collide
//! with one of the automation devices and alert the user."
//!
//! [`ExtendedSimulator`] implements `rabit-core`'s
//! [`TrajectoryValidator`], so attaching it to the engine turns
//! `SimAvailable` on in the Fig. 2 algorithm.

use crate::world::{ExclusionMask, HitDetail, SimWorld};
use rabit_core::{CollisionReport, TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{ActionKind, Command, DeviceId, LabState, StateKey};
use rabit_geometry::{Capsule, Pose, Vec3};
use rabit_kinematics::ik::solve_position;
use rabit_kinematics::sweep::CAPSULE_COUNT;
use rabit_kinematics::trajectory::{Samples, Trajectory};
use rabit_kinematics::{ArmModel, HeldObject, JointConfig};
use std::collections::BTreeMap;

/// The paper's measured simulator overhead per collision check when the
/// GUI is in the loop (~2 s, §II-C).
pub const GUI_CHECK_LATENCY_S: f64 = 2.0;

/// Headless check latency after bypassing the GUI (the paper's planned
/// deployment optimisation).
pub const HEADLESS_CHECK_LATENCY_S: f64 = 0.02;

/// One simulated arm: its kinematic model, mirrored configuration, IK
/// memos and verdict memo. The memos live and die with the arm, so
/// re-registering an id (possibly with another model) starts them empty.
#[derive(Debug, Clone)]
struct SimArm {
    model: ArmModel,
    current: JointConfig,
    /// Set while the arm is inside a device: the configuration it entered
    /// from and the device id (excluded from sweeps until it retracts).
    entered: Option<(JointConfig, DeviceId)>,
    /// Memoised IK candidate lists for position goals, keyed on the exact
    /// start configuration and target: the O(1) path for an exact repeat
    /// (fleet laps replaying one workflow, campaign re-runs). Candidates
    /// depend only on the model, the start and the target, not on the
    /// world, the held object or any config flag.
    ik_candidates: BTreeMap<IkKey, Vec<JointConfig>>,
    /// Memoised single-seed solves that candidate lists are built from,
    /// keyed on the exact seed and target. Four of the six seeds depend
    /// only on the target, so a list for a new start configuration still
    /// reuses most of its solves.
    ik_solves: SolveMemo,
    /// Memoised verdicts, keyed on the exact bits of everything a verdict
    /// depends on besides the arm itself.
    verdicts: BTreeMap<VerdictKey, CachedVerdict>,
}

impl SimArm {
    fn new(model: ArmModel) -> Self {
        SimArm {
            current: model.home_configuration(),
            model,
            entered: None,
            ik_candidates: BTreeMap::new(),
            ik_solves: SolveMemo::new(),
            verdicts: BTreeMap::new(),
        }
    }

    /// The IK candidates for `target` from the mirrored configuration,
    /// into `out`. Both memos hold pure functions of the model and their
    /// keys, so a hit reproduces the solver's output verbatim and
    /// validation stays bit-for-bit identical; only the redundant
    /// damped-least-squares work is elided.
    fn ik_candidates(&mut self, target: Vec3, out: &mut Vec<JointConfig>) {
        let key = ik_key(&self.current, target);
        if let Some(cached) = self.ik_candidates.get(&key) {
            out.clear();
            out.extend_from_slice(cached);
            return;
        }
        // A list adds at most one solve per seed, so clearing both memos
        // together bounds the solve memo at six times the list capacity.
        if self.ik_candidates.len() >= IK_CACHE_CAPACITY {
            self.ik_candidates.clear();
            self.ik_solves.clear();
        }
        ik_candidates_into(&self.model, &self.current, target, &mut self.ik_solves, out);
        self.ik_candidates.insert(key, out.clone());
    }
}

/// Configuration for the Extended Simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Trajectory polling interval in seconds of motion (the paper polls
    /// the arm continuously; smaller = finer sweep, more checks).
    pub poll_interval_s: f64,
    /// Whether the simulator runs through its GUI (≈2 s per check) or
    /// headless.
    pub gui: bool,
    /// Whether held objects extend the arm geometry (the post-Bug-D
    /// modification).
    pub model_held_objects: bool,
    /// Whether repeated validations are served from each arm's verdict
    /// memo, keyed on the exact bits of the start configuration, the
    /// goal, the held flag, the entered device with its pre-entry
    /// configuration, the poll interval, and the world and rulebase
    /// epochs. Verdicts are identical either way; caching only changes
    /// the work done.
    pub verdict_cache: bool,
    /// Escape hatch: check every polling-grid sample instead of running
    /// the adaptive conservative-advancement kernel. Verdicts (including
    /// the triggering sample) are identical either way; the adaptive
    /// kernel only skips samples it can prove hit-free from measured
    /// clearance and the arm's Lipschitz motion bound.
    pub dense_sampling: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            poll_interval_s: 0.05,
            gui: true,
            model_held_objects: true,
            verdict_cache: true,
            dense_sampling: false,
        }
    }
}

/// Maximum number of verdicts an arm's memo retains; when full it is
/// cleared wholesale, as the IK memos are.
const VERDICT_CACHE_CAPACITY: usize = 512;

/// Maximum number of candidate lists an arm's IK memo retains; when full
/// it is cleared wholesale, with the arm's solve memo (the workloads it
/// serves — fleet laps replaying one workflow — revisit a few dozen
/// distinct keys, so wholesale clearing never thrashes in practice).
const IK_CACHE_CAPACITY: usize = 1024;

/// Safety margin (metres) subtracted from measured clearance before it
/// becomes a skip budget. It absorbs the ≲1e-11 overshoot of the cuboid
/// distance query while staying far below any physically meaningful
/// clearance, so the adaptive kernel never skips a sample the dense grid
/// would have flagged.
const CLEARANCE_MARGIN: f64 = 1e-6;

/// Largest clearance (metres) worth measuring: skip runs are bounded by
/// the remaining motion anyway, and capping the probe keeps the
/// clearance query from measuring every obstacle on the deck.
const MAX_CLEARANCE_CAP: f64 = 0.6;

/// Number of upcoming samples whose forward kinematics are prefetched in
/// one batched pass when the clearance budget admits no skip at all —
/// the arm is grazing an obstacle, so the next several samples will
/// almost certainly be checked too.
const DENSE_WINDOW: usize = 8;

/// Number of upcoming grid samples a clearance probe is sized to cover:
/// each capsule's probe cap is its per-sample motion bound times this
/// horizon (still clamped by its remaining motion and
/// [`MAX_CLEARANCE_CAP`]). Probing farther buys skip runs the sweep
/// rarely gets to spend but drags every obstacle on the deck into the
/// clearance query — with horizon-sized probes, links far from
/// everything overlap no obstacle's bound and their clearance (= the
/// cap) costs no exact distance evaluations at all, which is what lets
/// the op reduction show up as wall-clock.
const SKIP_HORIZON_SAMPLES: f64 = 8.0;

/// IK memo key: the exact bits of a configuration (a candidate list's
/// start, or one seed) and of the target position. A hit must reproduce
/// the solver's output verbatim, and distinct inputs cannot share a key.
/// The arm is implicit: each [`SimArm`] owns its memos.
type IkKey = ([u64; 6], [u64; 3]);

fn ik_key(q: &JointConfig, target: Vec3) -> IkKey {
    (config_bits(q), point_bits(target))
}

fn config_bits(q: &JointConfig) -> [u64; 6] {
    q.angles().map(f64::to_bits)
}

fn point_bits(p: Vec3) -> [u64; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

/// Single-seed IK outcomes: the solved posture with its `lowest_point`
/// sort key, or `None` where the solve failed.
type SolveMemo = BTreeMap<IkKey, Option<(f64, JointConfig)>>;

/// The goal inside a [`VerdictKey`], positions as exact bits.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GoalKey {
    Position([u64; 3]),
    Home,
    Sleep,
    Enter(DeviceId, [u64; 3]),
    Exit,
}

/// Verdict memo key: the exact bits of everything a verdict depends on
/// besides the arm, which owns the memo. A hit is served only for inputs
/// bit-identical to the ones its entry was computed from, so cached and
/// uncached validation agree by construction. The world epoch is part
/// of the key, so any obstacle mutation implicitly invalidates every
/// prior entry, and the rulebase epoch is composed alongside it, so a
/// live rule commit likewise invalidates every verdict computed under
/// the previous rule generation. Stale entries go when the memo is next
/// cleared at capacity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct VerdictKey {
    epoch: u64,
    rulebase_epoch: u64,
    poll_interval: u64,
    start: [u64; 6],
    goal: GoalKey,
    held: bool,
    entered: Option<([u64; 6], DeviceId)>,
}

/// A memoised verdict and the mirrored arm state it left, which a hit
/// replays so the pose evolves exactly as it would uncached. Only a
/// `Safe` verdict moves the arm; after any other, the state is the one
/// the key already holds.
#[derive(Debug, Clone)]
struct CachedVerdict {
    verdict: TrajectoryVerdict,
    current: JointConfig,
    entered: Option<(JointConfig, DeviceId)>,
}

/// The Extended Simulator: URSim-equivalent kinematics plus device
/// cuboids and trajectory polling.
#[derive(Debug, Clone)]
pub struct ExtendedSimulator {
    world: SimWorld,
    arms: BTreeMap<DeviceId, SimArm>,
    config: SimConfig,
    /// Count of collision checks performed (for the overhead experiment).
    checks: u64,
    /// Count of narrow-phase obstacle tests (what the bounding-box
    /// prefilter and the adaptive kernel save).
    narrow_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// The rulebase epoch governing the next validation, as reported by
    /// the engine via `note_rulebase_epoch`. Composed into every
    /// [`VerdictKey`] so a rule commit can never serve a stale verdict.
    rulebase_epoch: u64,
    /// Grid samples the adaptive kernel proved hit-free and skipped.
    samples_skipped: u64,
    /// Per-primitive exact signed-distance evaluations issued by the
    /// adaptive kernel's clearance queries.
    distance_queries: u64,
    /// Reusable buffers: IK candidates and arm capsules per sample.
    /// Keeping them on the simulator makes the steady-state sweep
    /// allocation-free.
    scratch_candidates: Vec<JointConfig>,
    scratch_capsules: Vec<Capsule>,
    /// Exclusion bitset, resolved once per sweep from the exclusion names
    /// and reused across every sample of the trajectory.
    scratch_mask: ExclusionMask,
    /// Adaptive-kernel buffers: the materialised sample grid, the
    /// remaining per-joint variation suffix sums, and the batched-FK
    /// window (configurations in, pose rows out).
    scratch_grid: Vec<(f64, JointConfig)>,
    scratch_suffix: Vec<[f64; 6]>,
    scratch_window: Vec<JointConfig>,
    scratch_poses: Vec<[Pose; 7]>,
}

impl ExtendedSimulator {
    /// Creates a simulator over a static world.
    pub fn new(world: SimWorld, config: SimConfig) -> Self {
        ExtendedSimulator {
            world,
            arms: BTreeMap::new(),
            config,
            checks: 0,
            narrow_checks: 0,
            cache_hits: 0,
            cache_misses: 0,
            rulebase_epoch: 0,
            samples_skipped: 0,
            distance_queries: 0,
            scratch_candidates: Vec::new(),
            scratch_capsules: Vec::new(),
            scratch_mask: ExclusionMask::default(),
            scratch_grid: Vec::new(),
            scratch_suffix: Vec::new(),
            scratch_window: Vec::new(),
            scratch_poses: Vec::new(),
        }
    }

    /// Registers an arm model, mirrored at its home configuration.
    pub fn with_arm(mut self, id: impl Into<DeviceId>, model: ArmModel) -> Self {
        self.add_arm(id, model);
        self
    }

    /// Registers an arm model. The memos of an arm previously
    /// registered under `id` go with it: a re-registered arm may carry a
    /// different model under the same id, and starts with empty memos.
    pub fn add_arm(&mut self, id: impl Into<DeviceId>, model: ArmModel) {
        self.arms.insert(id.into(), SimArm::new(model));
    }

    /// The world model (to add/remove device cuboids at runtime).
    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.world
    }

    /// The world model.
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Mutable configuration access (benchmarks flip
    /// [`SimConfig::verdict_cache`] to compare the cached and uncached
    /// paths). Turning the cache off leaves the memoised verdicts in
    /// place but unread.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// Number of memoised IK candidate lists currently held, over all
    /// arms. A steady count across repeated workloads means the
    /// damped-least-squares solves are fully amortised; unbounded growth
    /// means the keys (start configuration or target) never repeat.
    pub fn ik_cache_len(&self) -> usize {
        self.arms.values().map(|arm| arm.ik_candidates.len()).sum()
    }

    /// The mirrored joint configuration of an arm.
    pub fn arm_configuration(&self, id: &DeviceId) -> Option<JointConfig> {
        self.arms.get(id).map(|a| a.current)
    }

    /// Resolves the Cartesian goal implied by a robot command, if any.
    fn goal_of(&self, command: &Command, state: &LabState) -> Goal {
        match &command.action {
            ActionKind::MoveToLocation { target } => Goal::Position(*target),
            ActionKind::MoveHome => Goal::Joint(JointTarget::Home),
            ActionKind::MoveToSleep => Goal::Joint(JointTarget::Sleep),
            ActionKind::PickObject { object } | ActionKind::PlaceObject { object, into: None } => {
                match state
                    .get(object, &StateKey::Location)
                    .and_then(|v| v.as_position())
                {
                    Some(p) => Goal::Position(p),
                    None => Goal::None,
                }
            }
            ActionKind::MoveOutOfDevice => Goal::Exit,
            ActionKind::PlaceObject {
                object: _,
                into: Some(device),
            }
            | ActionKind::MoveInsideDevice { device } => {
                // Approach point: centred above the device cuboid; the
                // device itself is excluded from the sweep (entering it is
                // the intent; door safety is the rulebase's job).
                match state
                    .get(device, &StateKey::Footprint)
                    .and_then(|v| v.as_box())
                {
                    Some(fp) => {
                        let c = fp.center();
                        Goal::Enter {
                            device: device.clone(),
                            position: Vec3::new(c.x, c.y, fp.max().z + 0.05),
                        }
                    }
                    None => Goal::None,
                }
            }
            _ => Goal::None,
        }
    }

    /// Sweeps a trajectory, given as its polling-grid samples, against
    /// the world, returning the first hit as a structured
    /// [`CollisionReport`] (obstacle, link, contact point, time fraction
    /// of the motion).
    ///
    /// By default the adaptive conservative-advancement kernel runs; the
    /// [`SimConfig::dense_sampling`] escape hatch checks every grid
    /// sample. The returned report — including which sample trips — is
    /// identical either way.
    fn sweep(
        &mut self,
        arm_id: &DeviceId,
        samples: Samples<'_>,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        if self.config.dense_sampling {
            self.sweep_dense(arm_id, samples, held, exclude)
        } else {
            self.sweep_adaptive(arm_id, samples, held, exclude)
        }
    }

    /// The dense sweep: every sample of the polling grid is checked.
    ///
    /// Allocation-free in steady state: samples stream from the
    /// trajectory iterator, and the capsule buffer and exclusion mask are
    /// reused across samples and across calls.
    fn sweep_dense(
        &mut self,
        arm_id: &DeviceId,
        samples: Samples<'_>,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        let mut capsules = std::mem::take(&mut self.scratch_capsules);
        let mut mask = std::mem::take(&mut self.scratch_mask);
        self.world.fill_exclusion_mask(exclude, &mut mask);
        let mut result = None;
        if let Some(arm) = self.arms.get(arm_id) {
            for (fraction, q) in samples {
                self.checks += 1;
                arm.model.link_capsules_into(&q, held, &mut capsules);
                // Skip the base link (capsule 0): it is bolted to the
                // mounting platform, so its permanent contact with the
                // platform slab is not a collision.
                let (hit, tested) = self.world.first_hit(&capsules[1..], &mask);
                self.narrow_checks += tested;
                if let Some(hit) = hit {
                    result = Some(report(hit, fraction));
                    break;
                }
            }
        }
        self.scratch_capsules = capsules;
        self.scratch_mask = mask;
        result
    }

    /// The adaptive conservative-advancement sweep.
    ///
    /// At each *checked* sample the kernel measures the clearance of
    /// every arm capsule to the nearest obstacle in one batched query
    /// ([`SimWorld::clearances_into`]). The clearances serve two purposes
    /// at once:
    ///
    /// 1. **Certificate** — clearance uses the same distance arithmetic
    ///    as the narrow phase, so all-positive clearances *prove* the
    ///    narrow phase would find no hit at this sample; the scan is
    ///    elided entirely. Only when some capsule touches something
    ///    (clearance ≤ 0) does the kernel fall back to the exact
    ///    narrow-phase scan, which decides the verdict precisely as the
    ///    dense kernel would.
    /// 2. **Skip budget** — every upcoming grid sample whose per-capsule
    ///    Lipschitz motion bound (accumulated raw joint deltas ×
    ///    precomputed link reach, [`rabit_kinematics::MotionBound`])
    ///    stays within the clearance minus a safety margin is skipped:
    ///    its capsule set provably lies inside an obstacle-free
    ///    neighbourhood of the checked one, so the dense grid could not
    ///    have flagged it.
    ///
    /// When no skip is possible (the arm grazes an obstacle) the next
    /// few samples will be checked one by one, so their forward
    /// kinematics are prefetched in a single batched pass
    /// ([`DhChain::joint_poses_batch`]). Verdicts — including the
    /// triggering sample index — are identical to
    /// [`ExtendedSimulator::sweep_dense`]: both call the one
    /// [`SimWorld::first_hit`].
    ///
    /// [`DhChain::joint_poses_batch`]: rabit_kinematics::DhChain::joint_poses_batch
    fn sweep_adaptive(
        &mut self,
        arm_id: &DeviceId,
        samples: Samples<'_>,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        let mut capsules = std::mem::take(&mut self.scratch_capsules);
        let mut grid = std::mem::take(&mut self.scratch_grid);
        let mut suffix = std::mem::take(&mut self.scratch_suffix);
        let mut window = std::mem::take(&mut self.scratch_window);
        let mut poses = std::mem::take(&mut self.scratch_poses);
        let mut mask = std::mem::take(&mut self.scratch_mask);
        self.world.fill_exclusion_mask(exclude, &mut mask);
        let mut result = None;

        if let Some(arm) = self.arms.get(arm_id) {
            grid.clear();
            grid.extend(samples);
            let n = grid.len();
            // Remaining per-joint total variation from sample i to the
            // end: caps the largest clearance worth measuring at i. Raw
            // (unwrapped) deltas throughout — executed trajectories
            // interpolate raw joint values, so wrap shortcuts would be
            // unsound here.
            suffix.clear();
            suffix.resize(n, [0.0; 6]);
            for i in (0..n.saturating_sub(1)).rev() {
                let mut row = suffix[i + 1];
                for (j, r) in row.iter_mut().enumerate() {
                    *r += (grid[i + 1].1.angle(j) - grid[i].1.angle(j)).abs();
                }
                suffix[i] = row;
            }
            let bound = arm.model.motion_bound(held);

            // `poses` holds prefetched batched FK for
            // `grid[batch_start .. batch_start + poses.len()]`.
            let mut batch_start: Option<usize> = None;
            let mut i = 0;
            'sweep: while i < n {
                self.checks += 1;
                // The base link (capsule 0) is bolted to the platform and
                // exempt from collision — and therefore also irrelevant
                // to the clearance certificate and the skip decision.
                match batch_start {
                    Some(s) if i >= s && i - s < poses.len() => {
                        arm.model
                            .capsules_from_poses(&poses[i - s], held, &mut capsules);
                    }
                    _ => arm
                        .model
                        .link_capsules_into(&grid[i].1, held, &mut capsules),
                }

                // Per-sample step deltas at this anchor: the probe caps
                // below are sized to `SKIP_HORIZON_SAMPLES` of them.
                let mut step = [0.0_f64; 6];
                if i + 1 < n {
                    for (j, d) in step.iter_mut().enumerate() {
                        *d = (grid[i + 1].1.angle(j) - grid[i].1.angle(j)).abs();
                    }
                }

                // One batched clearance query per sample: certificate
                // first, skip budget second. Each capsule's cap is the
                // smaller of its remaining motion and its skip horizon —
                // slow links get probes tight enough to exclude even
                // nearby obstacles (empty candidate set, clearance for
                // free), fast links get just enough to fund a full
                // horizon of skips.
                let mut caps = [0.0_f64; CAPSULE_COUNT - 1];
                for (l, cap) in caps.iter_mut().enumerate() {
                    *cap = (bound.capsule_bound(l + 1, &step) * SKIP_HORIZON_SAMPLES)
                        .min(bound.capsule_bound(l + 1, &suffix[i]))
                        .min(MAX_CLEARANCE_CAP)
                        + CLEARANCE_MARGIN;
                }
                let mut clearances = [0.0_f64; CAPSULE_COUNT - 1];
                let evals =
                    self.world
                        .clearances_into(&capsules[1..], &mask, &caps, &mut clearances);
                self.distance_queries += evals;
                if clearances.iter().any(|&c| c <= 0.0) {
                    // Some capsule touches something: only now is the
                    // exact narrow phase needed, and it decides the
                    // verdict precisely as the dense kernel would.
                    let (hit, tested) = self.world.first_hit(&capsules[1..], &mask);
                    self.narrow_checks += tested;
                    if let Some(hit) = hit {
                        result = Some(report(hit, grid[i].0));
                        break 'sweep;
                    }
                }
                if i + 1 >= n {
                    break;
                }

                // Conservative advancement: sample i + s + 1 is skippable
                // when every capsule's motion bound from i stays within
                // its clearance budget.
                let mut s = 0;
                while i + s + 1 < n {
                    let cand = &grid[i + s + 1].1;
                    let mut delta = [0.0_f64; 6];
                    for (j, d) in delta.iter_mut().enumerate() {
                        *d = (cand.angle(j) - grid[i].1.angle(j)).abs();
                    }
                    let fits = (1..CAPSULE_COUNT).all(|l| {
                        bound.capsule_bound(l, &delta) <= clearances[l - 1] - CLEARANCE_MARGIN
                    });
                    if !fits {
                        break;
                    }
                    s += 1;
                }
                if s > 0 {
                    self.samples_skipped += s as u64;
                    i += s + 1;
                    continue;
                }

                // Grazing an obstacle: no skip budget, so the next few
                // samples will each be checked. Prefetch their forward
                // kinematics in one batched pass (unless the current
                // batch already covers the next sample).
                let next = i + 1;
                let covered = matches!(batch_start, Some(s) if next >= s && next - s < poses.len());
                if !covered {
                    let end = (next + DENSE_WINDOW - 1).min(n - 1);
                    window.clear();
                    window.extend(grid[next..=end].iter().map(|(_, q)| *q));
                    arm.model.chain().joint_poses_batch(&window, &mut poses);
                    batch_start = Some(next);
                }
                i = next;
            }
        }
        self.scratch_capsules = capsules;
        self.scratch_grid = grid;
        self.scratch_suffix = suffix;
        self.scratch_window = window;
        self.scratch_poses = poses;
        self.scratch_mask = mask;
        result
    }

    /// The full (uncached) validation path: IK candidates, one sweep per
    /// candidate, mirrored-pose update on the first safe trajectory.
    fn validate_uncached(
        &mut self,
        arm_id: &DeviceId,
        goal: Goal,
        held: Option<&HeldObject>,
    ) -> TrajectoryVerdict {
        // Candidate target configurations. Position goals are redundant
        // (6 joints, 3 constraints): the controller picks among postures,
        // so the simulator only reports a collision when *every* feasible
        // posture's trajectory collides — otherwise the arm would simply
        // take the clear path.
        let mut entering: Option<DeviceId> = None;
        let mut exiting = false;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let arm = self
            .arms
            .get_mut(arm_id)
            .expect("validate checks that the arm is registered");
        // While inside a device, that device stays excluded from sweeps
        // until the arm retracts.
        let still_inside = arm.entered.as_ref().map(|(_, d)| d.clone());
        let excluded: Option<DeviceId> = match goal {
            Goal::None => None,
            Goal::Joint(JointTarget::Home) => {
                candidates.push(arm.model.home_configuration());
                still_inside
            }
            Goal::Joint(JointTarget::Sleep) => {
                candidates.push(arm.model.sleep_configuration());
                still_inside
            }
            Goal::Position(p) => {
                arm.ik_candidates(p, &mut candidates);
                still_inside
            }
            Goal::Enter { device, position } => {
                arm.ik_candidates(position, &mut candidates);
                entering = Some(device.clone());
                Some(device)
            }
            Goal::Exit => match &arm.entered {
                // Retract the way it came, device still excluded.
                Some((q_prev, device)) => {
                    exiting = true;
                    candidates.push(*q_prev);
                    Some(device.clone())
                }
                None => None,
            },
        };

        if candidates.is_empty() {
            // The simulator cannot compute a trajectory either — mirror
            // the real arm and leave the decision to the controller
            // (silent skip / exception).
            self.scratch_candidates = candidates;
            return TrajectoryVerdict::Unavailable;
        }

        let start = self.arms[arm_id].current;
        let exclude_buf: [&str; 1];
        let exclude: &[&str] = match &excluded {
            Some(device) => {
                exclude_buf = [device.as_str()];
                &exclude_buf
            }
            None => &[],
        };
        let mut first_hit: Option<CollisionReport> = None;
        let mut safe = false;
        for &target_config in &candidates {
            let ends = [start, target_config];
            let samples = Trajectory::linear_samples(&ends, self.config.poll_interval_s);
            match self.sweep(arm_id, samples, held, exclude) {
                None => {
                    // Mirror the motion: the simulated arm now rests at
                    // the target, which is what makes the silent-skip
                    // follow-up detection (paper footnote 2) work.
                    if let Some(arm) = self.arms.get_mut(arm_id) {
                        match (&entering, exiting) {
                            (Some(device), _) => {
                                // Re-entering (e.g. a place following a
                                // move-inside) keeps the original
                                // pre-entry pose.
                                let same = arm.entered.as_ref().is_some_and(|(_, d)| d == device);
                                if !same {
                                    arm.entered = Some((arm.current, device.clone()));
                                }
                            }
                            (None, true) => arm.entered = None,
                            (None, false) => {}
                        }
                        arm.current = target_config;
                    }
                    safe = true;
                    break;
                }
                Some(hit) => {
                    first_hit.get_or_insert(hit);
                }
            }
        }
        candidates.clear();
        self.scratch_candidates = candidates;
        if safe {
            return TrajectoryVerdict::Safe;
        }
        TrajectoryVerdict::Collision(first_hit.expect("at least one candidate was swept"))
    }
}

/// The collision report for a sweep's hit at `fraction` of the motion.
/// The hit's capsule index is relative to the capsule slice that skips
/// the base link; +1 restores the arm's own link numbering. The device
/// id shares the obstacle's name, so reporting allocates nothing.
fn report(hit: HitDetail<'_>, fraction: f64) -> CollisionReport {
    CollisionReport {
        device: hit.obstacle.name.clone(),
        link: hit.capsule_index + 1,
        contact: hit.contact,
        at_fraction: fraction,
    }
}

enum Goal {
    Position(Vec3),
    Joint(JointTarget),
    Enter { device: DeviceId, position: Vec3 },
    Exit,
    None,
}

/// Collects up to a handful of distinct IK postures for a position goal
/// into `out` (cleared first): one seeded from the current configuration,
/// plus diversity seeds that flip the shoulder/elbow (elbow-up vs
/// elbow-down and mirrored-base postures). Duplicate postures (within
/// 0.05 rad L∞) are dropped.
///
/// Each seed is looked up in `solves` first, keyed on the exact bits of
/// the seed and the target, and solved only on a miss. `solve_position`
/// and `lowest_point` are pure functions of the model and those bits, so
/// the output is the same whatever the memo holds. A seed that repeats
/// an earlier one bit for bit (`current == home` on a trial's first
/// motion) hits the entry its twin just filled, and the duplicate filter
/// drops it. Besides new memo entries, the only heap use is `out`'s
/// amortised growth.
fn ik_candidates_into(
    model: &ArmModel,
    current: &JointConfig,
    target: Vec3,
    solves: &mut SolveMemo,
    out: &mut Vec<JointConfig>,
) {
    out.clear();
    // Elbow/shoulder flips of the current posture.
    let flipped = JointConfig::new([
        current.angle(0),
        -current.angle(1),
        -current.angle(2),
        current.angle(3),
        -current.angle(4),
        current.angle(5),
    ]);
    // A raised-wrist seed biases toward elbow-up solutions.
    let mut raised = model.home_configuration();
    raised = raised.with_angle(1, model.limits()[1].clamp(raised.angle(1) + 0.5));
    // Base-facing seeds: rotate the base joint toward the target while
    // keeping the home arm posture — the classic heuristic that steers
    // the iteration away from wrapped-around, elbow-down branches. Both
    // facing conventions are tried (UR-style arms extend along −x at
    // zero base angle).
    let local = model.chain().base().inverse().transform_point(target);
    let facing = local.y.atan2(local.x);
    let face = |theta: f64| {
        model
            .home_configuration()
            .with_angle(0, model.limits()[0].clamp(theta))
    };
    let seeds = [
        *current,
        model.home_configuration(),
        flipped,
        raised,
        face(facing),
        face(facing + std::f64::consts::PI),
    ];

    // Each kept posture with its sort key, the lowest point of the arm
    // body, computed once per solve (one forward-kinematics pass); one
    // slot per seed.
    let mut keyed = [(0.0, JointConfig::ZERO); 6];
    let mut kept = 0;
    for seed in &seeds {
        let solved = *solves.entry(ik_key(seed, target)).or_insert_with(|| {
            solve_position(model, seed, target)
                .ok()
                .map(|q| (model.lowest_point(&q, None), q))
        });
        if let Some((low, q)) = solved {
            if !keyed[..kept]
                .iter()
                .any(|(_, o)| o.max_joint_delta(&q) < 0.05)
            {
                keyed[kept] = (low, q);
                kept += 1;
            }
        }
    }
    // Prefer postures that keep the arm body high: sort by descending
    // lowest point, so collision-free "natural" paths are swept first.
    let keyed = &mut keyed[..kept];
    keyed.sort_by(|(la, _), (lb, _)| lb.partial_cmp(la).unwrap_or(std::cmp::Ordering::Equal));
    out.extend(keyed.iter().map(|&(_, q)| q));
}

enum JointTarget {
    Home,
    Sleep,
}

impl TrajectoryValidator for ExtendedSimulator {
    fn validate(&mut self, command: &Command, state: &LabState) -> TrajectoryVerdict {
        if !self.arms.contains_key(&command.actor) {
            return TrajectoryVerdict::Unavailable;
        }
        let goal = self.goal_of(command, state);
        let goal_key = match &goal {
            Goal::None => return TrajectoryVerdict::Unavailable,
            Goal::Position(p) => GoalKey::Position(point_bits(*p)),
            Goal::Joint(JointTarget::Home) => GoalKey::Home,
            Goal::Joint(JointTarget::Sleep) => GoalKey::Sleep,
            Goal::Enter { device, position } => {
                GoalKey::Enter(device.clone(), point_bits(*position))
            }
            Goal::Exit => GoalKey::Exit,
        };

        // Does the arm hold something? Only modelled after the Bug-D fix.
        let held = if self.config.model_held_objects {
            state
                .get_id(&command.actor, &StateKey::Holding)
                .flatten()
                .map(|_| HeldObject::vial())
        } else {
            None
        };

        if !self.config.verdict_cache {
            return self.validate_uncached(&command.actor, goal, held.as_ref());
        }

        // A hit needs bit-identical inputs, so it reproduces the uncached
        // verdict, and it replays the arm state that verdict left.
        let arm = self
            .arms
            .get_mut(&command.actor)
            .expect("validate checks that the arm is registered");
        let key = VerdictKey {
            epoch: self.world.epoch(),
            rulebase_epoch: self.rulebase_epoch,
            poll_interval: self.config.poll_interval_s.to_bits(),
            start: config_bits(&arm.current),
            goal: goal_key,
            held: held.is_some(),
            entered: arm
                .entered
                .as_ref()
                .map(|(q, d)| (config_bits(q), d.clone())),
        };
        if let Some(entry) = arm.verdicts.get(&key) {
            arm.current = entry.current;
            arm.entered = entry.entered.clone();
            self.cache_hits += 1;
            return entry.verdict.clone();
        }
        self.cache_misses += 1;

        let verdict = self.validate_uncached(&command.actor, goal, held.as_ref());

        let arm = self
            .arms
            .get_mut(&command.actor)
            .expect("validate checks that the arm is registered");
        if arm.verdicts.len() >= VERDICT_CACHE_CAPACITY {
            arm.verdicts.clear();
        }
        let entry = CachedVerdict {
            verdict: verdict.clone(),
            current: arm.current,
            entered: arm.entered.clone(),
        };
        arm.verdicts.insert(key, entry);
        verdict
    }

    fn note_rulebase_epoch(&mut self, epoch: u64) {
        // Stored, not acted on: the epoch flows into every VerdictKey, so
        // entries from older rule generations simply stop matching, and
        // they go when their arm's memo is next cleared at capacity.
        self.rulebase_epoch = epoch;
    }

    fn check_latency_s(&self) -> f64 {
        if self.config.gui {
            GUI_CHECK_LATENCY_S
        } else {
            HEADLESS_CHECK_LATENCY_S
        }
    }

    fn narrow_checks_performed(&self) -> u64 {
        self.narrow_checks
    }

    fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    fn samples_checked(&self) -> u64 {
        self.checks
    }

    fn samples_skipped(&self) -> u64 {
        self.samples_skipped
    }

    fn distance_queries(&self) -> u64 {
        self.distance_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::DeviceState;
    use rabit_geometry::Aabb;
    use rabit_kinematics::presets;

    fn empty_state() -> LabState {
        let mut s = LabState::new();
        s.insert(
            "ur3e",
            DeviceState::new().with(StateKey::Holding, None::<DeviceId>),
        );
        s
    }

    fn sim_with(world: SimWorld) -> ExtendedSimulator {
        ExtendedSimulator::new(
            world,
            SimConfig {
                gui: false,
                ..SimConfig::default()
            },
        )
        .with_arm("ur3e", presets::ur3e())
    }

    fn uncached_with(world: SimWorld) -> ExtendedSimulator {
        let mut sim = sim_with(world);
        sim.config_mut().verdict_cache = false;
        sim
    }

    fn mv(target: Vec3) -> Command {
        Command::new("ur3e", ActionKind::MoveToLocation { target })
    }

    #[test]
    fn free_space_move_is_safe_and_mirrors_pose() {
        let mut sim = sim_with(SimWorld::new());
        let arm = presets::ur3e();
        let start_tool = arm.tool_position(&arm.home_configuration());
        let target = start_tool + Vec3::new(0.05, 0.05, 0.05);
        let verdict = sim.validate(&mv(target), &empty_state());
        assert_eq!(verdict, TrajectoryVerdict::Safe);
        // Simulator mirrored the motion.
        let q = sim.arm_configuration(&"ur3e".into()).unwrap();
        assert!(arm.tool_position(&q).distance(target) < 1e-3);
        assert!(sim.samples_checked() > 0);
    }

    #[test]
    fn obstacle_on_path_is_detected() {
        // A wall of cuboid between home tool position and the target.
        let arm = presets::ur3e();
        let home_tool = arm.tool_position(&arm.home_configuration());
        let target = home_tool + Vec3::new(0.0, 0.25, 0.0);
        let mid = home_tool.lerp(target, 0.5);
        let world = SimWorld::new().with_obstacle(
            "hotplate",
            Aabb::from_center_half_extents(mid, Vec3::new(0.35, 0.04, 0.35)),
        );
        let mut sim = sim_with(world);
        match sim.validate(&mv(target), &empty_state()) {
            TrajectoryVerdict::Collision(report) => {
                assert_eq!(report.device.as_str(), "hotplate");
                assert!((0.0..=1.0).contains(&report.at_fraction));
                // The structured payload carries link-level detail: a
                // real link (base is exempt) and a finite contact point.
                assert!(report.link >= 1);
                assert!(report.contact.is_finite());
            }
            other => panic!("expected collision, got {other:?}"),
        }
        // After a rejected move the mirrored pose is unchanged.
        let q = sim.arm_configuration(&"ur3e".into()).unwrap();
        assert_eq!(q, presets::ur3e().home_configuration());
    }

    #[test]
    fn unknown_arm_is_unavailable() {
        let mut sim = sim_with(SimWorld::new());
        let cmd = Command::new("ghost", ActionKind::MoveHome);
        assert_eq!(
            sim.validate(&cmd, &empty_state()),
            TrajectoryVerdict::Unavailable
        );
    }

    #[test]
    fn out_of_reach_target_is_unavailable() {
        let mut sim = sim_with(SimWorld::new());
        let verdict = sim.validate(&mv(Vec3::new(5.0, 5.0, 5.0)), &empty_state());
        assert_eq!(verdict, TrajectoryVerdict::Unavailable);
    }

    #[test]
    fn non_motion_goal_is_unavailable() {
        let mut sim = sim_with(SimWorld::new());
        let cmd = Command::new("ur3e", ActionKind::OpenGripper);
        assert_eq!(
            sim.validate(&cmd, &empty_state()),
            TrajectoryVerdict::Unavailable
        );
    }

    #[test]
    fn held_object_extension_changes_verdict() {
        // A low shelf the bare arm skims over but a held vial clips.
        let arm = presets::ur3e();
        let home_tool = arm.tool_position(&arm.home_configuration());
        let target = home_tool + Vec3::new(0.08, 0.0, -0.02);
        // Shelf just below the path.
        let mid = home_tool.lerp(target, 0.5);
        let world = SimWorld::new().with_obstacle(
            "shelf",
            Aabb::from_center_half_extents(
                mid - Vec3::new(0.0, 0.0, 0.12),
                Vec3::new(0.2, 0.2, 0.06),
            ),
        );
        let mut holding_state = empty_state();
        holding_state.insert(
            "ur3e",
            DeviceState::new().with(StateKey::Holding, Some(DeviceId::new("vial"))),
        );
        // Without held-object modelling: safe.
        let mut cfg = SimConfig {
            gui: false,
            ..SimConfig::default()
        };
        cfg.model_held_objects = false;
        let mut sim = ExtendedSimulator::new(world.clone(), cfg).with_arm("ur3e", presets::ur3e());
        assert_eq!(
            sim.validate(&mv(target), &holding_state),
            TrajectoryVerdict::Safe
        );
        // With the Bug-D fix: collision.
        let mut cfg2 = SimConfig {
            gui: false,
            ..SimConfig::default()
        };
        cfg2.model_held_objects = true;
        let mut sim2 = ExtendedSimulator::new(world, cfg2).with_arm("ur3e", presets::ur3e());
        match sim2.validate(&mv(target), &holding_state) {
            TrajectoryVerdict::Collision(report) => assert_eq!(report.device.as_str(), "shelf"),
            other => panic!("expected collision with held vial, got {other:?}"),
        }
    }

    #[test]
    fn gui_vs_headless_latency() {
        let gui = ExtendedSimulator::new(SimWorld::new(), SimConfig::default());
        assert_eq!(gui.check_latency_s(), GUI_CHECK_LATENCY_S);
        let headless = ExtendedSimulator::new(
            SimWorld::new(),
            SimConfig {
                gui: false,
                ..SimConfig::default()
            },
        );
        assert_eq!(headless.check_latency_s(), HEADLESS_CHECK_LATENCY_S);
    }

    #[test]
    fn enter_device_excludes_the_device_itself() {
        // A doser cuboid; entering it must not count as a collision with
        // it (the rulebase handles the door), but the platform below
        // still guards the approach.
        let doser_box = Aabb::new(Vec3::new(-0.45, -0.15, 0.0), Vec3::new(-0.2, 0.15, 0.25));
        let world = SimWorld::new().with_obstacle("doser", doser_box);
        let mut sim = sim_with(world);
        let mut state = empty_state();
        state.insert(
            "doser",
            DeviceState::new().with(StateKey::Footprint, doser_box),
        );
        let cmd = Command::new(
            "ur3e",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        let verdict = sim.validate(&cmd, &state);
        assert_eq!(
            verdict,
            TrajectoryVerdict::Safe,
            "entering the target device is intended"
        );
    }

    #[test]
    fn adaptive_sweep_skips_most_samples_in_free_space() {
        // The same free-space move on an adaptive and a dense simulator:
        // identical verdict and mirrored pose, far fewer checks.
        let arm = presets::ur3e();
        let start_tool = arm.tool_position(&arm.home_configuration());
        let target = start_tool + Vec3::new(-0.1, 0.15, 0.1);
        let run = |dense: bool| {
            let mut sim = uncached_with(SimWorld::new().with_obstacle(
                "far_box",
                Aabb::from_center_half_extents(Vec3::new(2.0, 2.0, 0.2), Vec3::splat(0.1)),
            ));
            sim.config_mut().dense_sampling = dense;
            let verdict = sim.validate(&mv(target), &empty_state());
            let pose = sim.arm_configuration(&"ur3e".into()).unwrap();
            (verdict, pose, sim.samples_checked(), sim.samples_skipped())
        };
        let (dense_verdict, dense_pose, dense_checks, dense_skipped) = run(true);
        let (adaptive_verdict, adaptive_pose, adaptive_checks, adaptive_skipped) = run(false);
        assert_eq!(dense_verdict, TrajectoryVerdict::Safe);
        assert_eq!(adaptive_verdict, dense_verdict);
        assert_eq!(adaptive_pose, dense_pose);
        assert_eq!(dense_skipped, 0);
        assert!(adaptive_skipped > 0, "free space should admit skips");
        assert!(
            adaptive_checks * 2 < dense_checks,
            "adaptive checked {adaptive_checks} of {dense_checks} dense samples"
        );
    }

    #[test]
    fn adaptive_sweep_reports_the_same_collision_as_dense() {
        let arm = presets::ur3e();
        let home_tool = arm.tool_position(&arm.home_configuration());
        let target = home_tool + Vec3::new(0.0, 0.25, 0.0);
        let mid = home_tool.lerp(target, 0.5);
        let world = SimWorld::new().with_obstacle(
            "hotplate",
            Aabb::from_center_half_extents(mid, Vec3::new(0.35, 0.04, 0.35)),
        );
        let run = |dense: bool| {
            let mut sim = uncached_with(world.clone());
            sim.config_mut().dense_sampling = dense;
            sim.validate(&mv(target), &empty_state())
        };
        let dense = run(true);
        let adaptive = run(false);
        assert!(matches!(dense, TrajectoryVerdict::Collision(_)));
        // Bit-identical payload: obstacle, link, contact, sample fraction.
        assert_eq!(adaptive, dense);
    }

    #[test]
    fn next_validation_sees_a_world_mutation() {
        // First move: free space, heavy skipping. Then an obstacle lands
        // on the same path; the second validation must see it.
        let arm = presets::ur3e();
        let start_tool = arm.tool_position(&arm.home_configuration());
        let target = start_tool + Vec3::new(0.0, 0.25, 0.0);
        let mut sim = uncached_with(SimWorld::new());
        assert_eq!(
            sim.validate(&mv(target), &empty_state()),
            TrajectoryVerdict::Safe
        );
        // Move back home so the next validation retraces the same path.
        let home = Command::new("ur3e", ActionKind::MoveHome);
        assert_eq!(sim.validate(&home, &empty_state()), TrajectoryVerdict::Safe);
        sim.world_mut().add_obstacle(
            "dropped_crate",
            Aabb::from_center_half_extents(start_tool.lerp(target, 0.5), Vec3::new(0.3, 0.03, 0.3)),
        );
        match sim.validate(&mv(target), &empty_state()) {
            TrajectoryVerdict::Collision(report) => {
                assert_eq!(report.device.as_str(), "dropped_crate")
            }
            other => panic!("expected collision after mutation, got {other:?}"),
        }
    }

    #[test]
    fn silent_skip_followup_is_caught() {
        // Footnote 2: A→B avoids an obstacle; B becomes infeasible B' and
        // the arm silently skips it; the direct A→C path then collides —
        // and the simulator, whose mirrored pose is still A, catches it.
        let arm = presets::ur3e();
        let a_tool = arm.tool_position(&arm.home_configuration());
        let c = a_tool + Vec3::new(0.0, 0.22, 0.0);
        let world = SimWorld::new().with_obstacle(
            "tall_device",
            Aabb::from_center_half_extents(a_tool.lerp(c, 0.5), Vec3::new(0.3, 0.03, 0.4)),
        );
        let mut sim = sim_with(world);
        // B' infeasible: simulator says Unavailable, mirrored pose stays A.
        let b_prime = Vec3::new(4.0, 4.0, 4.0);
        assert_eq!(
            sim.validate(&mv(b_prime), &empty_state()),
            TrajectoryVerdict::Unavailable
        );
        // A→C now collides in the simulator.
        match sim.validate(&mv(c), &empty_state()) {
            TrajectoryVerdict::Collision(report) => {
                assert_eq!(report.device.as_str(), "tall_device")
            }
            other => panic!("expected collision, got {other:?}"),
        }
    }

    /// Two out-of-reach targets 2e-5 m apart, which a key rounded to a
    /// 1e-4 grid would put in one bucket. Keyed on exact bits, each keeps
    /// its own entry: A, B, A, B is two misses, then two hits.
    #[test]
    fn near_duplicate_targets_keep_their_own_entries() {
        let mut sim = sim_with(SimWorld::new());
        let home = presets::ur3e().home_configuration();
        for target in [5.0, 5.00002, 5.0, 5.00002] {
            let verdict = sim.validate(&mv(Vec3::splat(target)), &empty_state());
            assert_eq!(verdict, TrajectoryVerdict::Unavailable);
            assert_eq!(sim.arm_configuration(&"ur3e".into()), Some(home));
        }
        assert_eq!((sim.cache_misses(), sim.cache_hits()), (2, 2));
    }

    /// An arm's verdict memo is cleared wholesale when full, so it never
    /// holds more than `VERDICT_CACHE_CAPACITY` verdicts, and every
    /// verdict matches an uncached twin's.
    #[test]
    fn a_full_verdict_memo_is_cleared() {
        let mut cached = sim_with(SimWorld::new());
        let mut uncached = uncached_with(SimWorld::new());
        let id = DeviceId::new("ur3e");
        for i in 0..VERDICT_CACHE_CAPACITY + 2 {
            // Out of reach, so each validate is cheap and leaves the arm home.
            let cmd = mv(Vec3::new(5.0 + i as f64 * 1e-3, 5.0, 5.0));
            let verdict = cached.validate(&cmd, &empty_state());
            assert_eq!(verdict, uncached.validate(&cmd, &empty_state()));
            let memo_len = cached.arms[&id].verdicts.len();
            assert_eq!(memo_len, i % VERDICT_CACHE_CAPACITY + 1, "after {i} misses");
        }
    }

    /// The golden IK digests' FNV-1a step over one little-endian word.
    fn feed(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The FNV-1a offset basis the golden IK digests start from.
    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// The bits and order of every candidate in the 144 golden calls.
    const IK_CANDIDATES_GOLDEN: u64 = 0x868f_fbac_ff57_b2c2;

    /// The number of candidates each golden call returns, and nothing
    /// else.
    const IK_CANDIDATE_COUNTS_GOLDEN: u64 = 0xb643_cf2e_2ede_3a61;

    /// The 144 seeded `ik_candidates_into` calls the golden digests
    /// cover, grouped by preset: 12 targets, each from the home
    /// configuration and from two seeded start configurations. Most
    /// targets are reachable (the tool of a random posture); every fourth
    /// is a point in the reach cube, which may be out of reach or
    /// unreachable inside it.
    fn golden_ik_calls() -> Vec<(ArmModel, Vec<(JointConfig, Vec3)>)> {
        let mut rng = rabit_util::Rng::seed_from_u64(0x601D);
        [
            presets::ur3e(),
            presets::ur5e(),
            presets::viperx300(),
            presets::ned2(),
        ]
        .into_iter()
        .map(|model| {
            let random_config = |rng: &mut rabit_util::Rng| {
                let mut q = JointConfig::ZERO;
                for i in 0..6 {
                    let l = model.limits()[i];
                    q = q.with_angle(i, rng.random_range(l.min..l.max));
                }
                q
            };
            let starts = [
                model.home_configuration(),
                random_config(&mut rng),
                random_config(&mut rng),
            ];
            let base = model.chain().base().translation;
            let reach = model.max_reach();
            let mut calls = Vec::with_capacity(36);
            for k in 0..12 {
                let target = if k % 4 == 3 {
                    base + Vec3::new(
                        rng.random_range(-reach..reach),
                        rng.random_range(-reach..reach),
                        rng.random_range(-reach..reach),
                    )
                } else {
                    model.tool_position(&random_config(&mut rng))
                };
                calls.extend(starts.iter().map(|&start| (start, target)));
            }
            (model, calls)
        })
        .collect()
    }

    /// Pins the exact IK candidates, bits and order, that every verdict
    /// depends on: an FNV-1a digest of `ik_candidates_into`'s output over
    /// the golden calls, with a fresh solve memo per call. The IK tests
    /// above accept any solution within 1e-3 m; this one fails on any
    /// change to the numbers.
    #[test]
    fn ik_candidates_match_the_golden_digest() {
        let mut hash = FNV_BASIS;
        let mut out = Vec::new();
        for (model, calls) in golden_ik_calls() {
            for (start, target) in calls {
                ik_candidates_into(&model, &start, target, &mut SolveMemo::new(), &mut out);
                feed(&mut hash, out.len() as u64);
                for q in &out {
                    for a in q.angles() {
                        feed(&mut hash, a.to_bits());
                    }
                }
            }
        }
        assert_eq!(hash, IK_CANDIDATES_GOLDEN, "digest {hash:#018x}");
    }

    /// The number of postures each golden call finds. A change to the
    /// solver's arithmetic may re-take `IK_CANDIDATES_GOLDEN`, and says
    /// so; this digest must keep passing unmodified.
    #[test]
    fn ik_candidate_counts_match_the_golden_digest() {
        let mut hash = FNV_BASIS;
        let mut out = Vec::new();
        for (model, calls) in golden_ik_calls() {
            let mut solves = SolveMemo::new();
            for (start, target) in calls {
                ik_candidates_into(&model, &start, target, &mut solves, &mut out);
                feed(&mut hash, out.len() as u64);
            }
        }
        assert_eq!(hash, IK_CANDIDATE_COUNTS_GOLDEN, "digest {hash:#018x}");
    }

    /// The solve memo changes no bit: the golden calls with one memo per
    /// preset, shared by all of that preset's calls, and every call made
    /// twice, the second served from the memo alone.
    #[test]
    fn a_shared_solve_memo_keeps_the_golden_digest() {
        let mut hash = FNV_BASIS;
        let (mut out, mut again) = (Vec::new(), Vec::new());
        for (model, calls) in golden_ik_calls() {
            let mut solves = SolveMemo::new();
            for (start, target) in calls {
                ik_candidates_into(&model, &start, target, &mut solves, &mut out);
                let filled = solves.len();
                ik_candidates_into(&model, &start, target, &mut solves, &mut again);
                assert_eq!(solves.len(), filled, "a repeated call solved again");
                assert_eq!(out, again);
                feed(&mut hash, again.len() as u64);
                for q in &again {
                    for a in q.angles() {
                        feed(&mut hash, a.to_bits());
                    }
                }
            }
            // 12 targets × 3 starts × 6 seeds = 216 seed solves: the four
            // target-only seeds are shared by the three starts, and the
            // home start's own seed is the home seed.
            assert_eq!(solves.len(), 108, "{}", model.name());
        }
        assert_eq!(hash, IK_CANDIDATES_GOLDEN, "digest {hash:#018x}");
    }

    /// UR3e and UR5e share their home configuration bit for bit, so an IK
    /// memo that outlived a re-registration would serve the UR3e's
    /// postures to the UR5e's first move.
    #[test]
    fn re_registering_an_arm_drops_its_ik_memos() {
        let (ur3e, ur5e) = (presets::ur3e(), presets::ur5e());
        assert_eq!(ur3e.home_configuration(), ur5e.home_configuration());
        let target = ur3e.tool_position(&ur3e.home_configuration()) + Vec3::new(0.05, 0.05, 0.05);
        let arm = DeviceId::new("arm");
        let move_arm = Command::new("arm", ActionKind::MoveToLocation { target });
        let config = SimConfig {
            gui: false,
            ..SimConfig::default()
        };
        let bits = |sim: &ExtendedSimulator| {
            sim.arm_configuration(&arm)
                .map(|q| q.angles().map(f64::to_bits))
        };

        let mut sim = ExtendedSimulator::new(SimWorld::new(), config).with_arm("arm", ur3e);
        assert_eq!(
            sim.validate(&move_arm, &LabState::new()),
            TrajectoryVerdict::Safe
        );
        assert_eq!(sim.ik_cache_len(), 1);
        sim.add_arm("arm", ur5e.clone());
        let verdict = sim.validate(&move_arm, &LabState::new());

        let mut fresh = ExtendedSimulator::new(SimWorld::new(), config).with_arm("arm", ur5e);
        assert_eq!(verdict, fresh.validate(&move_arm, &LabState::new()));
        assert_eq!(verdict, TrajectoryVerdict::Safe);
        assert_eq!(bits(&sim), bits(&fresh));
    }
}

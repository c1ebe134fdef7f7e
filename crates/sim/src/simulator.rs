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

use crate::world::{ClearanceScratch, ExclusionMask, SimWorld};
use rabit_core::{CollisionReport, TrajectoryValidator, TrajectoryVerdict};
use rabit_devices::{ActionKind, Command, DeviceId, LabState, StateKey};
use rabit_geometry::broadphase::QueryCache;
use rabit_geometry::{Capsule, Pose, Vec3};
use rabit_kinematics::ik::{solve_position, IkParams};
use rabit_kinematics::sweep::CAPSULE_COUNT;
use rabit_kinematics::trajectory::Trajectory;
use rabit_kinematics::{ArmModel, HeldObject, JointConfig};
use std::collections::BTreeMap;

/// The paper's measured simulator overhead per collision check when the
/// GUI is in the loop (~2 s, §II-C).
pub const GUI_CHECK_LATENCY_S: f64 = 2.0;

/// Headless check latency after bypassing the GUI (the paper's planned
/// deployment optimisation).
pub const HEADLESS_CHECK_LATENCY_S: f64 = 0.02;

/// One simulated arm: its kinematic model and mirrored configuration.
#[derive(Debug, Clone)]
struct SimArm {
    model: ArmModel,
    current: JointConfig,
    /// Set while the arm is inside a device: the configuration it entered
    /// from and the device id (excluded from sweeps until it retracts).
    entered: Option<(JointConfig, DeviceId)>,
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
    /// Whether repeated validations are served from the verdict cache
    /// (keyed on arm, start pose, goal, held object, and world epoch).
    /// Verdicts are identical either way; caching only changes the work
    /// done.
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

/// Maximum number of entries the verdict cache retains; beyond it the
/// least-recently-used entry is evicted.
const VERDICT_CACHE_CAPACITY: usize = 512;

/// Maximum number of entries the IK candidate cache retains; when full
/// it is cleared wholesale (the workloads it serves — fleet laps
/// replaying one workflow — revisit a few dozen distinct keys, so
/// wholesale clearing never thrashes in practice).
const IK_CACHE_CAPACITY: usize = 1024;

/// Safety margin (metres) subtracted from measured clearance before it
/// becomes a skip budget. It absorbs the ≲1e-11 overshoot of the cuboid
/// distance query while staying far below any physically meaningful
/// clearance, so the adaptive kernel never skips a sample the dense grid
/// would have flagged.
const CLEARANCE_MARGIN: f64 = 1e-6;

/// Largest clearance (metres) worth measuring: skip runs are bounded by
/// the remaining motion anyway, and capping the probe keeps the
/// broad-phase query for clearance from sweeping in every obstacle on
/// the deck.
const MAX_CLEARANCE_CAP: f64 = 0.6;

/// Number of upcoming samples whose forward kinematics are prefetched in
/// one batched pass when the clearance budget admits no skip at all —
/// the arm is grazing an obstacle, so the next several samples will
/// almost certainly be checked too.
const DENSE_WINDOW: usize = 8;

/// Broad-phase probes in the temporal-coherence cache are inflated by
/// this slack (metres): successive trajectory samples move the probe by
/// at most a few centimetres, so one tree walk serves a whole run of
/// samples.
const QUERY_CACHE_SLACK: f64 = 0.1;

/// Number of upcoming grid samples a clearance probe is sized to cover:
/// each capsule's probe cap is its per-sample motion bound times this
/// horizon (still clamped by its remaining motion and
/// [`MAX_CLEARANCE_CAP`]). Probing farther buys skip runs the sweep
/// rarely gets to spend but drags every obstacle on the deck into the
/// broad-phase candidate set — with horizon-sized probes, links far
/// from everything get an *empty* candidate set and their clearance
/// (= the cap) costs no exact distance evaluations at all, which is
/// what lets the op reduction show up as wall-clock.
const SKIP_HORIZON_SAMPLES: f64 = 8.0;

/// Slack for the clearance probe's own temporal-coherence cache.
/// Clearance probes jump by a whole skip run between anchors — farther
/// than narrow-phase probes move between adjacent samples — so they get
/// a wider superset to stay cache-hot.
const CLEARANCE_CACHE_SLACK: f64 = 0.25;

/// Inverse quantisation step for cache keys: poses within 1e-4 rad (or
/// metres) land in the same bucket. An exact-match confirmation inside
/// the entry guards against aliasing, so quantisation never changes a
/// verdict — it only bounds the key space.
const KEY_QUANT_INV: f64 = 1e4;

fn quant(x: f64) -> i64 {
    (x * KEY_QUANT_INV).round() as i64
}

fn quant3(v: Vec3) -> [i64; 3] {
    [quant(v.x), quant(v.y), quant(v.z)]
}

fn quant6(q: &JointConfig) -> [i64; 6] {
    let a = q.angles();
    [
        quant(a[0]),
        quant(a[1]),
        quant(a[2]),
        quant(a[3]),
        quant(a[4]),
        quant(a[5]),
    ]
}

/// Exact bit pattern of a configuration — the IK-cache key component.
/// Unlike the quantised verdict keys, IK keys are exact: a hit must
/// reproduce the solver's output verbatim, so no aliasing check is
/// needed (distinct inputs cannot share a key).
fn config_bits(q: &JointConfig) -> [u64; 6] {
    let a = q.angles();
    [
        a[0].to_bits(),
        a[1].to_bits(),
        a[2].to_bits(),
        a[3].to_bits(),
        a[4].to_bits(),
        a[5].to_bits(),
    ]
}

/// IK candidate cache key: the arm (its model is fixed per id between
/// [`ExtendedSimulator::add_arm`] calls), the exact start configuration,
/// and the exact target position.
type IkKey = (DeviceId, [u64; 6], [u64; 3]);

/// Quantised goal discriminant inside a [`VerdictKey`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GoalKey {
    Position([i64; 3]),
    Home,
    Sleep,
    Enter(DeviceId, [i64; 3]),
    Exit,
}

/// Cache key: everything a verdict depends on, quantised. The world
/// epoch is part of the key, so any obstacle mutation implicitly
/// invalidates every prior entry (stale entries age out via LRU) — and
/// the rulebase epoch is composed alongside it, so a live rule commit
/// (create/update/enable/disable) likewise invalidates every verdict
/// computed under the previous rule generation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct VerdictKey {
    arm: DeviceId,
    epoch: u64,
    rulebase_epoch: u64,
    start: [i64; 6],
    goal: GoalKey,
    held: bool,
    entered: Option<DeviceId>,
}

/// Exact (unquantised) goal stored in the entry for aliasing checks.
#[derive(Debug, Clone, PartialEq)]
enum ExactGoal {
    Position(Vec3),
    Home,
    Sleep,
    Enter(DeviceId, Vec3),
    Exit,
}

/// Exact inputs a cached verdict was computed from. Two inputs that
/// quantise to the same [`VerdictKey`] but differ exactly must not share
/// a verdict — this confirmation keeps cached and uncached validation
/// bit-for-bit identical.
#[derive(Debug, Clone, PartialEq)]
struct ExactKey {
    start: JointConfig,
    goal: ExactGoal,
    entered: Option<(JointConfig, DeviceId)>,
}

/// The arm-state side effects of a `Safe` verdict, replayed on a cache
/// hit so the mirrored pose evolves exactly as it would uncached.
#[derive(Debug, Clone)]
struct PostState {
    current: JointConfig,
    entered: Option<(JointConfig, DeviceId)>,
}

#[derive(Debug, Clone)]
struct CachedVerdict {
    exact: ExactKey,
    verdict: TrajectoryVerdict,
    /// `Some` iff the verdict was `Safe` (only safe motions mutate the
    /// mirrored arm state).
    post: Option<PostState>,
    /// Last-use stamp for LRU eviction.
    stamp: u64,
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
    /// Count of narrow-phase obstacle tests (what broad-phase pruning
    /// saves).
    narrow_checks: u64,
    /// Memoized verdicts, keyed on everything a verdict depends on.
    cache: BTreeMap<VerdictKey, CachedVerdict>,
    cache_hits: u64,
    cache_misses: u64,
    /// Monotonic use counter driving LRU eviction.
    cache_stamp: u64,
    /// The rulebase epoch governing the next validation, as reported by
    /// the engine via `note_rulebase_epoch`. Composed into every
    /// [`VerdictKey`] so a rule commit can never serve a stale verdict.
    rulebase_epoch: u64,
    /// Memoised IK candidate lists for position goals. Candidates depend
    /// only on the arm's model, its mirrored start configuration, and
    /// the target — not on the world, the held object, or any config
    /// flag — so repeated commands (fleet laps replaying one workflow,
    /// campaign re-runs) skip the damped-least-squares solves entirely.
    /// Keys are exact bit patterns and hits return the solver's output
    /// verbatim, so validation stays bit-for-bit identical; only the
    /// redundant numeric work is elided.
    ik_cache: BTreeMap<IkKey, Vec<JointConfig>>,
    /// Grid samples the adaptive kernel proved hit-free and skipped.
    samples_skipped: u64,
    /// Per-primitive exact signed-distance evaluations issued by the
    /// adaptive kernel's clearance queries.
    distance_queries: u64,
    /// Temporal-coherence caches for broad-phase queries — one for
    /// narrow-phase probes, one for the wider clearance probes (mixing
    /// them would thrash: the probes differ in size every sample). Both
    /// are valid for the world epoch in `query_cache_epoch`.
    query_cache: QueryCache,
    clearance_cache: QueryCache,
    query_cache_epoch: u64,
    /// Reusable buffers: IK candidates, arm capsules per sample, and
    /// broad-phase candidate indices. Keeping them on the simulator makes
    /// the steady-state sweep allocation-free.
    scratch_candidates: Vec<JointConfig>,
    scratch_capsules: Vec<Capsule>,
    scratch_prune: Vec<usize>,
    /// Exclusion bitset, resolved once per sweep from the exclusion names
    /// and reused across every sample of the trajectory.
    scratch_mask: ExclusionMask,
    /// Packet-query buffers for the batched clearance query.
    scratch_clear: ClearanceScratch,
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
            cache: BTreeMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_stamp: 0,
            rulebase_epoch: 0,
            ik_cache: BTreeMap::new(),
            samples_skipped: 0,
            distance_queries: 0,
            query_cache: QueryCache::new(),
            clearance_cache: QueryCache::new(),
            query_cache_epoch: 0,
            scratch_candidates: Vec::new(),
            scratch_capsules: Vec::new(),
            scratch_prune: Vec::new(),
            scratch_mask: ExclusionMask::default(),
            scratch_clear: ClearanceScratch::default(),
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

    /// Registers an arm model. Drops any cached verdicts and IK
    /// candidates: a re-registered arm may carry a different model under
    /// the same id.
    pub fn add_arm(&mut self, id: impl Into<DeviceId>, model: ArmModel) {
        let current = model.home_configuration();
        self.arms.insert(
            id.into(),
            SimArm {
                model,
                current,
                entered: None,
            },
        );
        self.cache.clear();
        self.ik_cache.clear();
    }

    /// The world model (to add/remove device cuboids at runtime).
    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.world
    }

    /// The world model.
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// Number of collision checks performed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Number of narrow-phase obstacle tests performed so far. Broad-phase
    /// pruning keeps this far below `checks × obstacles`.
    pub fn narrow_checks_performed(&self) -> u64 {
        self.narrow_checks
    }

    /// Number of polling-grid samples the adaptive sweep kernel proved
    /// hit-free from clearance + motion bounds and therefore skipped.
    /// Always zero with [`SimConfig::dense_sampling`].
    pub fn samples_skipped(&self) -> u64 {
        self.samples_skipped
    }

    /// Number of per-primitive exact signed-distance evaluations the
    /// adaptive sweep kernel issued while measuring clearance. Always
    /// zero with [`SimConfig::dense_sampling`].
    pub fn distance_queries(&self) -> u64 {
        self.distance_queries
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Mutable configuration access (benchmarks flip
    /// [`SimConfig::verdict_cache`] to compare the cached and uncached
    /// paths). Turning the cache off leaves stale entries in place but
    /// unread; [`ExtendedSimulator::clear_verdict_cache`] drops them.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// Verdict-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Verdict-cache misses so far (validations that ran the full sweep).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Number of verdicts currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every cached verdict (the statistics counters are kept).
    pub fn clear_verdict_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of memoised IK candidate lists currently held. A steady
    /// count across repeated workloads means the damped-least-squares
    /// solves are fully amortised; unbounded growth means the keys
    /// (start configuration or target) never repeat.
    pub fn ik_cache_len(&self) -> usize {
        self.ik_cache.len()
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

    /// Sweeps a trajectory against the world, returning the first hit as
    /// a structured [`CollisionReport`] (obstacle, link, contact point,
    /// time fraction of the motion).
    ///
    /// By default the adaptive conservative-advancement kernel runs; the
    /// [`SimConfig::dense_sampling`] escape hatch checks every grid
    /// sample. The returned report — including which sample trips — is
    /// identical either way.
    fn sweep(
        &mut self,
        arm_id: &DeviceId,
        trajectory: &Trajectory,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        if self.config.dense_sampling {
            self.sweep_dense(arm_id, trajectory, held, exclude)
        } else {
            self.sweep_adaptive(arm_id, trajectory, held, exclude)
        }
    }

    /// The dense sweep: every sample of the polling grid is checked, with
    /// BVH-pruned candidates.
    ///
    /// Allocation-free in steady state: samples stream from the
    /// trajectory iterator, and the capsule and broad-phase buffers are
    /// reused across samples and across calls.
    fn sweep_dense(
        &mut self,
        arm_id: &DeviceId,
        trajectory: &Trajectory,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        let mut capsules = std::mem::take(&mut self.scratch_capsules);
        let mut prune = std::mem::take(&mut self.scratch_prune);
        let mut mask = std::mem::take(&mut self.scratch_mask);
        self.world.fill_exclusion_mask(exclude, &mut mask);
        let mut result = None;
        if let Some(arm) = self.arms.get(arm_id) {
            for (fraction, q) in trajectory.samples_every(self.config.poll_interval_s) {
                self.checks += 1;
                arm.model.link_capsules_into(&q, held, &mut capsules);
                // Skip the base link (capsule 0): it is bolted to the
                // mounting platform, so its permanent contact with the
                // platform slab is not a collision.
                let (hit, tested) =
                    self.world
                        .first_hit_detailed_masked(&capsules[1..], &mask, &mut prune);
                self.narrow_checks += tested;
                if let Some(hit) = hit {
                    result = Some(CollisionReport {
                        device: DeviceId::new(&hit.obstacle.name),
                        // Capsule indices are relative to the slice that
                        // skipped the base link; +1 restores the arm's
                        // own link numbering.
                        link: hit.capsule_index + 1,
                        contact: hit.contact,
                        at_fraction: fraction,
                    });
                    break;
                }
            }
        }
        self.scratch_capsules = capsules;
        self.scratch_prune = prune;
        self.scratch_mask = mask;
        result
    }

    /// The adaptive conservative-advancement sweep.
    ///
    /// At each *checked* sample the kernel measures the clearance of
    /// every arm capsule to the nearest obstacle in one batched,
    /// temporally-cached query ([`SimWorld::clearances_into`]). The
    /// clearances serve two purposes at once:
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
    /// [`ExtendedSimulator::sweep_dense`].
    ///
    /// Broad-phase candidates come from temporal-coherence
    /// [`QueryCache`]s, cleared whenever the world epoch moves; a cached
    /// candidate set is exactly the fresh broad-phase answer, so hits
    /// match the pruned dense path.
    ///
    /// [`DhChain::joint_poses_batch`]: rabit_kinematics::DhChain::joint_poses_batch
    fn sweep_adaptive(
        &mut self,
        arm_id: &DeviceId,
        trajectory: &Trajectory,
        held: Option<&HeldObject>,
        exclude: &[&str],
    ) -> Option<CollisionReport> {
        let epoch = self.world.epoch();
        if epoch != self.query_cache_epoch {
            self.query_cache.clear();
            self.clearance_cache.clear();
            self.query_cache_epoch = epoch;
        }
        let mut capsules = std::mem::take(&mut self.scratch_capsules);
        let mut prune = std::mem::take(&mut self.scratch_prune);
        let mut grid = std::mem::take(&mut self.scratch_grid);
        let mut suffix = std::mem::take(&mut self.scratch_suffix);
        let mut window = std::mem::take(&mut self.scratch_window);
        let mut poses = std::mem::take(&mut self.scratch_poses);
        let mut mask = std::mem::take(&mut self.scratch_mask);
        let mut cscratch = std::mem::take(&mut self.scratch_clear);
        self.world.fill_exclusion_mask(exclude, &mut mask);
        let mut result = None;

        if let Some(arm) = self.arms.get(arm_id) {
            grid.clear();
            grid.extend(trajectory.samples_every(self.config.poll_interval_s));
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

            let report = |hit: crate::world::HitDetail<'_>, fraction: f64| CollisionReport {
                device: DeviceId::new(&hit.obstacle.name),
                // Capsule indices are relative to the slice that skipped
                // the base link; +1 restores the arm's link numbering.
                link: hit.capsule_index + 1,
                contact: hit.contact,
                at_fraction: fraction,
            };

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
                let evals = self.world.clearances_into_masked(
                    &capsules[1..],
                    &mask,
                    &caps,
                    CLEARANCE_CACHE_SLACK,
                    &mut self.clearance_cache,
                    &mut cscratch,
                    &mut clearances,
                );
                self.distance_queries += evals;
                if clearances.iter().any(|&c| c <= 0.0) {
                    // Some capsule touches something: only now is the
                    // exact narrow phase needed, and it decides the
                    // verdict precisely as the dense kernel would.
                    let (hit, tested) = self.world.first_hit_cached_masked(
                        &capsules[1..],
                        &mask,
                        QUERY_CACHE_SLACK,
                        &mut self.query_cache,
                        &mut prune,
                    );
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
        self.scratch_prune = prune;
        self.scratch_grid = grid;
        self.scratch_suffix = suffix;
        self.scratch_window = window;
        self.scratch_poses = poses;
        self.scratch_mask = mask;
        self.scratch_clear = cscratch;
        result
    }

    /// Builds the (quantised, exact) key pair for a validation request.
    /// Callers must have filtered `Goal::None` already.
    fn cache_key(&self, arm_id: &DeviceId, goal: &Goal, held: bool) -> (VerdictKey, ExactKey) {
        let arm = &self.arms[arm_id];
        let (goal_key, exact_goal) = match goal {
            Goal::Position(p) => (GoalKey::Position(quant3(*p)), ExactGoal::Position(*p)),
            Goal::Joint(JointTarget::Home) => (GoalKey::Home, ExactGoal::Home),
            Goal::Joint(JointTarget::Sleep) => (GoalKey::Sleep, ExactGoal::Sleep),
            Goal::Enter { device, position } => (
                GoalKey::Enter(device.clone(), quant3(*position)),
                ExactGoal::Enter(device.clone(), *position),
            ),
            Goal::Exit => (GoalKey::Exit, ExactGoal::Exit),
            Goal::None => unreachable!("Goal::None is filtered before cache lookup"),
        };
        (
            VerdictKey {
                arm: arm_id.clone(),
                epoch: self.world.epoch(),
                rulebase_epoch: self.rulebase_epoch,
                start: quant6(&arm.current),
                goal: goal_key,
                held,
                entered: arm.entered.as_ref().map(|(_, d)| d.clone()),
            },
            ExactKey {
                start: arm.current,
                goal: exact_goal,
                entered: arm.entered.clone(),
            },
        )
    }

    /// Inserts a verdict, evicting the least-recently-used entry at
    /// capacity.
    fn insert_cached(
        &mut self,
        key: VerdictKey,
        exact: ExactKey,
        verdict: TrajectoryVerdict,
        post: Option<PostState>,
    ) {
        if self.cache.len() >= VERDICT_CACHE_CAPACITY && !self.cache.contains_key(&key) {
            let oldest = self
                .cache
                .iter()
                .min_by_key(|(_, v)| v.stamp)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.cache.remove(&oldest);
            }
        }
        self.cache_stamp += 1;
        self.cache.insert(
            key,
            CachedVerdict {
                exact,
                verdict,
                post,
                stamp: self.cache_stamp,
            },
        );
    }

    /// Memoised wrapper around [`ik_candidates_into`]. Candidate lists
    /// for a position goal are a pure function of the arm's model, its
    /// mirrored start configuration, and the target, and the numeric
    /// solves behind them dominate a validation's cost by orders of
    /// magnitude over the sweep itself — so workloads that repeat
    /// commands (fleet laps replaying one workflow, campaign re-runs)
    /// pay the damped-least-squares bill once per distinct motion.
    fn ik_candidates_cached(
        &mut self,
        arm_id: &DeviceId,
        target: Vec3,
        out: &mut Vec<JointConfig>,
    ) {
        let arm = &self.arms[arm_id];
        let key: IkKey = (
            arm_id.clone(),
            config_bits(&arm.current),
            [target.x.to_bits(), target.y.to_bits(), target.z.to_bits()],
        );
        if let Some(cached) = self.ik_cache.get(&key) {
            out.clear();
            out.extend_from_slice(cached);
            return;
        }
        ik_candidates_into(&arm.model, &arm.current, target, out);
        if self.ik_cache.len() >= IK_CACHE_CAPACITY {
            self.ik_cache.clear();
        }
        self.ik_cache.insert(key, out.clone());
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
        // While inside a device, that device stays excluded from sweeps
        // until the arm retracts.
        let still_inside = self.arms[arm_id]
            .entered
            .as_ref()
            .map(|(_, d)| d.to_string());
        let exclude_owned: Option<String> = match goal {
            Goal::None => None,
            Goal::Joint(JointTarget::Home) => {
                candidates.push(self.arms[arm_id].model.home_configuration());
                still_inside
            }
            Goal::Joint(JointTarget::Sleep) => {
                candidates.push(self.arms[arm_id].model.sleep_configuration());
                still_inside
            }
            Goal::Position(p) => {
                self.ik_candidates_cached(arm_id, p, &mut candidates);
                still_inside
            }
            Goal::Enter { device, position } => {
                self.ik_candidates_cached(arm_id, position, &mut candidates);
                let exclude = device.to_string();
                entering = Some(device);
                Some(exclude)
            }
            Goal::Exit => match &self.arms[arm_id].entered {
                // Retract the way it came, device still excluded.
                Some((q_prev, device)) => {
                    exiting = true;
                    candidates.push(*q_prev);
                    Some(device.to_string())
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
        let exclude: &[&str] = match exclude_owned.as_deref() {
            Some(name) => {
                exclude_buf = [name];
                &exclude_buf
            }
            None => &[],
        };
        let mut first_hit: Option<CollisionReport> = None;
        let mut safe = false;
        for &target_config in &candidates {
            let trajectory = Trajectory::linear(start, target_config);
            match self.sweep(arm_id, &trajectory, held, exclude) {
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
/// elbow-down and mirrored-base postures). Duplicates (within 0.05 rad
/// L∞) are dropped. The seed set is a fixed array, so the only heap use
/// is `out`'s amortised growth.
fn ik_candidates_into(
    model: &ArmModel,
    current: &JointConfig,
    target: Vec3,
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

    for seed in seeds {
        if let Ok(q) = solve_position(model, &seed, target, &IkParams::default()) {
            if !out.iter().any(|o| o.max_joint_delta(&q) < 0.05) {
                out.push(q);
            }
        }
    }
    // Prefer postures that keep the arm body high: sort by descending
    // lowest point, so collision-free "natural" paths are swept first.
    out.sort_by(|a, b| {
        let la = model.lowest_point(a, None);
        let lb = model.lowest_point(b, None);
        lb.partial_cmp(&la).unwrap_or(std::cmp::Ordering::Equal)
    });
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
        if matches!(goal, Goal::None) {
            return TrajectoryVerdict::Unavailable;
        }

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

        // Cache lookup. The quantised key narrows to one bucket; the
        // exact-input confirmation inside the entry rules out aliasing,
        // so a hit is guaranteed to reproduce the uncached verdict —
        // including the mirrored-pose side effects, replayed from the
        // stored post-state.
        let (key, exact) = self.cache_key(&command.actor, &goal, held.is_some());
        if let Some(entry) = self.cache.get_mut(&key) {
            if entry.exact == exact {
                self.cache_stamp += 1;
                entry.stamp = self.cache_stamp;
                let verdict = entry.verdict.clone();
                let post = entry.post.clone();
                self.cache_hits += 1;
                if let Some(post) = post {
                    if let Some(arm) = self.arms.get_mut(&command.actor) {
                        arm.current = post.current;
                        arm.entered = post.entered;
                    }
                }
                return verdict;
            }
        }
        self.cache_misses += 1;

        let verdict = self.validate_uncached(&command.actor, goal, held.as_ref());

        let post = matches!(verdict, TrajectoryVerdict::Safe).then(|| {
            let arm = &self.arms[&command.actor];
            PostState {
                current: arm.current,
                entered: arm.entered.clone(),
            }
        });
        self.insert_cached(key, exact, verdict.clone(), post);
        verdict
    }

    fn note_rulebase_epoch(&mut self, epoch: u64) {
        // Stored, not acted on: the epoch flows into every VerdictKey, so
        // entries from older rule generations simply stop matching and
        // age out via LRU — no eager cache sweep needed.
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
        assert!(sim.checks_performed() > 0);
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
            let mut sim = ExtendedSimulator::new(
                SimWorld::new().with_obstacle(
                    "far_box",
                    Aabb::from_center_half_extents(Vec3::new(2.0, 2.0, 0.2), Vec3::splat(0.1)),
                ),
                SimConfig {
                    gui: false,
                    verdict_cache: false,
                    dense_sampling: dense,
                    ..SimConfig::default()
                },
            )
            .with_arm("ur3e", presets::ur3e());
            let verdict = sim.validate(&mv(target), &empty_state());
            let pose = sim.arm_configuration(&"ur3e".into()).unwrap();
            (verdict, pose, sim.checks_performed(), sim.samples_skipped())
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
            let mut sim = ExtendedSimulator::new(
                world.clone(),
                SimConfig {
                    gui: false,
                    verdict_cache: false,
                    dense_sampling: dense,
                    ..SimConfig::default()
                },
            )
            .with_arm("ur3e", presets::ur3e());
            sim.validate(&mv(target), &empty_state())
        };
        let dense = run(true);
        let adaptive = run(false);
        assert!(matches!(dense, TrajectoryVerdict::Collision(_)));
        // Bit-identical payload: obstacle, link, contact, sample fraction.
        assert_eq!(adaptive, dense);
    }

    #[test]
    fn world_mutation_invalidates_the_broadphase_cache() {
        // First move: free space, heavy skipping. Then an obstacle lands
        // on the same path; the epoch bump must flush the query cache so
        // the second validation sees it.
        let arm = presets::ur3e();
        let start_tool = arm.tool_position(&arm.home_configuration());
        let target = start_tool + Vec3::new(0.0, 0.25, 0.0);
        let mut sim = ExtendedSimulator::new(
            SimWorld::new(),
            SimConfig {
                gui: false,
                verdict_cache: false,
                ..SimConfig::default()
            },
        )
        .with_arm("ur3e", presets::ur3e());
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
}

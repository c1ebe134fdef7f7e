//! The end-to-end and per-layer metric sets every run prints.
//!
//! Every workload prints every metric of its kind, so a metric whose
//! layer a workload does not exercise reads 0 there (README.md lists
//! where each layer is exercised).

use crate::edits::EditSummary;
use crate::probe::SimCounters;
use crate::report::{peak_rss_mib, Metric};
use crate::stats::{median, supports, SlicedHistogram};
use std::time::{Duration, Instant};

/// The tail percentile of command, trial and commit latency. A p99 does
/// not hold within a tenth from run to run on a shared host: it counts
/// the millisecond bursts of outside load that land in a slice.
pub const TAIL_Q: f64 = 0.90;
/// The percentile of generator lag: a stall shows in the far tail.
pub const LAG_Q: f64 = 0.99;

/// Calls, time and allocations accumulated for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum {
    /// Calls.
    pub n: u64,
    /// Total time (ns).
    pub ns: u64,
    /// Total allocations on the measuring thread.
    pub allocs: u64,
}

impl Sum {
    /// Adds one call.
    pub fn add(&mut self, ns: u64, allocs: u64) {
        self.n += 1;
        self.ns += ns;
        self.allocs += allocs;
    }

    /// Mean time per call (ns), 0 without calls.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns as f64, self.n)
    }

    /// Mean allocations per call, 0 without calls.
    pub fn mean_allocs(&self) -> f64 {
        ratio(self.allocs as f64, self.n)
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Everything a traced run measured, per layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Rabit::step`, traced.
    pub step: Sum,
    /// `Rabit::step` in the interleaved untraced laps.
    pub step_untraced: Sum,
    /// `Rulebase::check` on the step's inputs.
    pub check: Sum,
    /// `transition::expected_state` on the step's inputs.
    pub expected_state: Sum,
    /// `validate` through the probe.
    pub validate: Sum,
    /// Probed `validate` calls that missed the IK memo.
    pub validate_ik_miss: Sum,
    /// Probed `validate` calls that hit (or did not use) the IK memo.
    pub validate_ik_hit: Sum,
    /// `Lab::apply` on the shadow lab.
    pub apply: Sum,
    /// `Lab::fetch_state` on the shadow lab.
    pub fetch_state: Sum,
    /// The traced unit of work minus its timed children (ns, summed). It
    /// is reported per step, so a trial's residual (`study_live`, no
    /// steps timed) reads 0.
    pub residual_ns: f64,
    /// Allocations of the step not made by a timed child.
    pub residual_allocs: f64,
    /// `Substrate::instantiate_on`.
    pub instantiate: Sum,
    /// `SnapshotSource::snapshot`.
    pub snapshot: Sum,
    /// The guarded tracer run inside `FleetJob::execute`.
    pub tracer_run: Sum,
    /// Rule epochs that landed between consecutive snapshots of a
    /// tenant, summed.
    pub epochs_between_snapshots: u64,
    /// The workload's unit of work (step or trial), traced.
    pub unit_traced: Sum,
    /// The same unit, untraced, interleaved with the traced ones.
    pub unit_untraced: Sum,
    /// Simulator work over the probed calls.
    pub sim: SimCounters,
}

/// Set-up and timed-window measurements behind the end-to-end metrics.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Wall time of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Wall time of one guarded command (ns), one unit per command.
    pub cmd_ns: SlicedHistogram,
    /// Commands are not timed one by one (`study_live`): report their
    /// mean latency, because the median of per-trial estimates sits
    /// where long and short trials meet and jumps between them.
    pub cmd_mean_only: bool,
    /// Wall time of one trial (ns), one unit per trial.
    pub trial_ns: SlicedHistogram,
}

impl EndToEnd {
    /// Empty series for a window of length `window` from `start`.
    pub fn new(setup_s: Vec<f64>, start: Instant, window: Duration) -> Self {
        EndToEnd {
            setup_s,
            cmd_ns: SlicedHistogram::new(start, window),
            cmd_mean_only: false,
            trial_ns: SlicedHistogram::new(start, window),
        }
    }
}

/// A latency metric from the window's best slice, in `scale` ns units.
fn best(name: &'static str, h: &SlicedHistogram, q: f64, scale: f64, unit: &'static str) -> Metric {
    let (value, samples) = h.best_quantile(q);
    if !supports(samples, q) {
        eprintln!("perfbench: {name} rests on {samples} samples, fewer than ten beyond it");
    }
    Metric::sampled(name, value / scale, unit, samples)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Latencies and
/// rates come from the window's best slice; a latency's sample count is
/// that slice's, a rate's the whole window's.
pub fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    let (cmds, trials) = (&e.cmd_ns, &e.trial_ns);
    vec![
        Metric::sampled("setup_s", median(&e.setup_s), "s", e.setup_s.len() as u64),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
        if e.cmd_mean_only {
            let (mean, samples) = cmds.best_mean();
            Metric::sampled("cmd_latency_p50_us", mean / 1e3, "us", samples)
        } else {
            best("cmd_latency_p50_us", cmds, 0.5, 1e3, "us")
        },
        Metric::sampled("cmds_per_s", cmds.best_rate(), "1/s", cmds.count()),
        Metric::sampled("trials_per_s", trials.best_rate(), "1/s", trials.count()),
        best("trial_latency_p50_ms", trials, 0.5, 1e6, "ms"),
    ]
}

/// Figures an untraced run prints and records without scoring them: the
/// p90 tails, which outside load moves by more than any bound allows
/// (whole runs on a shared host can run 75% slower), and the commit
/// latency of the live edits.
pub fn unscored(e: &EndToEnd, edits: &EditSummary) -> Vec<Metric> {
    let mut out = vec![
        best("cmd_latency_p90_us", &e.cmd_ns, TAIL_Q, 1e3, "us"),
        best("trial_latency_p90_ms", &e.trial_ns, TAIL_Q, 1e6, "ms"),
    ];
    out.extend(commit_latency(edits));
    out
}

/// Commit latency of the live edits (due time to receipt, whole
/// window). Per layer, not end to end: it is mostly two thread wake-ups,
/// whose cost on a shared virtual machine drifts twofold over minutes.
pub fn commit_latency(edits: &EditSummary) -> [Metric; 2] {
    let h = &edits.stats.latency;
    [
        Metric::sampled(
            "service.commit_latency_p50_us",
            h.quantile(0.5) / 1e3,
            "us",
            h.count(),
        ),
        Metric::sampled(
            "service.commit_latency_p90_us",
            h.quantile(TAIL_Q) / 1e3,
            "us",
            h.count(),
        ),
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(l: &Layers, edits: &EditSummary) -> Vec<Metric> {
    let s = &l.sim;
    let steps = l.step.n;
    let overhead_ns = l.step.mean_ns() - l.step_untraced.mean_ns();
    let unit_base = l.unit_untraced.mean_ns();
    let overhead_share = if unit_base > 0.0 {
        l.unit_traced.mean_ns() / unit_base - 1.0
    } else {
        0.0
    };
    let lookups = s.cache_hits + s.cache_misses;
    let samples = s.samples_checked + s.samples_skipped;
    let broker = &edits.broker;
    let snapshots = l.snapshot.n;
    let [c50, c90] = commit_latency(edits);
    vec![
        Metric::sampled("core.step_ns", l.step.mean_ns(), "ns", steps),
        Metric::sampled(
            "core.allocs_per_step",
            l.step.mean_allocs(),
            "count/call",
            steps,
        ),
        Metric::sampled(
            "core.step_untraced_ns",
            l.step_untraced.mean_ns(),
            "ns",
            l.step_untraced.n,
        ),
        Metric::sampled("core.tracing_overhead_ns", overhead_ns, "ns", steps),
        Metric::sampled(
            "trace.overhead_share",
            overhead_share,
            "ratio",
            l.unit_traced.n,
        ),
        Metric::sampled(
            "core.fetch_state_ns",
            l.fetch_state.mean_ns(),
            "ns",
            l.fetch_state.n,
        ),
        Metric::sampled(
            "core.fetch_state_allocs",
            l.fetch_state.mean_allocs(),
            "count/call",
            l.fetch_state.n,
        ),
        Metric::sampled("core.apply_ns", l.apply.mean_ns(), "ns", l.apply.n),
        Metric::sampled(
            "core.apply_allocs",
            l.apply.mean_allocs(),
            "count/call",
            l.apply.n,
        ),
        Metric::sampled("core.residual_ns", ratio(l.residual_ns, steps), "ns", steps),
        Metric::sampled(
            "core.residual_allocs",
            ratio(l.residual_allocs, steps),
            "count/call",
            steps,
        ),
        Metric::sampled(
            "core.instantiate_ns",
            l.instantiate.mean_ns(),
            "ns",
            l.instantiate.n,
        ),
        Metric::sampled("rulebase.check_ns", l.check.mean_ns(), "ns", l.check.n),
        Metric::sampled(
            "rulebase.check_allocs",
            l.check.mean_allocs(),
            "count/call",
            l.check.n,
        ),
        Metric::sampled(
            "rulebase.expected_state_ns",
            l.expected_state.mean_ns(),
            "ns",
            l.expected_state.n,
        ),
        Metric::sampled(
            "rulebase.expected_state_allocs",
            l.expected_state.mean_allocs(),
            "count/call",
            l.expected_state.n,
        ),
        Metric::sampled(
            "rulebase.snapshot_ns",
            l.snapshot.mean_ns(),
            "ns",
            snapshots,
        ),
        Metric::sampled(
            "rulebase.epochs_per_trial",
            ratio(l.epochs_between_snapshots as f64, snapshots),
            "count/trial",
            snapshots,
        ),
        Metric::sampled("sim.validate_ns", l.validate.mean_ns(), "ns", l.validate.n),
        Metric::sampled(
            "sim.validate_allocs",
            l.validate.mean_allocs(),
            "count/call",
            l.validate.n,
        ),
        Metric::sampled(
            "sim.cache_hit_rate",
            ratio(s.cache_hits as f64, lookups),
            "ratio",
            lookups,
        ),
        Metric::sampled(
            "sim.samples_checked",
            ratio(s.samples_checked as f64, s.validations),
            "count/call",
            s.validations,
        ),
        Metric::sampled(
            "sim.skip_rate",
            ratio(s.samples_skipped as f64, samples),
            "ratio",
            samples,
        ),
        Metric::sampled(
            "geometry.narrow_checks_per_validate",
            ratio(s.narrow_checks as f64, s.validations),
            "count/call",
            s.validations,
        ),
        Metric::sampled(
            "geometry.distance_queries_per_validate",
            ratio(s.distance_queries as f64, s.validations),
            "count/call",
            s.validations,
        ),
        Metric::sampled(
            "geometry.lane_occupancy",
            ratio(s.distance_queries as f64, s.distance_lanes),
            "ratio",
            s.distance_lanes,
        ),
        Metric::sampled(
            "kinematics.ik_memo_misses",
            ratio(s.ik_misses as f64, s.validations),
            "count/call",
            s.validations,
        ),
        Metric::sampled(
            "sim.validate_ik_miss_ns",
            l.validate_ik_miss.mean_ns(),
            "ns",
            l.validate_ik_miss.n,
        ),
        Metric::sampled(
            "sim.validate_ik_hit_ns",
            l.validate_ik_hit.mean_ns(),
            "ns",
            l.validate_ik_hit.n,
        ),
        Metric::sampled(
            "tracer.run_ns",
            l.tracer_run.mean_ns(),
            "ns",
            l.tracer_run.n,
        ),
        c50,
        c90,
        Metric::sampled(
            "service.batches_per_cmd",
            ratio(broker.batches as f64, broker.committed),
            "ratio",
            broker.committed,
        ),
        Metric::sampled(
            "service.worker_parks",
            ratio(broker.worker_parks as f64, broker.committed),
            "count/call",
            broker.committed,
        ),
        Metric::new(
            "service.queue_depth_peak",
            broker.queue_depth_peak as f64,
            "count",
        ),
        Metric::new(
            "service.shed_commands",
            broker.shed_commands as f64,
            "count",
        ),
        Metric::sampled(
            "service.generator_lag_ms",
            edits.stats.lag.quantile(LAG_Q) / 1e6,
            "ms",
            edits.stats.lag.count(),
        ),
    ]
}

//! The guarded-command benchmark: end-to-end latency and throughput of
//! RABIT's intercept path, and a per-layer breakdown from a separate
//! traced run.
//!
//! Three workloads (see README.md for why each exists):
//!
//! * `replay_cached` — one long-lived guarded engine replays a seeded
//!   pool of Fig. 5 variants with the verdict cache on;
//! * `replay_sweep` — the same laps with the verdict cache off, so every
//!   motion sweeps;
//! * `study_live` — the 16-bug study plus the safe workflows on the three
//!   study configurations, each trial a cold `FleetJob::execute`.
//!
//! Every workload runs with live, verdict-neutral rule edits issued
//! open-loop through a one-worker broker.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (traced runs use the `perfbench_traced` binary, which installs the
//! counting allocator).

pub mod alloc;
pub mod edits;
pub mod metrics;
pub mod probe;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod study;

use edits::EditService;
use metrics::{EndToEnd, Layers};
use rabit_rulebase::{Rulebase, TenantId};
use rabit_testbed::{rulebase_for, RabitStage};
use rabit_util::Json;
use report::Outcome;
use spans::{SpanLog, RECONCILE_TOLERANCE};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The three study configurations, in study order.
pub const CONFIGS: [RabitStage; 3] = [
    RabitStage::Baseline,
    RabitStage::Modified,
    RabitStage::ModifiedWithSimulator,
];

/// The rule-store tenant of a study configuration.
pub fn tenant_of(config: RabitStage) -> TenantId {
    TenantId::new(match config {
        RabitStage::Baseline => "baseline",
        RabitStage::Modified => "modified",
        RabitStage::ModifiedWithSimulator => "modified+sim",
    })
}

/// One tenant per study configuration, seeded with its rulebase.
pub fn study_tenants() -> Vec<(TenantId, Rulebase)> {
    CONFIGS
        .iter()
        .map(|&c| (tenant_of(c), rulebase_for(c)))
        .collect()
}

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm replay, verdict cache on.
    ReplayCached,
    /// Warm replay, verdict cache off.
    ReplaySweep,
    /// The bug study under live rule edits.
    StudyLive,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "replay_cached" => Some(Workload::ReplayCached),
            "replay_sweep" => Some(Workload::ReplaySweep),
            "study_live" => Some(Workload::StudyLive),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ReplayCached => "replay_cached",
            Workload::ReplaySweep => "replay_sweep",
            Workload::StudyLive => "study_live",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window (s).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// The fewest set-ups a run makes; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Set-ups repeat until they have taken this long together (s), so a
/// set-up of tens of milliseconds (`study_live`) is timed often enough
/// for its median to hold from run to run.
pub const SETUP_MIN_S: f64 = 2.0;

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} expected, got '{value}'");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a number in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Nanoseconds from `start` to `end`.
pub fn nanos(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// The timed window a workload fills.
pub struct Window<'a> {
    /// The store and broker the live edits go through.
    pub edits: &'a EditService,
    /// When the window opened.
    pub start: Instant,
    /// How long it stays open.
    pub length: Duration,
}

impl Window<'_> {
    /// Whether the window is still open.
    pub fn is_open(&self) -> bool {
        self.start.elapsed() < self.length
    }
}

/// What a workload's timed window produced.
#[derive(Default)]
pub struct Measured {
    /// Units of work attempted (commands or trials; edits are added by
    /// the harness).
    pub attempted: u64,
    /// Of those, how many failed an output oracle.
    pub failed: u64,
    /// Facts printed and recorded, not scored.
    pub notes: Vec<(&'static str, Json)>,
    /// Traced runs only: the per-layer measurements.
    pub trace: Option<Trace>,
}

/// The per-layer measurements of a traced window.
pub struct Trace {
    /// Every span kept.
    pub log: SpanLog,
    /// Time, calls and allocations per layer.
    pub layers: Layers,
    /// The span `layers.unit_traced` times (`core.step` or `fleet.trial`).
    pub unit: &'static str,
    /// Total time of each of the unit's timed children (ns).
    pub children: Vec<f64>,
}

/// Runs one workload: timed set-ups (at least `SETUPS`, for at least
/// `SETUP_MIN_S`), each torn down before the next, then `measure` over
/// the window while the edit generator commits next to it; then the edit
/// oracles and the metrics. A traced window's unit is reconciled with
/// its children and its span set validated.
pub fn run_workload<S>(
    args: &Args,
    setup: impl Fn() -> Result<(S, EditService), String>,
    measure: impl FnOnce(&mut S, &Window<'_>, &mut EndToEnd) -> Measured,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(built.take());
        let t0 = Instant::now();
        let result = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        let failed = result.is_err();
        built = Some(result);
        if failed {
            break;
        }
    }
    let (mut state, edits) = match built.expect("at least one set-up") {
        Ok(built) => built,
        Err(e) => {
            outcome.setup_failures.push(e);
            outcome.attempted = 1;
            outcome.failed = 1;
            return outcome;
        }
    };

    let stop = AtomicBool::new(false);
    let window = Window {
        edits: &edits,
        start: Instant::now(),
        length: Duration::from_secs_f64(args.seconds),
    };
    let mut e2e = EndToEnd::new(setup_s, window.start, window.length);
    let (measured, summary) = std::thread::scope(|s| {
        let generator = s.spawn(|| edits.generate(args.seed, window.start, &stop));
        let measured = measure(&mut state, &window, &mut e2e);
        stop.store(true, Ordering::Release);
        (measured, generator.join().expect("edit generator panicked"))
    });

    outcome.attempted = measured.attempted + summary.stats.issued;
    outcome.failed = measured.failed + summary.stats.failed + summary.epoch_mismatches;
    outcome.notes = measured.notes;
    match measured.trace {
        Some(mut t) => {
            let unit_ns = t.layers.unit_traced.ns as f64;
            match spans::reconcile(t.unit, unit_ns, &t.children, RECONCILE_TOLERANCE)
                .and_then(|residual| spans::validate(t.log.spans()).map(|()| residual))
            {
                Ok(residual) => t.layers.residual_ns = residual,
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .notes
                        .push(("reconcile_error", Json::Str(e.to_string())));
                }
            }
            spans::write(&t.log, args, &mut outcome);
            outcome.metrics = metrics::per_layer(&t.layers, &summary);
        }
        None => {
            outcome.metrics = metrics::end_to_end(&e2e);
            for m in metrics::unscored(&e2e, &summary) {
                outcome.notes.push((m.name, Json::Num(m.value)));
            }
        }
    }
    outcome
}

/// Runs the benchmark from the command line. `counting_allocator` says
/// whether this binary installed [`alloc::CountingAlloc`]; only such a
/// binary may run traced.
pub fn main(counting_allocator: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <replay_cached|replay_sweep|study_live> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.trace != counting_allocator {
        eprintln!("perfbench: --trace 1 runs need perfbench_traced, --trace 0 runs perfbench");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        Workload::ReplayCached => replay::run(&args, true),
        Workload::ReplaySweep => replay::run(&args, false),
        Workload::StudyLive => study::run(&args),
    };

    let host = report::host(args.seed);
    let run = Json::obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ]);
    println!("host {host}");
    for m in &outcome.metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("{:<40} {:>16.4} {}{n}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.notes {
        println!("{name:<40} {value}");
    }
    println!(
        "{:<40} {:>16.6} ratio (failed {} of {} attempted)",
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.setup_failures {
        println!("setup failure: {failure}");
    }
    let name = format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    match report::write_json(&report::output_dir(), &name, &outcome.record(run, host)) {
        Ok(path) => println!("record {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the run record: {e}"),
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

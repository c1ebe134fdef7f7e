//! Results: metrics with units and sample counts, the host record, and
//! the output a run prints and writes.

use rabit_util::Json;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (percentiles, means), when it has any.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A metric with the sample count behind it.
    pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (commands or trials, plus rule edits).
    pub attempted: u64,
    /// Operations that failed an output oracle.
    pub failed: u64,
    /// Set-up oracle failures (variant pool, warm-up, reference path).
    pub setup_failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra named facts printed with the result but not scored.
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Whether every oracle held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.setup_failures.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each a value with its unit).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_compact()
    }

    /// The full record: result, sample counts, notes, host and run.
    pub fn record(&self, run: Json, host: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                        (
                            "samples",
                            m.samples.map_or(Json::Null, |n| Json::Num(n as f64)),
                        ),
                    ]),
                )
            })
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Json::obj([
            ("run", run),
            ("host", host),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "error_rate",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "setup_failures",
                Json::Arr(
                    self.setup_failures
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics)),
            ("notes", Json::Obj(notes)),
        ])
    }
}

/// The machine and build a result was measured on.
pub fn host(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("build_profile", Json::Str(profile.to_string())),
        (
            "rustc",
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        ("cpu_model", Json::Str(cpu)),
        ("git_commit", Json::Str(commit)),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where runs write their records and span files, under the build
/// directory of the checkout.
pub fn output_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    Path::new(&target).join("perfbench")
}

/// Writes `json` to `dir/name`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, json: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, json.to_pretty())?;
    Ok(path)
}

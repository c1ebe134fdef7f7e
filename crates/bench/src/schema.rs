//! The shared envelope for `BENCH_*.json` artifacts.
//!
//! Every benchmark binary that persists results writes one JSON file with
//! the same top-level shape, so downstream tooling (the README perf
//! table, the CI schema check) can consume any artifact without knowing
//! which bench produced it:
//!
//! ```json
//! {
//!   "name": "sweep",
//!   "config": { "quick_mode": false, "laps": 24 },
//!   "results": { "...": "bench-specific payload" }
//! }
//! ```
//!
//! * `name` — the bench binary's name (non-empty string);
//! * `config` — the knobs the run was configured with (object);
//! * `results` — the measured payload (object);
//! * `kind` — optional envelope kind. Absent or `"bench"` means the
//!   generic payload above; `"campaign"` marks a campaign-runner
//!   artifact, whose `results` must carry a `trials` array (objects
//!   with string `trial_id` and `status`) and a `summary` object with a
//!   numeric `done` count; `"service"` marks a rule-service churn
//!   artifact, whose `results` must carry numeric `tenants` (≥ 4),
//!   `commands_per_sec` (≥ [`SERVICE_MIN_CMDS_PER_SEC`] in full mode),
//!   `p50_check_latency_us` / `p99_check_latency_us`, and the broker
//!   backpressure counters (see `validate_service_results`); `"rad"`
//!   marks a streaming-mining artifact,
//!   whose `results` must carry the streaming throughput and drift
//!   fields (see `validate_rad_results`) and, in full mode, clear the
//!   [`RAD_MIN_COMMANDS`] / [`RAD_MIN_COMMANDS_PER_SEC`] floors.
//!   Unknown kinds are rejected.
//!
//! [`write_artifact`] builds and writes the envelope; [`validate`]
//! checks an already-parsed artifact (the `bench_schema` binary runs it
//! over every `BENCH_*.json` in the repository).

use rabit_util::Json;

/// Builds the `{name, config, results}` envelope.
pub fn envelope(name: &str, config: Json, results: Json) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("config", config),
        ("results", results),
    ])
}

/// Builds the envelope with an explicit `kind` tag.
pub fn envelope_with_kind(name: &str, kind: &str, config: Json, results: Json) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("kind", Json::Str(kind.to_string())),
        ("config", config),
        ("results", results),
    ])
}

/// Checks that `json` is a valid bench artifact envelope: a top-level
/// object carrying a non-empty string `name`, an object `config`, and an
/// object `results`. Extra top-level keys are allowed. When a `kind` tag
/// is present it is dispatched on: `"bench"` adds nothing, `"campaign"`
/// additionally validates the campaign payload, anything else fails.
///
/// Generic (non-campaign) artifacts named `"sweep"` are additionally
/// held to the sweep bench's regression contract — see
/// `validate_sweep_results` in this module.
pub fn validate(json: &Json) -> Result<(), String> {
    if json.as_obj().is_none() {
        return Err("top level is not an object".to_string());
    }
    match json.get("name").and_then(Json::as_str) {
        None => return Err("missing or non-string \"name\"".to_string()),
        Some("") => return Err("\"name\" is empty".to_string()),
        Some(_) => {}
    }
    for key in ["config", "results"] {
        match json.get(key) {
            None => return Err(format!("missing \"{key}\"")),
            Some(v) if v.as_obj().is_none() => return Err(format!("\"{key}\" is not an object")),
            Some(_) => {}
        }
    }
    let generic = match json.get("kind") {
        None => true,
        Some(kind) => match kind.as_str() {
            Some("bench") => true,
            Some("campaign") => {
                validate_campaign_results(json.get("results").unwrap_or(&Json::Null))?;
                false
            }
            Some("service") => {
                validate_service_results(
                    json.get("config").unwrap_or(&Json::Null),
                    json.get("results").unwrap_or(&Json::Null),
                )?;
                false
            }
            Some("rad") => {
                validate_rad_results(
                    json.get("config").unwrap_or(&Json::Null),
                    json.get("results").unwrap_or(&Json::Null),
                )?;
                false
            }
            Some(other) => return Err(format!("unknown envelope kind \"{other}\"")),
            None => return Err("\"kind\" is not a string".to_string()),
        },
    };
    if generic && json.get("name").and_then(Json::as_str) == Some("sweep") {
        validate_sweep_results(
            json.get("config").unwrap_or(&Json::Null),
            json.get("results").unwrap_or(&Json::Null),
        )?;
    }
    Ok(())
}

/// Minimum `wall_speedup` a full-mode (`quick_mode: false`) sweep
/// artifact must carry: the adaptive kernel must hold at least this
/// wall-clock advantage over dense sampling, or CI's schema check fails
/// the artifact as a performance regression. (The bench targets ≥2×;
/// the gate leaves headroom for noisy machines.)
pub const SWEEP_MIN_WALL_SPEEDUP: f64 = 1.5;

/// The sweep bench's regression contract, checked on every `"sweep"`
/// artifact CI sees:
///
/// * `results.dense` / `results.adaptive` are objects each carrying the
///   numeric kernel counters (`wall_seconds`, `samples_checked`,
///   `samples_skipped`, `distance_queries`);
/// * `results.wall_speedup` is numeric, and at least
///   [`SWEEP_MIN_WALL_SPEEDUP`] when `config.quick_mode` is `false`
///   (quick smoke runs measure too little wall time to gate on).
fn validate_sweep_results(config: &Json, results: &Json) -> Result<(), String> {
    const COUNTERS: [&str; 4] = [
        "wall_seconds",
        "samples_checked",
        "samples_skipped",
        "distance_queries",
    ];
    for mode in ["dense", "adaptive"] {
        let block = results
            .get(mode)
            .ok_or_else(|| format!("sweep artifact missing \"results.{mode}\""))?;
        if block.as_obj().is_none() {
            return Err(format!("\"results.{mode}\" is not an object"));
        }
        for key in COUNTERS {
            if block.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!(
                    "sweep \"results.{mode}\" missing numeric \"{key}\""
                ));
            }
        }
    }
    let speedup = results
        .get("wall_speedup")
        .and_then(Json::as_f64)
        .ok_or_else(|| "sweep artifact missing numeric \"results.wall_speedup\"".to_string())?;
    let quick = config.get("quick_mode").and_then(Json::as_bool);
    if quick == Some(false) && speedup < SWEEP_MIN_WALL_SPEEDUP {
        return Err(format!(
            "sweep wall_speedup {speedup:.3} below regression gate {SWEEP_MIN_WALL_SPEEDUP}"
        ));
    }
    Ok(())
}

/// Minimum tenant count a `"service"` artifact must report: the bench's
/// point is multi-tenant churn, so a run that exercised fewer labs than
/// this is not measuring the contended path.
pub const SERVICE_MIN_TENANTS: f64 = 4.0;

/// Minimum commit throughput (`commands_per_sec`) a full-mode
/// (`quick_mode: false`) `"service"` artifact must report. The sharded
/// broker with batched admission commits several million commands per
/// second on the reference machine; the floor sits at the ISSUE's
/// acceptance target — ~8× the old one-ticket-per-command broker's
/// 129k cmd/s — so CI fails any change that quietly reverts the
/// amortisation. (Quick smoke runs commit too few commands to gate on.)
pub const SERVICE_MIN_CMDS_PER_SEC: f64 = 1_000_000.0;

/// The rule-service payload shape: numeric `tenants` (at least
/// [`SERVICE_MIN_TENANTS`]), commit throughput `commands_per_sec` (at
/// least [`SERVICE_MIN_CMDS_PER_SEC`] in full mode), the p50/p99 of
/// per-command check latency under churn in microseconds, and the
/// broker's backpressure counters (`queue_depth_peak`, `shed_commands`,
/// `worker_parks`, `worker_steals`) proving the observability surface
/// is wired through.
fn validate_service_results(config: &Json, results: &Json) -> Result<(), String> {
    for key in [
        "tenants",
        "commands_per_sec",
        "p50_check_latency_us",
        "p99_check_latency_us",
        "queue_depth_peak",
        "shed_commands",
        "worker_parks",
        "worker_steals",
    ] {
        if results.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("service artifact missing numeric \"{key}\""));
        }
    }
    let tenants = results.get("tenants").and_then(Json::as_f64).unwrap();
    if tenants < SERVICE_MIN_TENANTS {
        return Err(format!(
            "service artifact ran {tenants} tenants, below the {SERVICE_MIN_TENANTS} multi-tenant floor"
        ));
    }
    if config.get("quick_mode").and_then(Json::as_bool) == Some(false) {
        let rate = results
            .get("commands_per_sec")
            .and_then(Json::as_f64)
            .unwrap();
        if rate < SERVICE_MIN_CMDS_PER_SEC {
            return Err(format!(
                "service throughput {rate:.0} cmd/s below the {SERVICE_MIN_CMDS_PER_SEC} regression floor"
            ));
        }
    }
    Ok(())
}

/// Minimum synthetic commands a full-mode `"rad"` artifact must have
/// streamed through the online miner: the bench's claim is
/// production-scale mining, and the ISSUE acceptance floor is 100M
/// commands in one pass.
pub const RAD_MIN_COMMANDS: f64 = 100_000_000.0;

/// Minimum streaming throughput (commands/second through generation +
/// online mining) a full-mode `"rad"` artifact must sustain. Set to
/// roughly a fifth of what the release build measures on the reference
/// machine, so the gate catches order-of-magnitude regressions (an
/// accidental corpus materialisation, a per-event allocation) without
/// flaking on noisy CI hosts.
pub const RAD_MIN_COMMANDS_PER_SEC: f64 = 2_000_000.0;

/// The streaming-mining payload shape, checked on every `"rad"`
/// artifact:
///
/// * numeric `commands`, `commands_per_sec`, `peak_live_bytes`,
///   `rules_mined`, the four drift-scoring fields
///   (`precision_before_drift` / `recall_before_drift` /
///   `precision_after_drift` / `recall_after_drift`), and the promotion
///   pair `promoted_epoch` / `fleet_rulebase_epoch`;
/// * `fleet_rulebase_epoch` is at least 1 and equals `promoted_epoch` —
///   the fleet really validated against the epoch the mined rules were
///   promoted into;
/// * in full mode (`config.quick_mode: false`), `commands` clears
///   [`RAD_MIN_COMMANDS`] and `commands_per_sec` clears
///   [`RAD_MIN_COMMANDS_PER_SEC`].
fn validate_rad_results(config: &Json, results: &Json) -> Result<(), String> {
    for key in [
        "commands",
        "commands_per_sec",
        "peak_live_bytes",
        "rules_mined",
        "precision_before_drift",
        "recall_before_drift",
        "precision_after_drift",
        "recall_after_drift",
        "promoted_epoch",
        "fleet_rulebase_epoch",
    ] {
        if results.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("rad artifact missing numeric \"{key}\""));
        }
    }
    let promoted = results
        .get("promoted_epoch")
        .and_then(Json::as_f64)
        .unwrap();
    let fleet = results
        .get("fleet_rulebase_epoch")
        .and_then(Json::as_f64)
        .unwrap();
    if fleet < 1.0 {
        return Err(format!(
            "rad artifact fleet_rulebase_epoch {fleet} never left the static epoch"
        ));
    }
    if fleet != promoted {
        return Err(format!(
            "rad artifact fleet_rulebase_epoch {fleet} != promoted_epoch {promoted}"
        ));
    }
    if config.get("quick_mode").and_then(Json::as_bool) == Some(false) {
        let commands = results.get("commands").and_then(Json::as_f64).unwrap();
        if commands < RAD_MIN_COMMANDS {
            return Err(format!(
                "rad artifact streamed {commands} commands, below the {RAD_MIN_COMMANDS} floor"
            ));
        }
        let rate = results
            .get("commands_per_sec")
            .and_then(Json::as_f64)
            .unwrap();
        if rate < RAD_MIN_COMMANDS_PER_SEC {
            return Err(format!(
                "rad artifact throughput {rate:.0} cmd/s below the {RAD_MIN_COMMANDS_PER_SEC} regression floor"
            ));
        }
    }
    Ok(())
}

/// The campaign-specific payload shape: `results.trials` is an array of
/// objects each carrying a string `trial_id` and `status`, and
/// `results.summary` is an object with a numeric `done`.
fn validate_campaign_results(results: &Json) -> Result<(), String> {
    let trials = match results.get("trials") {
        None => return Err("campaign artifact missing \"results.trials\"".to_string()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| "\"results.trials\" is not an array".to_string())?,
    };
    for (i, trial) in trials.iter().enumerate() {
        if trial.as_obj().is_none() {
            return Err(format!("trial entry {i} is not an object"));
        }
        for key in ["trial_id", "status"] {
            if trial.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("trial entry {i} missing string \"{key}\""));
            }
        }
    }
    let summary = results
        .get("summary")
        .ok_or_else(|| "campaign artifact missing \"results.summary\"".to_string())?;
    if summary.as_obj().is_none() {
        return Err("\"results.summary\" is not an object".to_string());
    }
    match summary.get("done").and_then(Json::as_f64) {
        None => Err("campaign summary missing numeric \"done\"".to_string()),
        Some(_) => Ok(()),
    }
}

/// Writes the enveloped artifact to `BENCH_<name>.json` in the current
/// directory and prints the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_artifact(name: &str, config: Json, results: Json) {
    write_envelope(name, envelope(name, config, results));
}

/// Writes a kind-tagged artifact to `BENCH_<name>.json` in the current
/// directory and prints the path.
///
/// # Panics
///
/// Panics if the envelope does not validate under its kind (a bench
/// bug) or the file cannot be written.
pub fn write_artifact_with_kind(name: &str, kind: &str, config: Json, results: Json) {
    let json = envelope_with_kind(name, kind, config, results);
    if let Err(err) = validate(&json) {
        panic!("artifact {name} invalid under kind {kind}: {err}");
    }
    write_envelope(name, json);
}

fn write_envelope(name: &str, json: Json) {
    debug_assert!(
        validate(&json).is_ok(),
        "write_artifact builds valid envelopes"
    );
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, json.to_pretty() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_and_validates() {
        let json = envelope(
            "demo",
            Json::obj([("quick_mode", Json::Bool(true))]),
            Json::obj([("speedup", Json::Num(5.0))]),
        );
        validate(&json).expect("fresh envelope is valid");
        let reparsed = Json::parse(&json.to_pretty()).expect("pretty output parses");
        validate(&reparsed).expect("round-tripped envelope is valid");
        assert_eq!(reparsed.get("name").and_then(Json::as_str), Some("demo"));
    }

    #[test]
    fn validate_rejects_malformed_artifacts() {
        let cases = [
            (Json::Num(3.0), "top level"),
            (Json::obj([("config", Json::obj([]))]), "name"),
            (
                Json::obj([("name", Json::Str("x".into())), ("config", Json::obj([]))]),
                "results",
            ),
            (
                Json::obj([
                    ("name", Json::Str("x".into())),
                    ("config", Json::Num(1.0)),
                    ("results", Json::obj([])),
                ]),
                "config",
            ),
            (
                Json::obj([
                    ("name", Json::Str("".into())),
                    ("config", Json::obj([])),
                    ("results", Json::obj([])),
                ]),
                "name",
            ),
        ];
        for (json, expect) in cases {
            let err = validate(&json).expect_err("malformed artifact must fail");
            assert!(
                err.contains(expect),
                "error {err:?} should mention {expect:?}"
            );
        }
    }

    fn campaign_results() -> Json {
        Json::obj([
            (
                "summary",
                Json::obj([("trials", Json::Num(2.0)), ("done", Json::Num(2.0))]),
            ),
            (
                "trials",
                Json::Arr(vec![
                    Json::obj([
                        ("trial_id", Json::Str("t0000-a".into())),
                        ("status", Json::Str("done".into())),
                    ]),
                    Json::obj([
                        ("trial_id", Json::Str("t0001-b".into())),
                        ("status", Json::Str("skipped".into())),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn campaign_kind_validates() {
        let json = envelope_with_kind(
            "detection_matrix",
            "campaign",
            Json::obj([]),
            campaign_results(),
        );
        validate(&json).expect("well-formed campaign artifact is valid");
        // `bench` kind and no kind at all stay generic.
        let plain = envelope_with_kind("demo", "bench", Json::obj([]), Json::obj([]));
        validate(&plain).expect("bench kind is the generic envelope");
    }

    #[test]
    fn campaign_kind_rejects_missing_trials() {
        let results = Json::obj([("summary", Json::obj([("done", Json::Num(0.0))]))]);
        let json = envelope_with_kind("c", "campaign", Json::obj([]), results);
        let err = validate(&json).unwrap_err();
        assert!(err.contains("results.trials"), "{err}");
    }

    #[test]
    fn campaign_kind_rejects_wrong_types() {
        // trials is not an array
        let results = Json::obj([
            ("summary", Json::obj([("done", Json::Num(0.0))])),
            ("trials", Json::Str("many".into())),
        ]);
        let json = envelope_with_kind("c", "campaign", Json::obj([]), results);
        assert!(validate(&json).unwrap_err().contains("not an array"));
        // a trial entry missing its status string
        let results = Json::obj([
            ("summary", Json::obj([("done", Json::Num(1.0))])),
            (
                "trials",
                Json::Arr(vec![Json::obj([
                    ("trial_id", Json::Str("t0000-a".into())),
                    ("status", Json::Num(1.0)),
                ])]),
            ),
        ]);
        let json = envelope_with_kind("c", "campaign", Json::obj([]), results);
        assert!(validate(&json).unwrap_err().contains("status"));
        // summary.done is not numeric
        let results = Json::obj([
            ("summary", Json::obj([("done", Json::Str("two".into()))])),
            ("trials", Json::Arr(vec![])),
        ]);
        let json = envelope_with_kind("c", "campaign", Json::obj([]), results);
        assert!(validate(&json).unwrap_err().contains("done"));
    }

    fn sweep_mode_block(wall: f64) -> Json {
        Json::obj([
            ("wall_seconds", Json::Num(wall)),
            ("samples_checked", Json::Num(100.0)),
            ("samples_skipped", Json::Num(50.0)),
            ("distance_queries", Json::Num(40.0)),
        ])
    }

    fn sweep_envelope(quick: bool, speedup: f64) -> Json {
        envelope(
            "sweep",
            Json::obj([("quick_mode", Json::Bool(quick))]),
            Json::obj([
                ("dense", sweep_mode_block(2.0)),
                ("adaptive", sweep_mode_block(2.0 / speedup)),
                ("wall_speedup", Json::Num(speedup)),
            ]),
        )
    }

    #[test]
    fn sweep_gate_accepts_fast_full_runs() {
        validate(&sweep_envelope(false, 2.1)).expect("2.1x full run passes the gate");
        validate(&sweep_envelope(true, 1.0)).expect("quick runs are not gated on speedup");
    }

    #[test]
    fn sweep_gate_rejects_regressed_full_runs() {
        let err = validate(&sweep_envelope(false, 1.01)).unwrap_err();
        assert!(err.contains("regression gate"), "{err}");
    }

    #[test]
    fn sweep_gate_requires_counter_fields() {
        // A mode block lacking the distance-query counter fails.
        let mut stale = sweep_mode_block(1.0);
        if let Json::Obj(pairs) = &mut stale {
            pairs.retain(|(k, _)| k != "distance_queries");
        }
        let json = envelope(
            "sweep",
            Json::obj([("quick_mode", Json::Bool(true))]),
            Json::obj([
                ("dense", sweep_mode_block(2.0)),
                ("adaptive", stale),
                ("wall_speedup", Json::Num(2.0)),
            ]),
        );
        let err = validate(&json).unwrap_err();
        assert!(err.contains("distance_queries"), "{err}");
        // A missing mode block fails too.
        let json = envelope(
            "sweep",
            Json::obj([]),
            Json::obj([
                ("dense", sweep_mode_block(2.0)),
                ("wall_speedup", Json::Num(2.0)),
            ]),
        );
        let err = validate(&json).unwrap_err();
        assert!(err.contains("results.adaptive"), "{err}");
        // wall_speedup must be present and numeric.
        let json = envelope(
            "sweep",
            Json::obj([]),
            Json::obj([
                ("dense", sweep_mode_block(2.0)),
                ("adaptive", sweep_mode_block(1.0)),
            ]),
        );
        let err = validate(&json).unwrap_err();
        assert!(err.contains("wall_speedup"), "{err}");
    }

    fn service_results(tenants: f64) -> Json {
        service_results_at(tenants, 2_500_000.0)
    }

    fn service_results_at(tenants: f64, rate: f64) -> Json {
        Json::obj([
            ("tenants", Json::Num(tenants)),
            ("commands_per_sec", Json::Num(rate)),
            ("p50_check_latency_us", Json::Num(0.12)),
            ("p99_check_latency_us", Json::Num(0.31)),
            ("queue_depth_peak", Json::Num(160.0)),
            ("shed_commands", Json::Num(17.0)),
            ("worker_parks", Json::Num(42.0)),
            ("worker_steals", Json::Num(3.0)),
        ])
    }

    fn service_envelope(quick: bool, results: Json) -> Json {
        envelope_with_kind(
            "service",
            "service",
            Json::obj([("quick_mode", Json::Bool(quick))]),
            results,
        )
    }

    #[test]
    fn service_kind_validates() {
        let json = envelope_with_kind("service", "service", Json::obj([]), service_results(4.0));
        validate(&json).expect("well-formed service artifact is valid");
    }

    #[test]
    fn service_kind_enforces_the_full_mode_throughput_floor() {
        // The old one-ticket-per-command broker's 129k cmd/s must now
        // fail a full-mode artifact...
        let err =
            validate(&service_envelope(false, service_results_at(6.0, 129_241.0))).unwrap_err();
        assert!(err.contains("regression floor"), "{err}");
        // ...while quick smoke runs are exempt from the floor...
        validate(&service_envelope(true, service_results_at(6.0, 129_241.0)))
            .expect("quick runs are not gated on throughput");
        // ...and a batched full run clears it.
        validate(&service_envelope(
            false,
            service_results_at(6.0, 2_500_000.0),
        ))
        .expect("wire-speed full run passes the floor");
    }

    #[test]
    fn service_kind_rejects_missing_or_non_numeric_fields() {
        for key in [
            "tenants",
            "commands_per_sec",
            "p50_check_latency_us",
            "p99_check_latency_us",
            "queue_depth_peak",
            "shed_commands",
            "worker_parks",
            "worker_steals",
        ] {
            let mut results = service_results(4.0);
            if let Json::Obj(pairs) = &mut results {
                pairs.retain(|(k, _)| k != key);
            }
            let json = envelope_with_kind("service", "service", Json::obj([]), results);
            let err = validate(&json).unwrap_err();
            assert!(err.contains(key), "error {err:?} should mention {key:?}");
            let mut results = service_results(4.0);
            if let Json::Obj(pairs) = &mut results {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = Json::Str("fast".into());
                    }
                }
            }
            let json = envelope_with_kind("service", "service", Json::obj([]), results);
            assert!(validate(&json).unwrap_err().contains(key));
        }
    }

    #[test]
    fn service_kind_enforces_the_tenant_floor() {
        let json = envelope_with_kind("service", "service", Json::obj([]), service_results(2.0));
        let err = validate(&json).unwrap_err();
        assert!(err.contains("multi-tenant floor"), "{err}");
        let json = envelope_with_kind("service", "service", Json::obj([]), service_results(8.0));
        validate(&json).expect("more tenants than the floor is fine");
    }

    fn rad_results(commands: f64, rate: f64) -> Json {
        Json::obj([
            ("commands", Json::Num(commands)),
            ("commands_per_sec", Json::Num(rate)),
            ("peak_live_bytes", Json::Num(65_536.0)),
            ("rules_mined", Json::Num(3.0)),
            ("precision_before_drift", Json::Num(1.0)),
            ("recall_before_drift", Json::Num(1.0)),
            ("precision_after_drift", Json::Num(1.0)),
            ("recall_after_drift", Json::Num(1.0)),
            ("promoted_epoch", Json::Num(3.0)),
            ("fleet_rulebase_epoch", Json::Num(3.0)),
        ])
    }

    fn rad_envelope(quick: bool, results: Json) -> Json {
        envelope_with_kind(
            "rad",
            "rad",
            Json::obj([("quick_mode", Json::Bool(quick))]),
            results,
        )
    }

    #[test]
    fn rad_kind_validates() {
        let full = rad_envelope(false, rad_results(150_000_000.0, 5_000_000.0));
        validate(&full).expect("fast full run passes the floors");
        // Quick smoke runs stream far less and are not gated on volume.
        let quick = rad_envelope(true, rad_results(200_000.0, 100_000.0));
        validate(&quick).expect("quick runs skip the throughput floors");
    }

    #[test]
    fn rad_kind_rejects_missing_or_non_numeric_fields() {
        for key in [
            "commands",
            "commands_per_sec",
            "peak_live_bytes",
            "rules_mined",
            "precision_after_drift",
            "promoted_epoch",
            "fleet_rulebase_epoch",
        ] {
            let mut results = rad_results(150_000_000.0, 5_000_000.0);
            if let Json::Obj(pairs) = &mut results {
                pairs.retain(|(k, _)| k != key);
            }
            let err = validate(&rad_envelope(false, results)).unwrap_err();
            assert!(err.contains(key), "error {err:?} should mention {key:?}");
        }
    }

    #[test]
    fn rad_kind_enforces_the_full_mode_floors() {
        let err =
            validate(&rad_envelope(false, rad_results(1_000_000.0, 5_000_000.0))).unwrap_err();
        assert!(err.contains("floor"), "{err}");
        let err = validate(&rad_envelope(false, rad_results(150_000_000.0, 10_000.0))).unwrap_err();
        assert!(err.contains("regression floor"), "{err}");
    }

    #[test]
    fn rad_kind_requires_the_fleet_to_see_the_promoted_epoch() {
        let mut results = rad_results(150_000_000.0, 5_000_000.0);
        if let Json::Obj(pairs) = &mut results {
            for (k, v) in pairs.iter_mut() {
                if k == "fleet_rulebase_epoch" {
                    *v = Json::Num(0.0);
                }
            }
        }
        let err = validate(&rad_envelope(true, results)).unwrap_err();
        assert!(err.contains("static epoch"), "{err}");
        let mut results = rad_results(150_000_000.0, 5_000_000.0);
        if let Json::Obj(pairs) = &mut results {
            for (k, v) in pairs.iter_mut() {
                if k == "fleet_rulebase_epoch" {
                    *v = Json::Num(2.0);
                }
            }
        }
        let err = validate(&rad_envelope(true, results)).unwrap_err();
        assert!(err.contains("promoted_epoch"), "{err}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let json = envelope_with_kind("c", "telemetry", Json::obj([]), Json::obj([]));
        let err = validate(&json).unwrap_err();
        assert!(err.contains("unknown envelope kind"), "{err}");
        let mut bad = envelope("c", Json::obj([]), Json::obj([]));
        if let Json::Obj(pairs) = &mut bad {
            pairs.push(("kind".to_string(), Json::Num(7.0)));
        }
        assert!(validate(&bad).unwrap_err().contains("kind"));
    }
}

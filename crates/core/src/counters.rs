//! The one per-run counters value: runs report the delta between two
//! snapshots ([`RunCounters::since`]); fleets, campaigns and benches add
//! runs up with [`RunCounters::merge`].

use crate::faults::RecoveryCounters;
use crate::lab::Lab;
use crate::trajcheck::SweepStats;
use rabit_util::json::field;
use rabit_util::{FromJson, Json, JsonError, ToJson};

/// What a run (or, merged, many runs) cost and survived: verdict-cache,
/// sweep and narrow-phase work, faults injected and recovery activity.
/// Counters of a part the run lacks (no validator, no fault plan, no
/// recovery policy) stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounters {
    /// Trajectory validations served from the verdict cache.
    pub cache_hits: u64,
    /// Trajectory validations that missed the verdict cache.
    pub cache_misses: u64,
    /// Narrow-phase collision tests the validator performed.
    pub narrow_checks: u64,
    /// Faults the lab's armed fault session injected.
    pub faults_injected: u64,
    /// The validator's sweep-kernel work.
    pub sweep: SweepStats,
    /// Retries, recoveries, quarantines and safe-stops.
    pub recovery: RecoveryCounters,
}

impl RunCounters {
    /// The counters a lab keeps by itself: faults injected so far. The
    /// engine-side counters are zero (pass-through and unchecked runs
    /// have no engine).
    pub fn of_lab(lab: &Lab) -> RunCounters {
        RunCounters {
            faults_injected: lab.fault_stats().total_injected(),
            ..RunCounters::default()
        }
    }

    /// Componentwise difference `self − earlier`: the work done between
    /// two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &RunCounters) -> RunCounters {
        RunCounters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            narrow_checks: self.narrow_checks - earlier.narrow_checks,
            faults_injected: self.faults_injected - earlier.faults_injected,
            sweep: self.sweep.since(&earlier.sweep),
            recovery: self.recovery.since(&earlier.recovery),
        }
    }

    /// Adds `other` into `self`, componentwise.
    pub fn merge(&mut self, other: &RunCounters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.narrow_checks += other.narrow_checks;
        self.faults_injected += other.faults_injected;
        self.sweep.merge(&other.sweep);
        self.recovery.merge(&other.recovery);
    }

    /// Fraction of trajectory validations served from the verdict cache,
    /// `hits / (hits + misses)`, or `None` if no validation happened.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Fraction of trajectory grid samples the adaptive sweep kernel
    /// skipped, `skipped / (checked + skipped)`, or `None` if the
    /// validator processed no samples.
    pub fn skip_rate(&self) -> Option<f64> {
        let total = self.sweep.samples_checked + self.sweep.samples_skipped;
        (total > 0).then(|| self.sweep.samples_skipped as f64 / total as f64)
    }
}

impl ToJson for RunCounters {
    fn to_json(&self) -> Json {
        let (s, r) = (&self.sweep, &self.recovery);
        Json::obj([
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("narrow_checks", self.narrow_checks.to_json()),
            ("faults_injected", self.faults_injected.to_json()),
            ("samples_checked", s.samples_checked.to_json()),
            ("samples_skipped", s.samples_skipped.to_json()),
            ("distance_queries", s.distance_queries.to_json()),
            ("retries", r.retries.to_json()),
            ("recovered", r.recovered.to_json()),
            ("quarantined", r.quarantined.to_json()),
            ("skipped_quarantined", r.skipped_quarantined.to_json()),
            ("safe_stops", r.safe_stops.to_json()),
        ])
    }
}

impl FromJson for RunCounters {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RunCounters {
            cache_hits: field(json, "cache_hits")?,
            cache_misses: field(json, "cache_misses")?,
            narrow_checks: field(json, "narrow_checks")?,
            faults_injected: field(json, "faults_injected")?,
            sweep: SweepStats {
                samples_checked: field(json, "samples_checked")?,
                samples_skipped: field(json, "samples_skipped")?,
                distance_queries: field(json, "distance_queries")?,
                ..SweepStats::default()
            },
            recovery: RecoveryCounters {
                retries: field(json, "retries")?,
                recovered: field(json, "recovered")?,
                quarantined: field(json, "quarantined")?,
                skipped_quarantined: field(json, "skipped_quarantined")?,
                safe_stops: field(json, "safe_stops")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_since_rates_and_json_agree() {
        let part = RunCounters {
            cache_hits: 4,
            cache_misses: 2,
            narrow_checks: 30,
            faults_injected: 1,
            sweep: SweepStats {
                samples_checked: 120,
                samples_skipped: 80,
                distance_queries: 16,
                ..SweepStats::default()
            },
            recovery: RecoveryCounters {
                retries: 3,
                skipped_quarantined: 5,
                ..RecoveryCounters::default()
            },
        };
        let mut total = part;
        total.merge(&part);
        assert_eq!(total.since(&part), part);
        assert_eq!(total.recovery.skipped_quarantined, 10);
        assert_eq!(total.cache_hit_rate(), Some(4.0 / 6.0));
        assert_eq!(total.skip_rate(), Some(0.4));
        assert_eq!(RunCounters::default().cache_hit_rate(), None);
        assert_eq!(RunCounters::default().skip_rate(), None);
        assert_eq!(RunCounters::from_json(&total.to_json()), Ok(total));
    }
}

//! Spans recorded around calls into each layer, their self-time rollup,
//! and the reconciliation of children against their parent.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the index of its parent span, and the id of the command (or
//! trial) it belongs to. Most children nest inside their parent's
//! interval. *Replica* children do not: they time the same call on the
//! step's exact inputs (or on a shadow lab driven in lockstep) right
//! after the parent ends, because the engine exposes no hook inside
//! `Rabit::step`. Self time therefore subtracts children by duration,
//! not by interval coverage, and reconciliation checks durations.

use crate::report::{output_dir, write_json, Outcome};
use crate::Args;
use rabit_util::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.step`, `sim.validate`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// The command (replays) or trial (study) the span belongs to.
    pub cmd: u64,
    /// Timed on a replica of the parent's inputs rather than nested in
    /// the parent's interval.
    pub replica: bool,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Why a span set or a set of layer totals does not reconcile.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanError {
    /// A span ends before it starts.
    Reversed(usize),
    /// A span names a parent that is missing or recorded after it.
    BadParent(usize),
    /// A nested (non-replica) child lies outside its parent's interval.
    Escapes(usize),
    /// Children take longer than their parent beyond the tolerance.
    ChildrenExceedParent {
        /// The parent layer.
        parent: String,
        /// Total parent time (ns).
        parent_ns: f64,
        /// Total child time (ns).
        children_ns: f64,
    },
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::Reversed(i) => write!(f, "span {i} ends before it starts"),
            SpanError::BadParent(i) => write!(f, "span {i} has a missing or later parent"),
            SpanError::Escapes(i) => write!(f, "span {i} lies outside its parent"),
            SpanError::ChildrenExceedParent {
                parent,
                parent_ns,
                children_ns,
            } => write!(
                f,
                "children of {parent} take {children_ns:.0} ns, more than its {parent_ns:.0} ns"
            ),
        }
    }
}

/// Share of the parent's time by which its children may exceed it
/// before reconciliation fails (each child pays its own timer reads).
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// The parent's time not covered by its children (`parent − Σ children`),
/// or an error when the children exceed the parent by more than
/// `tolerance` of its time.
pub fn reconcile(
    parent: &str,
    parent_ns: f64,
    children_ns: &[f64],
    tolerance: f64,
) -> Result<f64, SpanError> {
    let children: f64 = children_ns.iter().sum();
    let residual = parent_ns - children;
    if residual < -tolerance * parent_ns {
        return Err(SpanError::ChildrenExceedParent {
            parent: parent.to_string(),
            parent_ns,
            children_ns: children,
        });
    }
    Ok(residual)
}

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    /// Spans with this name.
    pub count: u64,
    /// Their total duration (ns).
    pub total_ns: u64,
    /// Their total duration minus their children's (ns, may be
    /// negative within the reconciliation tolerance).
    pub self_ns: i64,
}

/// A bounded in-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log keeping at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Nanoseconds from the log's epoch to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether `n` more spans fit. Callers record a parent and all its
    /// children or none of them, so no child loses its parent.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.capacity
    }

    /// Counts `n` spans that did not fit.
    pub fn drop_spans(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Appends a span timed by two instants and returns its index.
    pub fn push_timed(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cmd: u64,
        replica: bool,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            cmd,
            replica,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Checks a span set's structure and that, per parent name, children
/// take no longer than their parents (within [`RECONCILE_TOLERANCE`]).
pub fn validate(spans: &[Span]) -> Result<(), SpanError> {
    let mut parent_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut children_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(SpanError::Reversed(i));
        }
        let Some(p) = span.parent else { continue };
        if p >= i {
            return Err(SpanError::BadParent(i));
        }
        let parent = &spans[p];
        if !span.replica && (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
            return Err(SpanError::Escapes(i));
        }
        *children_ns.entry(parent.name).or_default() += span.duration_ns() as f64;
    }
    for span in spans {
        if children_ns.contains_key(span.name) {
            *parent_ns.entry(span.name).or_default() += span.duration_ns() as f64;
        }
    }
    for (name, children) in children_ns {
        reconcile(name, parent_ns[name], &[children], RECONCILE_TOLERANCE)?;
    }
    Ok(())
}

/// Count, total and self time per span name.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_time[p] += span.duration_ns();
        }
    }
    for (span, children) in spans.iter().zip(child_time) {
        let r = out.entry(span.name).or_default();
        r.count += 1;
        r.total_ns += span.duration_ns();
        r.self_ns += span.duration_ns() as i64 - children as i64;
    }
    out
}

/// The span log as JSON: every span, the per-name rollup, and how many
/// spans did not fit.
pub fn to_json(log: &SpanLog) -> Json {
    let spans = log
        .spans()
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("cmd", Json::Num(s.cmd as f64)),
                ("replica", Json::Bool(s.replica)),
            ])
        })
        .collect();
    let rollup = rollup(log.spans())
        .into_iter()
        .map(|(name, r)| {
            (
                name.to_string(),
                Json::obj([
                    ("count", Json::Num(r.count as f64)),
                    ("total_ns", Json::Num(r.total_ns as f64)),
                    ("self_ns", Json::Num(r.self_ns as f64)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("spans", Json::Arr(spans)),
        ("rollup", Json::Obj(rollup)),
        ("dropped", Json::Num(log.dropped() as f64)),
    ])
}

/// Writes the span log next to the run record and notes its path.
pub fn write(log: &SpanLog, args: &Args, outcome: &mut Outcome) {
    let name = format!("spans-{}-seed{}.json", args.workload.name(), args.seed);
    match write_json(&output_dir(), &name, &to_json(log)) {
        Ok(path) => outcome
            .notes
            .push(("span_file", Json::Str(path.display().to_string()))),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

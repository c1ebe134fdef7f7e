//! Span validation, self-time rollup and reconciliation.

use rabit_perfbench::spans::{reconcile, rollup, validate, Span, SpanError, RECONCILE_TOLERANCE};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, replica: bool) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        cmd: 0,
        replica,
    }
}

/// A step of 1000 ns: a nested validate, and two replicas after it.
fn step() -> Vec<Span> {
    vec![
        span("core.step", 0, 1_000, None, false),
        span("sim.validate", 100, 400, Some(0), false),
        span("rulebase.check", 1_010, 1_110, Some(0), true),
        span("core.fetch_state", 1_120, 1_320, Some(0), true),
    ]
}

#[test]
fn a_consistent_step_validates_and_rolls_up() {
    let spans = step();
    assert_eq!(validate(&spans), Ok(()));
    let r = rollup(&spans);
    assert_eq!(r["core.step"].total_ns, 1_000);
    assert_eq!(r["core.step"].self_ns, 1_000 - 300 - 100 - 200);
    assert_eq!(r["sim.validate"].self_ns, 300);
    assert_eq!(r["rulebase.check"].count, 1);
}

#[test]
fn children_exceeding_their_parent_are_rejected() {
    let mut spans = step();
    // The fetch replica now takes 900 ns: children sum to 1300 ns > 1000.
    spans[3] = span("core.fetch_state", 1_120, 2_020, Some(0), true);
    match validate(&spans) {
        Err(SpanError::ChildrenExceedParent {
            parent,
            parent_ns,
            children_ns,
        }) => {
            assert_eq!(parent, "core.step");
            assert_eq!(parent_ns, 1_000.0);
            assert_eq!(children_ns, 1_300.0);
        }
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn a_small_overshoot_within_tolerance_reconciles() {
    let mut spans = step();
    // Children sum to 1030 ns: 3% over, inside the 5% tolerance.
    spans[3] = span("core.fetch_state", 1_120, 1_550, Some(0), true);
    assert_eq!(validate(&spans), Ok(()));
}

#[test]
fn a_nested_child_outside_its_parent_is_rejected() {
    let mut spans = step();
    spans[1] = span("sim.validate", 900, 1_100, Some(0), false);
    assert_eq!(validate(&spans), Err(SpanError::Escapes(1)));
}

#[test]
fn malformed_spans_are_rejected() {
    let mut reversed = step();
    reversed[2] = span("rulebase.check", 1_110, 1_010, Some(0), true);
    assert_eq!(validate(&reversed), Err(SpanError::Reversed(2)));
    let mut forward = step();
    forward[0].parent = Some(1);
    assert_eq!(validate(&forward), Err(SpanError::BadParent(0)));
}

#[test]
fn reconcile_returns_the_residual() {
    let residual = reconcile(
        "core.step",
        6_000.0,
        &[300.0, 900.0, 1_700.0],
        RECONCILE_TOLERANCE,
    )
    .expect("children fit");
    assert_eq!(residual, 3_100.0);
    assert!(reconcile("core.step", 1_000.0, &[1_100.0], RECONCILE_TOLERANCE).is_err());
}

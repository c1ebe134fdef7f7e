//! The rulebase: the complete set of rules RABIT evaluates per command.

use crate::catalog::DeviceCatalog;
use crate::custom::hein_custom_rules;
use crate::general::general_rules;
use crate::rule::{ActorClass, Rule, RuleCtx, RuleId, Violation, Violations};
use rabit_devices::{ActionClass, Command, LabState};

/// Dispatch index: for every action class, the indices of the rules
/// whose [`RuleSignature`](crate::RuleSignature) admits it, in
/// evaluation order. Built once per rulebase mutation, so `check` visits
/// only the rules that can possibly fire on a command instead of the
/// whole rulebase.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    buckets: [Vec<u32>; ActionClass::COUNT],
}

impl RuleIndex {
    fn build(rules: &[Rule], enabled: &[bool]) -> Self {
        let mut index = RuleIndex::default();
        index.rebuild(rules, enabled);
        index
    }

    /// Rebuilds in place, reusing the bucket allocations. Under the rule
    /// service every commit reindexes, so at service throughput this
    /// runs millions of times per second — clearing `Vec`s instead of
    /// reallocating the whole bucket array keeps it off the heap.
    fn rebuild(&mut self, rules: &[Rule], enabled: &[bool]) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, rule) in rules.iter().enumerate() {
            if !enabled[i] {
                continue;
            }
            for class in rule.signature().action_classes() {
                self.buckets[class.index()].push(i as u32);
            }
        }
    }

    #[inline]
    fn bucket(&self, class: ActionClass) -> &[u32] {
        &self.buckets[class.index()]
    }
}

/// A collection of rules evaluated against every intercepted command.
///
/// # Example
///
/// ```
/// use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase};
/// use rabit_devices::{ActionKind, Command, DeviceType, LabState};
///
/// let catalog = DeviceCatalog::new()
///     .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
///     .with(DeviceMeta::new("arm", DeviceType::RobotArm));
/// let rulebase = Rulebase::standard();
/// let cmd = Command::new("arm", ActionKind::MoveInsideDevice { device: "doser".into() });
/// // No door state recorded → conservatively unsafe.
/// let violations = rulebase.check(&cmd, &LabState::new(), &catalog);
/// assert!(!violations.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rulebase {
    rules: Vec<Rule>,
    /// Parallel to `rules`: whether each rule participates in checks.
    /// Disabled rules stay in the table (they keep their id, description
    /// and position for re-enablement) but are excluded from the
    /// dispatch index and from the linear reference paths alike.
    enabled: Vec<bool>,
    index: RuleIndex,
}

impl Rulebase {
    /// An empty rulebase (detects nothing).
    pub fn new() -> Self {
        Rulebase::default()
    }

    /// The standard rulebase: the 11 general rules of Table III.
    pub fn standard() -> Self {
        Rulebase::from_rules(general_rules())
    }

    /// The Hein-Lab rulebase: general rules plus the 4 custom rules of
    /// Table IV.
    pub fn hein_lab() -> Self {
        let mut rb = Rulebase::standard();
        rb.extend(hein_custom_rules());
        rb
    }

    fn from_rules(rules: Vec<Rule>) -> Self {
        let enabled = vec![true; rules.len()];
        let index = RuleIndex::build(&rules, &enabled);
        Rulebase {
            rules,
            enabled,
            index,
        }
    }

    fn reindex(&mut self) {
        self.index.rebuild(&self.rules, &self.enabled);
    }

    /// Adds one rule (builder style).
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.push(rule);
        self
    }

    /// Adds one rule (enabled).
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.enabled.push(true);
        self.reindex();
    }

    /// Adds many rules (enabled).
    pub fn extend(&mut self, rules: impl IntoIterator<Item = Rule>) {
        self.rules.extend(rules);
        self.enabled.resize(self.rules.len(), true);
        self.reindex();
    }

    /// Removes the rule with the given id, returning `true` if found.
    pub fn remove(&mut self, id: &RuleId) -> bool {
        let Some(pos) = self.position(id) else {
            return false;
        };
        self.rules.remove(pos);
        self.enabled.remove(pos);
        self.reindex();
        true
    }

    fn position(&self, id: &RuleId) -> Option<usize> {
        self.rules.iter().position(|r| r.id() == id)
    }

    /// The rule with the given id, if present (enabled or not).
    pub fn rule(&self, id: &RuleId) -> Option<&Rule> {
        self.position(id).map(|i| &self.rules[i])
    }

    /// Replaces the rule with the given id in place (same evaluation
    /// position, enablement preserved), returning `true` if found. The
    /// replacement keeps its own id — callers may rename a rule this
    /// way, but the lookup key is `id` as stored today.
    pub fn update(&mut self, id: &RuleId, rule: Rule) -> bool {
        let Some(pos) = self.position(id) else {
            return false;
        };
        self.rules[pos] = rule;
        self.reindex();
        true
    }

    /// Enables or disables the rule with the given id, returning `true`
    /// if found. Disabled rules stop firing on the next check.
    pub fn set_enabled(&mut self, id: &RuleId, enabled: bool) -> bool {
        let Some(pos) = self.position(id) else {
            return false;
        };
        if self.enabled[pos] != enabled {
            self.enabled[pos] = enabled;
            self.reindex();
        }
        true
    }

    /// Whether the rule with the given id is enabled (`None` if absent).
    pub fn is_enabled(&self, id: &RuleId) -> Option<bool> {
        self.position(id).map(|i| self.enabled[i])
    }

    /// The rules, in evaluation order (including disabled rules).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules, including disabled ones.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Number of enabled rules.
    pub fn enabled_count(&self) -> usize {
        self.enabled.iter().filter(|&&e| e).count()
    }

    /// Returns `true` if the rulebase has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates the rules whose signature admits this command; returns
    /// all violations. An empty result is the algorithm's
    /// `Valid(S_current, a_next)`. Allocation-free for up to four
    /// violations (see [`Violations`]).
    pub fn check(
        &self,
        command: &Command,
        state: &LabState,
        catalog: &DeviceCatalog,
    ) -> Violations {
        let mut out = Violations::new();
        self.check_into(command, state, catalog, &mut out);
        out
    }

    /// Like [`Rulebase::check`] but fills a caller-owned buffer, so a
    /// per-command loop can reuse one `Violations` (and its spill
    /// capacity) across iterations. Clears `out` first.
    pub fn check_into(
        &self,
        command: &Command,
        state: &LabState,
        catalog: &DeviceCatalog,
        out: &mut Violations,
    ) {
        out.clear();
        let ctx = RuleCtx { catalog };
        let actor = catalog.device_type(&command.actor).map(ActorClass::of);
        for &i in self.index.bucket(command.action.class()) {
            let rule = &self.rules[i as usize];
            if !rule.signature().matches_actor(actor) {
                continue;
            }
            if let Some(v) = rule.check(command, state, &ctx) {
                out.push(v);
            }
        }
    }

    /// Reference path: evaluates **every** rule linearly, ignoring the
    /// dispatch index. Used by benches and differential tests to pin the
    /// indexed path against the pre-index semantics.
    pub fn check_linear(
        &self,
        command: &Command,
        state: &LabState,
        catalog: &DeviceCatalog,
    ) -> Vec<Violation> {
        let ctx = RuleCtx { catalog };
        self.rules
            .iter()
            .zip(&self.enabled)
            .filter(|(_, &enabled)| enabled)
            .filter_map(|(rule, _)| rule.check(command, state, &ctx))
            .collect()
    }

    /// Starts a batched mutation session: the same mutators as the
    /// direct methods, but dispatch-index maintenance is deferred to
    /// one rebuild when the guard drops. The rule service applies
    /// hundreds of commands per copy-on-write commit; reindexing once
    /// per commit instead of once per op is most of its wire-speed
    /// budget. The guard holds `&mut self`, so the stale index is
    /// unobservable — no check can run until the guard is gone.
    pub fn batch_edit(&mut self) -> BatchEdit<'_> {
        BatchEdit {
            rulebase: self,
            dirty: false,
        }
    }
}

/// A batched mutation session over a [`Rulebase`] — see
/// [`Rulebase::batch_edit`]. Dropping the guard rebuilds the dispatch
/// index once (only if a mutation actually changed anything).
#[derive(Debug)]
pub struct BatchEdit<'a> {
    rulebase: &'a mut Rulebase,
    dirty: bool,
}

impl BatchEdit<'_> {
    /// The rule with the given id, if present (enabled or not).
    pub fn rule(&self, id: &RuleId) -> Option<&Rule> {
        self.rulebase.rule(id)
    }

    /// Whether the rule with the given id is enabled (`None` if absent).
    pub fn is_enabled(&self, id: &RuleId) -> Option<bool> {
        self.rulebase.is_enabled(id)
    }

    /// Adds one rule (enabled); index rebuild deferred.
    pub fn push(&mut self, rule: Rule) {
        self.rulebase.rules.push(rule);
        self.rulebase.enabled.push(true);
        self.dirty = true;
    }

    /// Removes the rule with the given id, returning `true` if found;
    /// index rebuild deferred.
    pub fn remove(&mut self, id: &RuleId) -> bool {
        let Some(pos) = self.rulebase.position(id) else {
            return false;
        };
        self.rulebase.rules.remove(pos);
        self.rulebase.enabled.remove(pos);
        self.dirty = true;
        true
    }

    /// Replaces the rule with the given id in place, returning `true`
    /// if found; index rebuild deferred.
    pub fn update(&mut self, id: &RuleId, rule: Rule) -> bool {
        let Some(pos) = self.rulebase.position(id) else {
            return false;
        };
        self.rulebase.rules[pos] = rule;
        self.dirty = true;
        true
    }

    /// Enables or disables the rule with the given id, returning `true`
    /// if found; index rebuild deferred (and skipped when nothing
    /// actually flips).
    pub fn set_enabled(&mut self, id: &RuleId, enabled: bool) -> bool {
        let Some(pos) = self.rulebase.position(id) else {
            return false;
        };
        if self.rulebase.enabled[pos] != enabled {
            self.rulebase.enabled[pos] = enabled;
            self.dirty = true;
        }
        true
    }
}

impl Drop for BatchEdit<'_> {
    fn drop(&mut self) {
        if self.dirty {
            self.rulebase.reindex();
        }
    }
}

impl Extend<Rule> for Rulebase {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
        self.enabled.resize(self.rules.len(), true);
        self.reindex();
    }
}

impl FromIterator<Rule> for Rulebase {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Rulebase::from_rules(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DeviceMeta;
    use rabit_devices::{ActionKind, DeviceId, DeviceState, DeviceType, StateKey};

    fn catalog() -> DeviceCatalog {
        DeviceCatalog::new()
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("arm", DeviceType::RobotArm))
            .with(
                DeviceMeta::new("centrifuge", DeviceType::ActionDevice)
                    .with_door()
                    .with_tag("centrifuge"),
            )
    }

    fn closed_door_state() -> LabState {
        let mut s = LabState::new();
        s.insert("doser", DeviceState::new().with(StateKey::DoorOpen, false));
        s.insert(
            "arm",
            DeviceState::new()
                .with(StateKey::Holding, None::<DeviceId>)
                .with(StateKey::InsideOf, None::<DeviceId>),
        );
        s
    }

    #[test]
    fn sizes() {
        assert_eq!(Rulebase::standard().len(), 11);
        assert_eq!(Rulebase::hein_lab().len(), 15);
        assert!(Rulebase::new().is_empty());
    }

    #[test]
    fn check_collects_all_violations() {
        let rb = Rulebase::hein_lab();
        let cat = catalog();
        let state = closed_door_state();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        let violations = rb.check(&cmd, &state, &cat);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, RuleId::General(1));
    }

    #[test]
    fn empty_rulebase_detects_nothing() {
        let rb = Rulebase::new();
        let cat = catalog();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        assert!(rb.check(&cmd, &closed_door_state(), &cat).is_empty());
    }

    #[test]
    fn removal_by_id() {
        let mut rb = Rulebase::standard();
        assert!(rb.remove(&RuleId::General(1)));
        assert_eq!(rb.len(), 10);
        assert!(!rb.remove(&RuleId::General(1)));
        let cat = catalog();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        assert!(rb.check(&cmd, &closed_door_state(), &cat).is_empty());
    }

    #[test]
    fn disabled_rules_stop_firing_on_both_paths() {
        let mut rb = Rulebase::hein_lab();
        let cat = catalog();
        let state = closed_door_state();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        assert_eq!(rb.check(&cmd, &state, &cat).len(), 1);
        assert!(rb.set_enabled(&RuleId::General(1), false));
        assert_eq!(rb.is_enabled(&RuleId::General(1)), Some(false));
        assert_eq!(rb.len(), 15, "disabled rules stay in the table");
        assert_eq!(rb.enabled_count(), 14);
        assert!(rb.check(&cmd, &state, &cat).is_empty());
        assert!(rb.check_linear(&cmd, &state, &cat).is_empty());
        // Re-enable: fires again.
        assert!(rb.set_enabled(&RuleId::General(1), true));
        assert_eq!(rb.enabled_count(), 15);
        assert_eq!(rb.check(&cmd, &state, &cat).len(), 1);
        // Unknown id: untouched.
        assert!(!rb.set_enabled(&RuleId::General(99), false));
        assert_eq!(rb.is_enabled(&RuleId::General(99)), None);
    }

    #[test]
    fn update_replaces_rule_in_place() {
        let mut rb = Rulebase::standard();
        assert!(rb.rule(&RuleId::General(1)).is_some());
        let relaxed = Rule::new(
            RuleId::General(1),
            "relaxed door rule (never fires)",
            |_, _, _| None,
        );
        assert!(rb.update(&RuleId::General(1), relaxed));
        assert_eq!(rb.len(), 11);
        assert_eq!(
            rb.rule(&RuleId::General(1)).unwrap().description(),
            "relaxed door rule (never fires)"
        );
        let cat = catalog();
        let cmd = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        assert!(rb.check(&cmd, &closed_door_state(), &cat).is_empty());
        assert!(!rb.update(&RuleId::General(99), rb.rules()[0].clone()));
    }

    #[test]
    fn collect_and_extend() {
        let rules = crate::general::general_rules();
        let rb: Rulebase = rules.into_iter().collect();
        assert_eq!(rb.len(), 11);
        let mut rb2 = Rulebase::new();
        rb2.extend(crate::custom::hein_custom_rules());
        assert_eq!(rb2.len(), 4);
        let rb3 = Rulebase::new().with_rule(crate::general::rule_4_no_double_pick());
        assert_eq!(rb3.len(), 1);
    }

    #[test]
    fn indexed_and_linear_paths_agree() {
        use rabit_geometry::Vec3;
        let rb = Rulebase::hein_lab();
        let cat = catalog();
        let state = closed_door_state();
        let commands = vec![
            Command::new(
                "arm",
                ActionKind::MoveInsideDevice {
                    device: "doser".into(),
                },
            ),
            Command::new(
                "arm",
                ActionKind::MoveToLocation {
                    target: Vec3::new(0.5, 0.0, 0.3),
                },
            ),
            Command::new(
                "arm",
                ActionKind::PickObject {
                    object: "vial".into(),
                },
            ),
            Command::new(
                "arm",
                ActionKind::PlaceObject {
                    object: "vial".into(),
                    into: Some("centrifuge".into()),
                },
            ),
            Command::new("doser", ActionKind::SetDoor { open: true }),
            Command::new("doser", ActionKind::SetDoor { open: false }),
            Command::new("centrifuge", ActionKind::StartAction { value: 50.0 }),
            Command::new(
                "doser",
                ActionKind::DoseSolid {
                    amount_mg: 3.0,
                    into: "vial".into(),
                },
            ),
            Command::new("arm", ActionKind::MoveHome),
            Command::new(
                "unknown_device",
                ActionKind::Custom {
                    name: "calibrate".into(),
                    params: Vec::new(),
                },
            ),
        ];
        for cmd in &commands {
            let indexed: Vec<Violation> = rb.check(cmd, &state, &cat).into_vec();
            let linear = rb.check_linear(cmd, &state, &cat);
            assert_eq!(indexed, linear, "index diverged on {cmd}");
        }
    }

    #[test]
    fn index_skips_rules_outside_signature() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let rule = Rule::new(RuleId::Custom("counting".into()), "counts calls", {
            move |_, _, _| {
                calls2.fetch_add(1, Ordering::SeqCst);
                None
            }
        })
        .with_actions(&[rabit_devices::ActionClass::OpenDoor]);
        let rb = Rulebase::new().with_rule(rule);
        let cat = catalog();
        let state = closed_door_state();
        let pick = Command::new(
            "arm",
            ActionKind::PickObject {
                object: "vial".into(),
            },
        );
        rb.check(&pick, &state, &cat);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "signature must skip rule");
        let open = Command::new("doser", ActionKind::SetDoor { open: true });
        rb.check(&open, &state, &cat);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "matching class must run");
        // The linear reference path ignores the index entirely.
        rb.check_linear(&pick, &state, &cat);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn actor_signature_filters_by_device_type() {
        let rule = Rule::new(
            RuleId::Custom("arm_only".into()),
            "always fires",
            |_, _, _| Some("fired".into()),
        )
        .with_signature(
            crate::rule::RuleSignature::any().for_actors(&[crate::rule::ActorClass::RobotArm]),
        );
        let rb = Rulebase::new().with_rule(rule);
        let cat = catalog();
        let state = closed_door_state();
        let from_arm = Command::new("arm", ActionKind::MoveHome);
        assert_eq!(rb.check(&from_arm, &state, &cat).len(), 1);
        let from_doser = Command::new("doser", ActionKind::SetDoor { open: true });
        assert!(rb.check(&from_doser, &state, &cat).is_empty());
        // Unknown actors conservatively match every rule.
        let from_unknown = Command::new("ghost", ActionKind::MoveHome);
        assert_eq!(rb.check(&from_unknown, &state, &cat).len(), 1);
    }

    #[test]
    fn check_into_reuses_buffer() {
        let rb = Rulebase::hein_lab();
        let cat = catalog();
        let state = closed_door_state();
        let bad = Command::new(
            "arm",
            ActionKind::MoveInsideDevice {
                device: "doser".into(),
            },
        );
        let good = Command::new("arm", ActionKind::MoveHome);
        let mut buf = crate::rule::Violations::new();
        rb.check_into(&bad, &state, &cat, &mut buf);
        assert_eq!(buf.len(), 1);
        rb.check_into(&good, &state, &cat, &mut buf);
        assert!(buf.is_empty(), "check_into must clear the buffer first");
    }

    #[test]
    fn multiple_violations_reported_together() {
        // Placing an empty, uncapped vial into a misaligned centrifuge
        // violates C2, C3, and C4 at once.
        let rb = Rulebase::hein_lab();
        let cat = catalog();
        let mut state = closed_door_state();
        state.insert(
            "vial",
            DeviceState::new()
                .with(StateKey::SolidMg, 0.0)
                .with(StateKey::LiquidMl, 0.0)
                .with(StateKey::HasStopper, false),
        );
        state.insert(
            "centrifuge",
            DeviceState::new().with(StateKey::RedDotNorth, false),
        );
        let cmd = Command::new(
            "arm",
            ActionKind::PlaceObject {
                object: "vial".into(),
                into: Some("centrifuge".into()),
            },
        );
        let violations = rb.check(&cmd, &state, &cat);
        assert_eq!(violations.len(), 3);
        let ids: Vec<String> = violations.iter().map(|v| v.rule.to_string()).collect();
        assert!(ids.contains(&"custom:2".to_string()));
        assert!(ids.contains(&"custom:3".to_string()));
        assert!(ids.contains(&"custom:4".to_string()));
    }
}

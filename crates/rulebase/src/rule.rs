//! Rule types: identities, outcomes, violations, applicability
//! signatures, and the [`Rule`] object.

use crate::catalog::DeviceCatalog;
use rabit_devices::{ActionClass, Command, DeviceType, LabState};
use rabit_util::InlineVec;
use std::fmt;
use std::sync::Arc;

/// Identifies a rule.
///
/// Marked `#[non_exhaustive]`: new rule provenances (e.g. LLM-proposed
/// rules awaiting human review) can be added without a breaking change,
/// so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// General rule *n* of Table III (1-11).
    General(u8),
    /// A lab-specific custom rule; Hein rules are `custom:1` … `custom:4`
    /// of Table IV.
    Custom(String),
    /// A RABIT extension added during the evaluation (held-object
    /// geometry, time/space multiplexing).
    Extension(String),
    /// A rule mined from trace data (RAD).
    Mined(String),
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleId::General(n) => write!(f, "general:{n}"),
            RuleId::Custom(name) => write!(f, "custom:{name}"),
            RuleId::Extension(name) => write!(f, "extension:{name}"),
            RuleId::Mined(name) => write!(f, "mined:{name}"),
        }
    }
}

/// A detected rule violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// A coarse actor classification used by [`RuleSignature`] device-type
/// predicates. Mirrors [`DeviceType`] with every `Custom(..)` category
/// collapsed into one bit, so signatures stay a plain bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ActorClass {
    /// [`DeviceType::Container`].
    Container = 0,
    /// [`DeviceType::RobotArm`].
    RobotArm,
    /// [`DeviceType::DosingSystem`].
    DosingSystem,
    /// [`DeviceType::ActionDevice`].
    ActionDevice,
    /// Any [`DeviceType::Custom`] category.
    Custom,
}

impl ActorClass {
    /// Number of actor classes.
    pub const COUNT: usize = 5;

    /// The class of a catalog device type.
    pub fn of(device_type: &DeviceType) -> Self {
        match device_type {
            DeviceType::Container => ActorClass::Container,
            DeviceType::RobotArm => ActorClass::RobotArm,
            DeviceType::DosingSystem => ActorClass::DosingSystem,
            DeviceType::ActionDevice => ActorClass::ActionDevice,
            DeviceType::Custom(_) => ActorClass::Custom,
        }
    }
}

/// A rule's static applicability signature: the action classes and actor
/// device types it can possibly fire on. The [`Rulebase`] builds a
/// dispatch index from these at construction, so `check` only visits
/// rules whose signature matches the command — a rule whose signature
/// excludes a command is guaranteed (by its author) to return `None` for
/// it.
///
/// The default signature matches everything, so rules built without an
/// explicit signature (custom labs, RAD-mined rules) are always
/// evaluated, exactly as before the index existed.
///
/// [`Rulebase`]: crate::Rulebase
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSignature {
    /// Bit `ActionClass::index()` set ⇒ the rule can fire on that class.
    action_mask: u32,
    /// Bit `ActorClass as u8` set ⇒ the rule can fire for actors of that
    /// class. Commands whose actor is unknown to the catalog match every
    /// rule (conservative).
    actor_mask: u8,
}

const ALL_ACTIONS: u32 = (1 << ActionClass::COUNT as u32) - 1;
const ALL_ACTORS: u8 = (1 << ActorClass::COUNT as u8) - 1;

impl Default for RuleSignature {
    fn default() -> Self {
        RuleSignature::any()
    }
}

impl RuleSignature {
    /// Matches every command (the conservative default).
    pub const fn any() -> Self {
        RuleSignature {
            action_mask: ALL_ACTIONS,
            actor_mask: ALL_ACTORS,
        }
    }

    /// Matches only the given action classes (any actor).
    pub fn actions(classes: &[ActionClass]) -> Self {
        let mut mask = 0u32;
        for c in classes {
            mask |= 1 << c.index() as u32;
        }
        RuleSignature {
            action_mask: mask,
            actor_mask: ALL_ACTORS,
        }
    }

    /// Restricts the signature to actors of the given classes
    /// (builder style).
    pub fn for_actors(mut self, classes: &[ActorClass]) -> Self {
        let mut mask = 0u8;
        for c in classes {
            mask |= 1 << *c as u8;
        }
        self.actor_mask = mask;
        self
    }

    /// Whether the signature admits this action class.
    #[inline]
    pub fn matches_action(&self, class: ActionClass) -> bool {
        self.action_mask & (1 << class.index() as u32) != 0
    }

    /// Whether the signature admits an actor of this class. `None`
    /// (actor not in the catalog) conservatively matches everything.
    #[inline]
    pub fn matches_actor(&self, class: Option<ActorClass>) -> bool {
        match class {
            Some(c) => self.actor_mask & (1 << c as u8) != 0,
            None => true,
        }
    }

    /// The admitted action classes, in index order.
    pub fn action_classes(&self) -> impl Iterator<Item = ActionClass> + '_ {
        ActionClass::ALL
            .into_iter()
            .filter(|c| self.matches_action(*c))
    }
}

/// Inline capacity of [`Violations`] — real commands rarely break more
/// than a few rules at once (the worst observed case, the Table IV
/// centrifuge misuse, breaks three).
const VIOLATIONS_INLINE: usize = 4;

/// The violations one command raised, in evaluation order: the first
/// four live inline, the rest spill to the heap. [`Rulebase::check`]
/// returns this, so the hot path (no violations, or up to four)
/// performs no allocation at all.
///
/// [`Rulebase::check`]: crate::Rulebase::check
pub type Violations = InlineVec<Violation, VIOLATIONS_INLINE>;

/// The context every rule check receives.
#[derive(Debug, Clone, Copy)]
pub struct RuleCtx<'a> {
    /// The static device catalog (from JSON configuration).
    pub catalog: &'a DeviceCatalog,
}

/// A checker function: given the command about to execute, the current
/// lab state, and the catalog, return a violation if the precondition
/// fails.
type CheckFn = dyn Fn(&Command, &LabState, &RuleCtx<'_>) -> Option<String> + Send + Sync;

/// One safety rule.
///
/// Rules are precondition checks: the Fig. 2 algorithm's
/// `Valid(S_current, a_next)` is the conjunction of all rules in the
/// rulebase.
#[derive(Clone)]
pub struct Rule {
    id: RuleId,
    description: String,
    signature: RuleSignature,
    check: Arc<CheckFn>,
}

impl Rule {
    /// Creates a rule from its id, Table III/IV wording, and checker.
    /// The signature defaults to [`RuleSignature::any`] — the rule is
    /// evaluated on every command until narrowed with
    /// [`Rule::with_actions`] or [`Rule::with_signature`].
    pub fn new(
        id: RuleId,
        description: impl Into<String>,
        check: impl Fn(&Command, &LabState, &RuleCtx<'_>) -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        Rule {
            id,
            description: description.into(),
            signature: RuleSignature::any(),
            check: Arc::new(check),
        }
    }

    /// Narrows the rule to the given action classes (builder style).
    /// The author asserts the checker returns `None` for every command
    /// whose action class is not listed.
    pub fn with_actions(mut self, classes: &[ActionClass]) -> Self {
        self.signature = RuleSignature::actions(classes);
        self
    }

    /// Replaces the rule's applicability signature (builder style).
    pub fn with_signature(mut self, signature: RuleSignature) -> Self {
        self.signature = signature;
        self
    }

    /// The rule's applicability signature.
    pub fn signature(&self) -> &RuleSignature {
        &self.signature
    }

    /// The rule's id.
    pub fn id(&self) -> &RuleId {
        &self.id
    }

    /// The rule's wording (as in the paper's tables).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Checks the rule against a pending command. Returns a violation if
    /// the precondition fails, `None` if it holds or does not apply.
    pub fn check(
        &self,
        command: &Command,
        state: &LabState,
        ctx: &RuleCtx<'_>,
    ) -> Option<Violation> {
        (self.check)(command, state, ctx).map(|message| Violation {
            rule: self.id.clone(),
            message,
        })
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("id", &self.id)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabit_devices::ActionKind;

    #[test]
    fn rule_id_display() {
        assert_eq!(RuleId::General(3).to_string(), "general:3");
        assert_eq!(RuleId::Custom("1".into()).to_string(), "custom:1");
        assert_eq!(
            RuleId::Extension("time_multiplexing".into()).to_string(),
            "extension:time_multiplexing"
        );
        assert_eq!(
            RuleId::Mined("door_before_enter".into()).to_string(),
            "mined:door_before_enter"
        );
    }

    #[test]
    fn rule_check_wraps_message() {
        let rule = Rule::new(RuleId::General(4), "no double pick", |cmd, _, _| {
            matches!(cmd.action, ActionKind::PickObject { .. })
                .then(|| "already holding".to_string())
        });
        let catalog = DeviceCatalog::new();
        let ctx = RuleCtx { catalog: &catalog };
        let state = LabState::new();
        let pick = Command::new("arm", ActionKind::PickObject { object: "v".into() });
        let v = rule.check(&pick, &state, &ctx).unwrap();
        assert_eq!(v.rule, RuleId::General(4));
        assert!(v.to_string().contains("general:4"));
        let open = Command::new("d", ActionKind::SetDoor { open: true });
        assert!(rule.check(&open, &state, &ctx).is_none());
        assert_eq!(rule.description(), "no double pick");
        assert!(format!("{rule:?}").contains("General(4)"));
    }

    fn violation(n: usize) -> Violation {
        Violation {
            rule: RuleId::General(n as u8),
            message: format!("violation #{n}"),
        }
    }

    #[test]
    fn violations_spill_past_inline_capacity() {
        let mut vs = Violations::new();
        // Push well past the inline capacity of 4 so the tail spills.
        for n in 0..7 {
            vs.push(violation(n));
            assert_eq!(vs.len(), n + 1);
        }
        assert!(!vs.is_empty());
        // Every accessor sees the same 7 violations in push order.
        assert_eq!(vs.first(), Some(&violation(0)));
        for n in 0..7 {
            assert_eq!(vs.get(n), Some(&violation(n)));
            assert_eq!(&vs[n], &violation(n));
        }
        assert_eq!(vs.get(7), None);
        let from_iter: Vec<Violation> = vs.iter().cloned().collect();
        let expected: Vec<Violation> = (0..7).map(violation).collect();
        assert_eq!(from_iter, expected);
        assert_eq!(vs.clone().into_vec(), expected);
        assert_eq!(Vec::from(vs), expected);
    }

    #[test]
    fn violations_clear_resets_spill() {
        let mut vs: Violations = (0..6).map(violation).collect();
        assert_eq!(vs.len(), 6);
        vs.clear();
        assert!(vs.is_empty());
        assert_eq!(vs.first(), None);
        assert_eq!(vs.iter().count(), 0);
        // Reusable after clearing — inline first, then spill again.
        for n in 0..5 {
            vs.push(violation(n));
        }
        assert_eq!(vs.len(), 5);
        assert_eq!(vs.into_vec(), (0..5).map(violation).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn violations_index_out_of_bounds_panics() {
        let vs: Violations = (0..2).map(violation).collect();
        let _ = &vs[2];
    }

    #[test]
    fn rule_ids_order() {
        let mut ids = [
            RuleId::General(11),
            RuleId::General(1),
            RuleId::Custom("2".into()),
        ];
        ids.sort();
        assert_eq!(ids[0], RuleId::General(1));
        assert_eq!(ids[1], RuleId::General(11));
    }
}

//! Configuration validation and catalog construction.
//!
//! The pilot study (§V-A) spent "around four hours debugging the entered
//! information": a sign flipped on a location, JSON syntax errors, and
//! misinterpreted device information. The paper concludes that "more
//! precise JSON schema specifications could have helped avoid sign
//! errors" — this validator is that specification, made executable.

use crate::schema::LabConfig;
use rabit_devices::{DeviceId, DeviceType};
use rabit_geometry::Vec3;
use rabit_rulebase::{custom, DeviceCatalog, DeviceMeta, Rule};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueLevel {
    /// Suspicious but not fatal.
    Warning,
    /// The configuration cannot be used.
    Error,
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigIssue {
    /// Severity.
    pub level: IssueLevel,
    /// The offending device id, if device-scoped.
    pub device: Option<String>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.level {
            IssueLevel::Warning => "warning",
            IssueLevel::Error => "error",
        };
        match &self.device {
            Some(d) => write!(f, "[{tag}] {d}: {}", self.message),
            None => write!(f, "[{tag}] {}", self.message),
        }
    }
}

fn parse_type(raw: &str) -> Option<DeviceType> {
    match raw {
        "container" => Some(DeviceType::Container),
        "robot_arm" => Some(DeviceType::RobotArm),
        "dosing_system" => Some(DeviceType::DosingSystem),
        "action_device" => Some(DeviceType::ActionDevice),
        other => other
            .strip_prefix("custom:")
            .map(|name| DeviceType::Custom(name.to_string())),
    }
}

/// Validates a configuration, returning every finding (empty = clean).
pub fn validate(config: &LabConfig) -> Vec<ConfigIssue> {
    let mut issues = Vec::new();
    let err = |device: Option<&str>, message: String| ConfigIssue {
        level: IssueLevel::Error,
        device: device.map(str::to_string),
        message,
    };
    let warn = |device: Option<&str>, message: String| ConfigIssue {
        level: IssueLevel::Warning,
        device: device.map(str::to_string),
        message,
    };

    if config.devices.is_empty() {
        issues.push(err(None, "configuration declares no devices".to_string()));
    }

    // Duplicate ids.
    let mut seen = std::collections::BTreeSet::new();
    for d in &config.devices {
        if !seen.insert(&d.id) {
            issues.push(err(Some(&d.id), "duplicate device id".to_string()));
        }
    }

    let workspace = config.workspace.map(|b| b.to_aabb());
    let in_workspace = |p: Vec3| workspace.is_none_or(|w| w.contains_point(p));

    for d in &config.devices {
        let id = Some(d.id.as_str());
        if d.id.is_empty() {
            issues.push(err(None, "device with empty id".to_string()));
            continue;
        }
        let Some(device_type) = parse_type(&d.device_type) else {
            issues.push(err(
                id,
                format!(
                    "unknown device type '{}' (expected container, robot_arm, \
                     dosing_system, action_device, or custom:<name>)",
                    d.device_type
                ),
            ));
            continue;
        };
        if d.has_door && !device_type.may_have_door() {
            issues.push(err(
                id,
                format!("{device_type} devices cannot have doors (§II-A)"),
            ));
        }
        if let Some(t) = d.action_threshold {
            if !(t.is_finite() && t > 0.0) {
                issues.push(err(
                    id,
                    format!("action threshold must be positive, got {t}"),
                ));
            }
        }
        // Location sanity: the sign-error guard.
        for (label, p) in [
            ("home_location", d.home_location),
            ("sleep_location", d.sleep_location),
        ] {
            if let Some(p) = p {
                let v = Vec3::from_array(p);
                if !v.is_finite() {
                    issues.push(err(id, format!("{label} has non-finite coordinates")));
                } else {
                    if v.z < 0.0 {
                        issues.push(err(
                            id,
                            format!(
                                "{label} {v} is below the platform — check for a \
                                 flipped sign (the pilot study's P entered a \
                                 negative sign instead of a positive one)"
                            ),
                        ));
                    }
                    if !in_workspace(v) {
                        issues.push(err(
                            id,
                            format!("{label} {v} falls outside the declared workspace"),
                        ));
                    }
                }
            }
        }
        for (label, b) in [
            ("footprint", d.footprint),
            ("sleep_volume", d.sleep_volume),
            ("allowed_region", d.allowed_region),
        ] {
            if let Some(b) = b {
                let aabb = b.to_aabb();
                if aabb.volume() <= 0.0 {
                    issues.push(warn(id, format!("{label} has zero volume")));
                }
                if let Some(w) = workspace {
                    if !w.intersects(&aabb) {
                        issues.push(err(
                            id,
                            format!("{label} lies entirely outside the workspace"),
                        ));
                    }
                }
            }
        }
        match device_type {
            DeviceType::RobotArm => {
                if d.home_location.is_none() || d.sleep_location.is_none() {
                    issues.push(err(
                        id,
                        "robot arms need home_location and sleep_location".to_string(),
                    ));
                }
                if d.footprint.is_some() {
                    issues.push(warn(
                        id,
                        "robot arms are dynamic; a static footprint will be ignored".to_string(),
                    ));
                }
            }
            DeviceType::DosingSystem | DeviceType::ActionDevice if d.footprint.is_none() => {
                issues.push(warn(
                    id,
                    "stationary device without a footprint cannot be collision-checked".to_string(),
                ));
            }
            _ => {}
        }
        if d.status_commands.is_empty()
            && matches!(
                device_type,
                DeviceType::DosingSystem | DeviceType::ActionDevice
            )
        {
            issues.push(warn(
                id,
                "no status commands declared; malfunction detection will be blind".to_string(),
            ));
        }
    }

    for rule in &config.custom_rules {
        if build_custom_rule(&rule.kind).is_none() {
            issues.push(err(
                None,
                format!("unknown custom rule kind '{}'", rule.kind),
            ));
        }
    }

    issues
}

/// Instantiates one custom rule by kind.
pub fn build_custom_rule(kind: &str) -> Option<Rule> {
    match kind {
        "liquid_after_solid" => Some(custom::rule_c1_liquid_after_solid()),
        "centrifuge_needs_solid_and_liquid" => {
            Some(custom::rule_c2_centrifuge_needs_solid_and_liquid())
        }
        "centrifuge_red_dot_north" => Some(custom::rule_c3_centrifuge_red_dot_north()),
        "centrifuge_needs_stopper" => Some(custom::rule_c4_centrifuge_needs_stopper()),
        _ => None,
    }
}

/// Errors returned by [`to_catalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidConfig {
    /// The validation errors (warnings excluded).
    pub errors: Vec<ConfigIssue>,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} configuration error(s); first: {}",
            self.errors.len(),
            self.errors[0]
        )
    }
}

impl std::error::Error for InvalidConfig {}

/// Builds the rulebase-facing [`DeviceCatalog`] (plus the configured
/// custom rules) from a validated configuration.
///
/// # Errors
///
/// Returns every [`IssueLevel::Error`] finding if validation fails.
pub fn to_catalog(config: &LabConfig) -> Result<(DeviceCatalog, Vec<Rule>), InvalidConfig> {
    let errors: Vec<ConfigIssue> = validate(config)
        .into_iter()
        .filter(|i| i.level == IssueLevel::Error)
        .collect();
    if !errors.is_empty() {
        return Err(InvalidConfig { errors });
    }

    let mut catalog = DeviceCatalog::new();
    for d in &config.devices {
        let device_type = parse_type(&d.device_type).expect("validated");
        let mut meta = DeviceMeta::new(DeviceId::new(&d.id), device_type);
        if d.has_door {
            meta = meta.with_door();
        }
        for tag in &d.tags {
            meta = meta.with_tag(tag.clone());
        }
        if let Some(t) = d.action_threshold {
            meta = meta.with_threshold(t);
        }
        if !d.hosts_container {
            meta = meta.without_container_hosting();
        }
        if let (Some(h), Some(s)) = (d.home_location, d.sleep_location) {
            meta = meta.with_arm_positions(Vec3::from_array(h), Vec3::from_array(s));
        }
        if let Some(v) = d.sleep_volume {
            meta = meta.with_sleep_volume(v.to_aabb());
        }
        if let Some(r) = d.allowed_region {
            meta = meta.with_allowed_region(r.to_aabb());
        }
        catalog.insert(meta);
    }

    let rules = config
        .custom_rules
        .iter()
        .map(|r| build_custom_rule(&r.kind).expect("validated"))
        .collect();
    Ok((catalog, rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BoxConfig, CustomRuleConfig};

    fn good_config() -> LabConfig {
        LabConfig::from_json(
            r#"{
            "lab_name": "Test",
            "workspace": {"min": [-1.0, -1.0, 0.0], "max": [1.0, 1.0, 1.0]},
            "devices": [
                {"id": "arm", "type": "robot_arm",
                 "home_location": [0.3, 0.0, 0.3],
                 "sleep_location": [0.1, -0.3, 0.2]},
                {"id": "doser", "type": "dosing_system", "has_door": true,
                 "status_commands": ["get_door", "get_state"],
                 "footprint": {"min": [0.0, 0.3, 0.0], "max": [0.2, 0.5, 0.3]}},
                {"id": "centrifuge", "type": "action_device", "has_door": true,
                 "tags": ["centrifuge"], "action_threshold": 15000.0,
                 "status_commands": ["get_state"],
                 "footprint": {"min": [-0.4, -0.2, 0.0], "max": [-0.2, 0.0, 0.2]}},
                {"id": "vial", "type": "container"}
            ],
            "custom_rules": [
                {"kind": "liquid_after_solid"},
                {"kind": "centrifuge_needs_stopper"}
            ]
        }"#,
        )
        .unwrap()
    }

    #[test]
    fn good_config_validates_cleanly() {
        let issues = validate(&good_config());
        let errors: Vec<_> = issues
            .iter()
            .filter(|i| i.level == IssueLevel::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn catalog_construction() {
        let (catalog, rules) = to_catalog(&good_config()).unwrap();
        assert_eq!(catalog.len(), 4);
        assert!(catalog.has_door(&"doser".into()));
        assert!(catalog.has_tag(&"centrifuge".into(), "centrifuge"));
        assert_eq!(
            catalog.get(&"centrifuge".into()).unwrap().action_threshold,
            Some(15_000.0)
        );
        assert!(catalog.is_robot_arm(&"arm".into()));
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn sign_error_is_caught() {
        // P's mistake: a flipped sign on a location.
        let mut cfg = good_config();
        cfg.devices[0].home_location = Some([0.3, 0.0, -0.3]);
        let issues = validate(&cfg);
        assert!(
            issues
                .iter()
                .any(|i| i.level == IssueLevel::Error && i.message.contains("flipped sign")),
            "{issues:?}"
        );
        assert!(to_catalog(&cfg).is_err());
    }

    #[test]
    fn out_of_workspace_location_is_caught() {
        let mut cfg = good_config();
        cfg.devices[0].home_location = Some([5.0, 0.0, 0.3]);
        let issues = validate(&cfg);
        assert!(issues
            .iter()
            .any(|i| i.message.contains("outside the declared workspace")));
    }

    #[test]
    fn impossible_doors_are_caught() {
        let mut cfg = good_config();
        cfg.devices[3].has_door = true; // a vial with a door
        let issues = validate(&cfg);
        assert!(issues
            .iter()
            .any(|i| i.message.contains("cannot have doors")));
    }

    #[test]
    fn unknown_type_and_rule_kind() {
        let mut cfg = good_config();
        cfg.devices[1].device_type = "dosing-system".to_string(); // typo
        cfg.custom_rules.push(CustomRuleConfig {
            kind: "no_such_rule".to_string(),
        });
        let issues = validate(&cfg);
        assert!(issues
            .iter()
            .any(|i| i.message.contains("unknown device type")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("unknown custom rule kind")));
    }

    #[test]
    fn arm_without_positions_is_an_error() {
        let mut cfg = good_config();
        cfg.devices[0].sleep_location = None;
        let issues = validate(&cfg);
        assert!(issues
            .iter()
            .any(|i| i.level == IssueLevel::Error && i.message.contains("home_location")));
    }

    #[test]
    fn duplicate_ids_and_empty_configs() {
        let mut cfg = good_config();
        cfg.devices.push(cfg.devices[0].clone());
        assert!(validate(&cfg)
            .iter()
            .any(|i| i.message.contains("duplicate")));
        let empty = LabConfig {
            lab_name: "x".into(),
            workspace: None,
            devices: vec![],
            custom_rules: vec![],
        };
        assert!(validate(&empty)
            .iter()
            .any(|i| i.message.contains("no devices")));
    }

    #[test]
    fn warnings_do_not_block_catalog_construction() {
        let mut cfg = good_config();
        cfg.devices[1].status_commands.clear(); // warning only
        cfg.devices[1].footprint = Some(BoxConfig {
            min: [0.0, 0.3, 0.0],
            max: [0.0, 0.3, 0.0], // zero volume: warning
        });
        let issues = validate(&cfg);
        assert!(
            issues.iter().all(|i| i.level == IssueLevel::Warning),
            "{issues:?}"
        );
        assert!(to_catalog(&cfg).is_ok());
    }

    #[test]
    fn issue_display() {
        let i = ConfigIssue {
            level: IssueLevel::Error,
            device: Some("arm".into()),
            message: "boom".into(),
        };
        assert_eq!(i.to_string(), "[error] arm: boom");
        let g = ConfigIssue {
            level: IssueLevel::Warning,
            device: None,
            message: "hm".into(),
        };
        assert_eq!(g.to_string(), "[warning] hm");
    }
}

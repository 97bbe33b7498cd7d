//! Policy factory: one registry mapping the zoo's policy names to
//! constructors, shared by `figures` and `bench::cell` so every entry
//! point agrees on what "index-tracking" means.

use spotweb_telemetry::TelemetrySink;

use crate::config::SpotWebConfig;
use crate::policy::exosphere::ExoSphereMarkowitzPolicy;
use crate::policy::het_spot_groups::HetSpotGroupsPolicy;
use crate::policy::index_tracking::IndexTrackingPolicy;
use crate::policy::{Policy, SpotWebPolicy};

/// Every policy name the factory can build, in registry order (the
/// order error messages list them in).
pub const ZOO_POLICIES: &[&str] = &["spotweb", "exosphere", "index-tracking", "het-spot-groups"];

/// Canonical form of a policy name: trimmed, lowercased, underscores
/// folded to hyphens — so `Index_Tracking` resolves.
pub fn normalize_policy_name(name: &str) -> String {
    name.trim().to_ascii_lowercase().replace('_', "-")
}

/// Build a registered policy by (lenient) name. No zoo policy draws
/// randomness, so a build is a pure function of its arguments. The
/// error message on an unknown name lists every registered name.
pub fn build_policy(
    name: &str,
    config: &SpotWebConfig,
    markets: usize,
    sink: &TelemetrySink,
) -> Result<Box<dyn Policy + Send>, String> {
    let canonical = normalize_policy_name(name);
    match canonical.as_str() {
        "spotweb" => Ok(Box::new(
            SpotWebPolicy::new(config.clone(), markets).with_telemetry(sink.clone()),
        )),
        "exosphere" => Ok(Box::new(
            ExoSphereMarkowitzPolicy::new(config, markets).with_telemetry(sink.clone()),
        )),
        "index-tracking" => Ok(Box::new(
            IndexTrackingPolicy::new(markets).with_telemetry(sink.clone()),
        )),
        "het-spot-groups" => Ok(Box::new(
            HetSpotGroupsPolicy::new(markets).with_telemetry(sink.clone()),
        )),
        _ => Err(format!(
            "unknown policy '{name}'; registered policies: {}",
            ZOO_POLICIES.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        let config = SpotWebConfig::default();
        let sink = TelemetrySink::disabled();
        for name in ZOO_POLICIES {
            let p = build_policy(name, &config, 3, &sink).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn name_resolution_is_lenient() {
        let config = SpotWebConfig::default();
        let sink = TelemetrySink::disabled();
        for lenient in ["Index_Tracking", " het_spot_groups ", "EXOSPHERE"] {
            assert!(
                build_policy(lenient, &config, 3, &sink).is_ok(),
                "'{lenient}' should resolve"
            );
        }
    }

    #[test]
    fn unknown_name_lists_the_registry() {
        let config = SpotWebConfig::default();
        let sink = TelemetrySink::disabled();
        let err = match build_policy("nope", &config, 3, &sink) {
            Err(e) => e,
            Ok(_) => panic!("unknown name must not build"),
        };
        assert!(err.contains("unknown policy 'nope'"), "{err}");
        for name in ZOO_POLICIES {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn factory_names_match_policy_self_reports() {
        let config = SpotWebConfig::default();
        let sink = TelemetrySink::disabled();
        for name in ZOO_POLICIES {
            let p = build_policy(name, &config, 3, &sink).unwrap();
            if *name == "spotweb" {
                // The MPO policy embeds its horizon in the name.
                assert!(p.name().starts_with("spotweb"), "{}", p.name());
            } else {
                assert_eq!(p.name(), *name);
            }
        }
    }
}

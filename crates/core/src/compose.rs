//! The composition of one memory system: which registered substrate
//! and scheduler it is built from.
//!
//! A [`Composition`] names the two parts a run selects by name.
//! [`MemorySystem::compose`](crate::MemorySystem::compose) resolves the
//! scheduler against its registry and builds the system;
//! [`Composition::from_config`] goes the other way, recovering the
//! substrate a plain [`MemoryConfig`] describes. A scheduler other than
//! the default is selected by name on the run
//! ([`RunSpec::scheduler`](crate::RunSpec::scheduler)), never by the
//! config. The address mapper and the refresh manager are fixed parts,
//! named only in the stats document ([`Composition::to_json`]).

use fbd_telemetry::Json;
use fbd_types::config::MemoryConfig;
use fbd_types::substrate::substrates;

/// Registry names of the parts a run selects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Composition {
    /// Substrate (timing + channel preset) name, or `custom` when the
    /// config matches no registered preset.
    pub substrate: String,
    /// Scheduling policy name (`hit-first`, `fcfs`, …).
    pub scheduler: String,
}

impl Composition {
    /// Recovers the composition a plain config describes: the substrate
    /// by preset equality (`custom` if none matches) and the default
    /// `hit-first` scheduler.
    pub fn from_config(cfg: &MemoryConfig) -> Composition {
        let substrate = substrates()
            .iter()
            .find(|(_, s)| s.config() == *cfg)
            .map_or("custom", |(name, _)| name);
        Composition {
            substrate: substrate.to_owned(),
            scheduler: "hit-first".to_owned(),
        }
    }

    /// The stats document's `composition` object: the selected
    /// substrate and scheduler, then the parts every run fixes — the
    /// one address mapper (`interleaved`) and the refresh manager that
    /// `cfg`'s `refresh.enabled` switch builds (`staggered`, else
    /// `none`).
    pub fn to_json(&self, cfg: &MemoryConfig) -> Json {
        let refresh = if cfg.refresh.enabled {
            "staggered"
        } else {
            "none"
        };
        Json::Obj(vec![
            ("substrate".into(), Json::from(self.substrate.as_str())),
            ("scheduler".into(), Json::from(self.scheduler.as_str())),
            ("mapper".into(), Json::from("interleaved")),
            ("refresh".into(), Json::from(refresh)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_round_trip_to_their_registry_names() {
        for name in ["ddr2", "fbd", "fbd-ap", "fbd-apfl", "fbd-ddr3"] {
            let cfg = substrates().get(name).expect("registered").config();
            let c = Composition::from_config(&cfg);
            assert_eq!(c.substrate, name);
            assert_eq!(c.scheduler, "hit-first");
            let doc = c.to_json(&cfg);
            assert_eq!(
                doc.get("mapper").and_then(Json::as_str),
                Some("interleaved")
            );
            assert_eq!(
                doc.get("refresh").and_then(Json::as_str),
                Some("none"),
                "the paper runs without refresh"
            );
        }
    }

    #[test]
    fn unrecognised_configs_are_custom() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.queue_capacity += 1;
        let c = Composition::from_config(&cfg);
        assert_eq!(c.substrate, "custom");
    }

    #[test]
    fn refresh_switch_is_reflected() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
        let c = Composition::from_config(&cfg);
        assert_eq!(c.scheduler, "hit-first");
        let doc = c.to_json(&cfg);
        assert_eq!(doc.get("refresh").and_then(Json::as_str), Some("staggered"));
    }
}

//! The composition of one memory system: which registered substrate,
//! scheduler, mapper and refresh manager it is built from.
//!
//! A [`Composition`] is the string-level description of a memory
//! system. [`MemorySystem::compose`](crate::MemorySystem::compose)
//! resolves each name against its registry and builds the system;
//! [`Composition::from_config`] goes the other way, recovering the
//! names a plain [`MemoryConfig`] describes. A scheduler other than the
//! default is selected by name on the run
//! ([`RunSpec::scheduler`](crate::RunSpec::scheduler)), never by the
//! config.

use fbd_types::config::MemoryConfig;
use fbd_types::substrate::substrates;

/// Registry names selecting each pluggable part of a memory system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Composition {
    /// Substrate (timing + channel preset) name, or `custom` when the
    /// config matches no registered preset.
    pub substrate: String,
    /// Scheduling policy name (`hit-first`, `fcfs`, …).
    pub scheduler: String,
    /// Address mapper name (`interleaved`).
    pub mapper: String,
    /// Refresh manager name (`staggered`, `none`).
    pub refresh: String,
}

impl Composition {
    /// Recovers the composition a plain config describes: the substrate
    /// by preset equality (`custom` if none matches), the default
    /// `hit-first` scheduler, and the refresh manager from the config's
    /// master switch.
    pub fn from_config(cfg: &MemoryConfig) -> Composition {
        let substrate = substrates()
            .iter()
            .find(|(_, s)| s.config() == *cfg)
            .map_or("custom", |(name, _)| name);
        let refresh = if cfg.refresh.enabled {
            "staggered"
        } else {
            "none"
        };
        Composition {
            substrate: substrate.to_owned(),
            scheduler: "hit-first".to_owned(),
            mapper: "interleaved".to_owned(),
            refresh: refresh.to_owned(),
        }
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
            assert_eq!(c.mapper, "interleaved");
            assert_eq!(c.refresh, "none", "the paper runs without refresh");
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
        assert_eq!(c.refresh, "staggered");
    }
}

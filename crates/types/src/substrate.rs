//! Named memory-system presets (DESIGN.md §14).
//!
//! A [`Substrate`] is one row of a static table: a stable name, a
//! one-line description, the label of the DRAM timing table it runs,
//! and a constructor for its full [`MemoryConfig`]. The four paper
//! systems (`ddr2`, `fbd`, `fbd-ap`, `fbd-apfl`) and the DDR3
//! extensions (`fbd-ddr3`, `ddr3-1066`) are rows of one static table;
//! adding a substrate is one more row plus its timings constructor
//! (for example [`DramTimings::ddr3_1066`]) — no edits to the
//! simulator core.
//!
//! # Examples
//!
//! ```
//! use fbd_types::substrate::substrates;
//!
//! let fbd = substrates().get("fbd-ap").unwrap();
//! assert!(fbd.config().amb.is_enabled());
//! assert_eq!(fbd.timing_spec(), "ddr2-667");
//! assert_eq!(substrates().names().next(), Some("ddr2"));
//! ```

use std::sync::OnceLock;

use crate::config::{AmbPrefetchMode, DramTimings, MemoryConfig};
use crate::registry::Registry;
use crate::time::DataRate;

/// A complete memory-subsystem preset under a stable name.
#[derive(Debug)]
pub struct Substrate {
    name: &'static str,
    description: &'static str,
    timing_spec: &'static str,
    config: fn() -> MemoryConfig,
}

impl Substrate {
    /// Stable registry/CLI name (e.g. `fbd-ap`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human description for listings.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Label of the DRAM timing table the preset runs (e.g.
    /// `ddr2-667`), as `fbdsim list-substrates` prints it.
    pub fn timing_spec(&self) -> &'static str {
        self.timing_spec
    }

    /// The full memory configuration.
    pub fn config(&self) -> MemoryConfig {
        (self.config)()
    }
}

/// Every preset, in CLI listing order.
static PRESETS: [Substrate; 6] = [
    Substrate {
        name: "ddr2",
        description: "conventional DDR2-667 shared-bus baseline",
        timing_spec: "ddr2-667",
        config: MemoryConfig::ddr2_default,
    },
    Substrate {
        name: "fbd",
        description: "FB-DIMM/DDR2-667, AMB prefetching off",
        timing_spec: "ddr2-667",
        config: MemoryConfig::fbdimm_default,
    },
    Substrate {
        name: "fbd-ap",
        description: "FB-DIMM/DDR2-667 with AMB prefetching (K=4)",
        timing_spec: "ddr2-667",
        config: MemoryConfig::fbdimm_with_prefetch,
    },
    // AMB hits pay the full DRAM latency, isolating the bandwidth
    // effect of prefetching.
    Substrate {
        name: "fbd-apfl",
        description: "FB-DIMM AMB prefetching, full-latency ablation",
        timing_spec: "ddr2-667",
        config: || {
            let mut m = MemoryConfig::fbdimm_with_prefetch();
            m.amb.mode = AmbPrefetchMode::FullLatency;
            m
        },
    },
    Substrate {
        name: "fbd-ddr3",
        description: "FB-DIMM carrying DDR3-1333 devices",
        timing_spec: "ddr3-1333",
        config: MemoryConfig::fbdimm_ddr3,
    },
    // The paper's default geometry at the intermediate DDR3 speed grade.
    Substrate {
        name: "ddr3-1066",
        description: "FB-DIMM carrying DDR3-1066 devices",
        timing_spec: "ddr3-1066",
        config: || MemoryConfig {
            data_rate: DataRate::MTS1066,
            timings: DramTimings::ddr3_1066(),
            ..MemoryConfig::fbdimm_default()
        },
    },
];

/// The preset table served by name.
pub fn substrates() -> &'static Registry<Substrate> {
    static SUBSTRATES: OnceLock<Registry<Substrate>> = OnceLock::new();
    SUBSTRATES.get_or_init(|| {
        let mut r = Registry::new("substrate");
        for s in &PRESETS {
            r.register(s.name, s);
        }
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table and rate each timing label stands for.
    fn timing_spec(label: &str) -> (DramTimings, DataRate) {
        match label {
            "ddr2-667" => (DramTimings::ddr2_table2(), DataRate::MTS667),
            "ddr3-1333" => (DramTimings::ddr3_1333(), DataRate::MTS1333),
            "ddr3-1066" => (DramTimings::ddr3_1066(), DataRate::MTS1066),
            other => panic!("unknown timing spec `{other}`"),
        }
    }

    #[test]
    fn every_substrate_validates_and_names_a_registered_timing_spec() {
        for (name, sub) in substrates().iter() {
            assert_eq!(name, sub.name());
            let cfg = sub.config();
            cfg.validate()
                .unwrap_or_else(|e| panic!("substrate `{name}` invalid: {e}"));
            let (timings, rate) = timing_spec(sub.timing_spec());
            assert_eq!(
                cfg.timings, timings,
                "substrate `{name}` must embed its timing spec's table"
            );
            assert_eq!(
                cfg.data_rate, rate,
                "substrate `{name}` must run at its timing spec's rate"
            );
            assert!(!sub.description().is_empty());
        }
    }

    #[test]
    fn every_timing_spec_validates() {
        for sub in &PRESETS {
            let (timings, rate) = timing_spec(sub.timing_spec());
            timings
                .validate()
                .unwrap_or_else(|e| panic!("timing spec `{}` invalid: {e}", sub.timing_spec()));
            assert!(!rate.clock_period().is_zero());
        }
    }

    #[test]
    fn registry_matches_the_legacy_presets() {
        // The four paper systems must resolve to exactly the configs the
        // `MemoryConfig` preset constructors build.
        let mut apfl = MemoryConfig::fbdimm_with_prefetch();
        apfl.amb.mode = AmbPrefetchMode::FullLatency;
        for (name, legacy) in [
            ("ddr2", MemoryConfig::ddr2_default()),
            ("fbd", MemoryConfig::fbdimm_default()),
            ("fbd-ap", MemoryConfig::fbdimm_with_prefetch()),
            ("fbd-apfl", apfl),
        ] {
            let composed = substrates().get(name).unwrap().config();
            assert_eq!(legacy, composed, "preset `{name}` diverged");
        }
    }

    #[test]
    fn extension_substrates_are_registered() {
        assert!(substrates().get("fbd-ddr3").is_some());
        assert!(substrates().get("ddr3-1066").is_some());
        assert!(substrates().get("ddr5").is_none());
    }
}

//! Composable substrates: table-driven DRAM timing specs and named
//! system presets behind registries (DESIGN.md §14).
//!
//! A [`TimingSpec`] is a full FAW/tRTP-complete DRAM timing table plus
//! its data rate; a [`Substrate`] is a complete memory-subsystem preset
//! (geometry, technology, timing spec, prefetcher) selectable by its
//! stable string name. The four paper systems (`ddr2`, `fbd`, `fbd-ap`,
//! `fbd-apfl`), the DDR3-1333 extension (`fbd-ddr3`) and the DDR3-1066
//! extension (`ddr3-1066`, defined entirely in
//! [`ddr3_1066`](crate::ddr3_1066)) are all registry entries; adding a
//! new substrate is one new file plus one `register` line below — no
//! edits to the simulator core.
//!
//! # Examples
//!
//! ```
//! use fbd_types::substrate::{substrates, timing_specs};
//!
//! let fbd = substrates().get("fbd-ap").unwrap();
//! assert!(fbd.config().amb.is_enabled());
//! let t = timing_specs().get(fbd.timing_spec()).unwrap();
//! assert_eq!(t.timings(), fbd.config().timings);
//! ```

use std::sync::OnceLock;

use crate::config::{AmbPrefetchMode, DramTimings, MemoryConfig};
use crate::ddr3_1066::{Ddr3_1066Substrate, Ddr3_1066Timing};
use crate::registry::Registry;
use crate::time::DataRate;

/// A table-driven DRAM timing specification: the full Table-2-style
/// timing set (including the four-activate window and read-to-precharge
/// constraints) plus the transfer rate that defines the device clock.
pub trait TimingSpec: Send + Sync + std::fmt::Debug {
    /// Stable registry name (e.g. `ddr2-667`).
    fn name(&self) -> &'static str;
    /// One-line human description for listings.
    fn description(&self) -> &'static str;
    /// Per-physical-channel transfer rate; its clock period paces every
    /// command/data slot.
    fn data_rate(&self) -> DataRate;
    /// The timing table.
    fn timings(&self) -> DramTimings;
}

/// The paper's DDR2-667 timing table (Table 2).
#[derive(Debug)]
pub struct Ddr2T667;

impl TimingSpec for Ddr2T667 {
    fn name(&self) -> &'static str {
        "ddr2-667"
    }
    fn description(&self) -> &'static str {
        "DDR2-667, the paper's Table 2 timings"
    }
    fn data_rate(&self) -> DataRate {
        DataRate::MTS667
    }
    fn timings(&self) -> DramTimings {
        DramTimings::ddr2_table2()
    }
}

/// Representative DDR3-1333 (CL9) timings — the paper's footnote 1
/// anticipates FB-DIMM carrying DDR3.
#[derive(Debug)]
pub struct Ddr3T1333;

impl TimingSpec for Ddr3T1333 {
    fn name(&self) -> &'static str {
        "ddr3-1333"
    }
    fn description(&self) -> &'static str {
        "DDR3-1333 CL9, 1.5 ns clock"
    }
    fn data_rate(&self) -> DataRate {
        DataRate::MTS1333
    }
    fn timings(&self) -> DramTimings {
        DramTimings::ddr3_1333()
    }
}

/// The timing-spec registry. Built once; every entry is validated by
/// the substrate tests below.
pub fn timing_specs() -> &'static Registry<dyn TimingSpec> {
    static SPECS: OnceLock<Registry<dyn TimingSpec>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let mut r = Registry::new("timing spec");
        r.register(Ddr2T667.name(), &Ddr2T667 as &dyn TimingSpec);
        r.register(Ddr3T1333.name(), &Ddr3T1333);
        r.register(Ddr3_1066Timing.name(), &Ddr3_1066Timing);
        r
    })
}

/// A complete memory-subsystem preset: a [`MemoryConfig`] (which embeds
/// the timing table of [`Self::timing_spec`]) under a stable name.
pub trait Substrate: Send + Sync + std::fmt::Debug {
    /// Stable registry/CLI name (e.g. `fbd-ap`).
    fn name(&self) -> &'static str;
    /// One-line human description for listings.
    fn description(&self) -> &'static str;
    /// Name of the [`TimingSpec`] this preset composes.
    fn timing_spec(&self) -> &'static str;
    /// The full memory configuration.
    fn config(&self) -> MemoryConfig;
}

/// The paper's conventional DDR2 shared-bus baseline.
#[derive(Debug)]
pub struct Ddr2Baseline;

impl Substrate for Ddr2Baseline {
    fn name(&self) -> &'static str {
        "ddr2"
    }
    fn description(&self) -> &'static str {
        "conventional DDR2-667 shared-bus baseline"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::ddr2_default()
    }
}

/// Plain FB-DIMM (AMB prefetching off).
#[derive(Debug)]
pub struct FbdBaseline;

impl Substrate for FbdBaseline {
    fn name(&self) -> &'static str {
        "fbd"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM/DDR2-667, AMB prefetching off"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_default()
    }
}

/// FB-DIMM with the paper's default AMB prefetcher (K=4).
#[derive(Debug)]
pub struct FbdAmbPrefetch;

impl Substrate for FbdAmbPrefetch {
    fn name(&self) -> &'static str {
        "fbd-ap"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM/DDR2-667 with AMB prefetching (K=4)"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_with_prefetch()
    }
}

/// FB-DIMM prefetching under the full-latency ablation (AMB hits pay
/// the full DRAM latency; isolates the bandwidth effect).
#[derive(Debug)]
pub struct FbdAmbPrefetchFullLatency;

impl Substrate for FbdAmbPrefetchFullLatency {
    fn name(&self) -> &'static str {
        "fbd-apfl"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM AMB prefetching, full-latency ablation"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.amb.mode = AmbPrefetchMode::FullLatency;
        m
    }
}

/// FB-DIMM carrying DDR3-1333 devices.
#[derive(Debug)]
pub struct FbdDdr3;

impl Substrate for FbdDdr3 {
    fn name(&self) -> &'static str {
        "fbd-ddr3"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM carrying DDR3-1333 devices"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr3-1333"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_ddr3()
    }
}

/// The substrate registry: every named preset a run can be composed
/// from. Registration order is the CLI listing order.
pub fn substrates() -> &'static Registry<dyn Substrate> {
    static SUBSTRATES: OnceLock<Registry<dyn Substrate>> = OnceLock::new();
    SUBSTRATES.get_or_init(|| {
        let mut r = Registry::new("substrate");
        r.register(Ddr2Baseline.name(), &Ddr2Baseline as &dyn Substrate);
        r.register(FbdBaseline.name(), &FbdBaseline);
        r.register(FbdAmbPrefetch.name(), &FbdAmbPrefetch);
        r.register(FbdAmbPrefetchFullLatency.name(), &FbdAmbPrefetchFullLatency);
        r.register(FbdDdr3.name(), &FbdDdr3);
        r.register(Ddr3_1066Substrate.name(), &Ddr3_1066Substrate);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_validates_and_names_a_registered_timing_spec() {
        for (name, sub) in substrates().iter() {
            assert_eq!(name, sub.name());
            let cfg = sub.config();
            cfg.validate()
                .unwrap_or_else(|e| panic!("substrate `{name}` invalid: {e}"));
            let spec = timing_specs()
                .get(sub.timing_spec())
                .unwrap_or_else(|| panic!("substrate `{name}` names unknown timing spec"));
            assert_eq!(
                cfg.timings,
                spec.timings(),
                "substrate `{name}` must embed its timing spec's table"
            );
            assert_eq!(
                cfg.data_rate,
                spec.data_rate(),
                "substrate `{name}` must run at its timing spec's rate"
            );
            assert!(!sub.description().is_empty());
        }
    }

    #[test]
    fn every_timing_spec_validates() {
        for (name, spec) in timing_specs().iter() {
            assert_eq!(name, spec.name());
            spec.timings()
                .validate()
                .unwrap_or_else(|e| panic!("timing spec `{name}` invalid: {e}"));
            assert!(!spec.data_rate().clock_period().is_zero());
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

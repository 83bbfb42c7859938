//! Name-keyed registries for the controller's pluggable policies.
//!
//! Each registry publishes `&'static` spec objects keyed by a stable
//! name, so a whole memory system can be composed from strings
//! (`--scheduler fcfs`) without the core knowing the concrete types.
//! Adding a policy means one new file implementing the spec trait plus
//! one `register` call here — no enum edits, no controller edits.

use std::sync::OnceLock;

use fbd_types::Registry;

use crate::fcfs::FcfsSpec;
use crate::mapping::{InterleavedSpec, MapperSpec};
use crate::refresh::{NoRefreshSpec, RefreshSpec, StaggeredSpec};
use crate::sched::{HitFirstSpec, SchedulerSpec};

/// All registered scheduling policies, in registration order
/// (`hit-first` first — it is the paper default).
pub fn schedulers() -> &'static Registry<dyn SchedulerSpec> {
    static REG: OnceLock<Registry<dyn SchedulerSpec>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut r: Registry<dyn SchedulerSpec> = Registry::new("scheduler");
        r.register("hit-first", &HitFirstSpec);
        r.register("fcfs", &FcfsSpec);
        r
    })
}

/// All registered address mappers (`interleaved` is the paper default
/// and currently the only entry).
pub fn mappers() -> &'static Registry<dyn MapperSpec> {
    static REG: OnceLock<Registry<dyn MapperSpec>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut r: Registry<dyn MapperSpec> = Registry::new("mapper");
        r.register("interleaved", &InterleavedSpec);
        r
    })
}

/// All registered refresh managers (`staggered` is the paper default).
pub fn refresh_managers() -> &'static Registry<dyn RefreshSpec> {
    static REG: OnceLock<Registry<dyn RefreshSpec>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut r: Registry<dyn RefreshSpec> = Registry::new("refresh manager");
        r.register("staggered", &StaggeredSpec);
        r.register("none", &NoRefreshSpec);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::MemoryConfig;

    #[test]
    fn default_policies_are_registered_first() {
        assert_eq!(schedulers().names().next(), Some("hit-first"));
        assert_eq!(mappers().names().next(), Some("interleaved"));
        assert_eq!(refresh_managers().names().next(), Some("staggered"));
    }

    #[test]
    fn every_entry_builds_for_the_paper_default_config() {
        let cfg = MemoryConfig::fbdimm_with_prefetch();
        for (_, spec) in schedulers().iter() {
            let _ = spec.build(&cfg);
        }
        for (_, spec) in mappers().iter() {
            let m = spec.build(&cfg);
            assert!(m.capacity_lines() > 0);
        }
        for (_, spec) in refresh_managers().iter() {
            let _ = spec.build(&cfg);
        }
    }

    #[test]
    fn the_extension_scheduler_is_reachable_by_name_only() {
        let spec = schedulers().get("fcfs").expect("fcfs must be registered");
        assert_eq!(spec.name(), "fcfs");
        assert!(schedulers().get("round-robin").is_none());
        assert_eq!(schedulers().available(), "hit-first|fcfs");
    }
}

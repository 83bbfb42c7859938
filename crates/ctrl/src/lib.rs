//! The memory controller: address mapping, the transaction queue, the
//! scheduling policies, refresh management, and the prefetch
//! information table.
//!
//! The controller is technology-agnostic policy: it decodes addresses
//! ([`InterleavedMapper`]), buffers transactions
//! ([`TransactionQueue`]), reorders them ([`SchedulerPolicy`], default
//! [`HitFirstScheduler`]), times refreshes ([`StaggeredRefresh`]) and —
//! when AMB prefetching is enabled — tracks every AMB cache's content
//! ([`PrefetchTable`]) so hits are known before any channel command is
//! sent. The scheduling policy is the one part a run selects by name,
//! through the [`schedulers`] registry; the datapath (links, AMBs, DRAM
//! devices) lives in the sibling crates and is wired together by
//! `fbd-core`.
//!
//! # Examples
//!
//! Decode a line under the paper's 4-cacheline interleaving:
//!
//! ```
//! use fbd_ctrl::InterleavedMapper;
//! use fbd_types::config::MemoryConfig;
//! use fbd_types::LineAddr;
//!
//! let mapper = InterleavedMapper::new(&MemoryConfig::fbdimm_with_prefetch());
//! let a = mapper.map(LineAddr::new(6));
//! let b = mapper.map(LineAddr::new(7));
//! // Blocks 6 and 7 share a region, hence a bank row (Figure 2).
//! assert_eq!((a.channel, a.dimm, a.bank, a.row), (b.channel, b.dimm, b.bank, b.row));
//! ```
//!
//! Build a scheduling policy by name from the registry:
//!
//! ```
//! use fbd_types::config::MemoryConfig;
//!
//! let spec = fbd_ctrl::schedulers().get("fcfs").expect("registered");
//! let mut policy = spec.build(&MemoryConfig::fbdimm_default());
//! assert_eq!(policy.pick(&[], &mut |_| fbd_ctrl::SchedClass::Ready), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compose;
pub mod fcfs;
pub mod info_table;
pub mod mapping;
pub mod queue;
pub mod recovery;
pub mod refresh;
pub mod sched;
pub mod scrub;

pub use compose::schedulers;
pub use fcfs::{FcfsScheduler, FcfsSpec};
pub use info_table::{FillOutcome, PrefetchTable};
pub use mapping::{InterleavedMapper, MappedAddr};
pub use queue::{QueueEntry, TransactionQueue};
pub use recovery::{droppable, northbound_action, CrcAction};
pub use refresh::{RefreshOp, StaggeredRefresh};
pub use sched::{HitFirstScheduler, HitFirstSpec, SchedClass, SchedulerPolicy, SchedulerSpec};
pub use scrub::PatrolScrub;

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use fbd_types::config::{Interleaving, MemoryConfig, PagePolicy};
    use fbd_types::LineAddr;
    use proptest::prelude::*;

    fn mapper_for(scheme: u8) -> InterleavedMapper {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.interleaving = match scheme % 4 {
            0 => Interleaving::Cacheline,
            1 => Interleaving::MultiCacheline { lines: 4 },
            2 => Interleaving::MultiCacheline { lines: 8 },
            _ => {
                cfg.page_policy = PagePolicy::OpenPage;
                Interleaving::Page
            }
        };
        InterleavedMapper::new(&cfg)
    }

    proptest! {
        /// map/unmap is a bijection within capacity for every scheme.
        #[test]
        fn mapping_round_trips(scheme in 0u8..4, line in 0u64..1_000_000) {
            let m = mapper_for(scheme);
            let l = LineAddr::new(line);
            prop_assert_eq!(m.unmap(m.map(l)), l);
        }

        /// The bijection holds across the whole geometry space, not just
        /// the paper's default (channels x dimms x banks x page sizes).
        #[test]
        fn mapping_round_trips_across_geometries(
            ch_log in 0u32..3,
            dimm_log in 1u32..4,
            bank_log in 1u32..4,
            page_log in 9u32..14, // 512 B - 8 KB pages
            scheme in 0u8..4,
            line in 0u64..5_000_000,
        ) {
            let mut cfg = MemoryConfig::fbdimm_default();
            cfg.logical_channels = 1 << ch_log;
            cfg.dimms_per_channel = 1 << dimm_log;
            cfg.banks_per_dimm = 1 << bank_log;
            cfg.page_bytes = 1 << page_log;
            cfg.interleaving = match scheme % 4 {
                0 => Interleaving::Cacheline,
                1 => Interleaving::MultiCacheline { lines: 4 },
                2 => Interleaving::MultiCacheline { lines: 8 },
                _ => {
                    cfg.page_policy = PagePolicy::OpenPage;
                    Interleaving::Page
                }
            };
            prop_assume!(cfg.validate().is_ok());
            let m = InterleavedMapper::new(&cfg);
            let l = LineAddr::new(line % m.capacity_lines());
            let x = m.map(l);
            prop_assert_eq!(m.unmap(x), l);
            prop_assert!(x.channel < cfg.logical_channels);
            prop_assert!(x.dimm < cfg.dimms_per_channel);
            prop_assert!(x.bank < cfg.banks_per_dimm);
            prop_assert!(x.col_line < cfg.lines_per_page());
        }

        /// The bijection holds at NON-power-of-two DIMM counts too: the
        /// modular channel/DIMM arithmetic never assumed a power of two,
        /// and the XOR permutation only touches the bank index.
        #[test]
        fn mapping_round_trips_at_any_dimm_count(
            dimms in 1u32..=9,
            permute in any::<bool>(),
            scheme in 0u8..4,
            line in 0u64..5_000_000,
        ) {
            let mut cfg = MemoryConfig::fbdimm_default();
            cfg.dimms_per_channel = dimms;
            cfg.xor_permutation = permute;
            cfg.interleaving = match scheme % 4 {
                0 => Interleaving::Cacheline,
                1 => Interleaving::MultiCacheline { lines: 4 },
                2 => Interleaving::MultiCacheline { lines: 8 },
                _ => {
                    cfg.page_policy = PagePolicy::OpenPage;
                    Interleaving::Page
                }
            };
            prop_assume!(cfg.validate().is_ok());
            let m = InterleavedMapper::new(&cfg);
            let l = LineAddr::new(line % m.capacity_lines());
            let x = m.map(l);
            prop_assert_eq!(m.unmap(x), l);
            prop_assert!(x.dimm < dimms);
        }

        /// Lines of one region always land on the same bank row under
        /// matching multi-cacheline interleaving (the property the AMB
        /// group fetch depends on).
        #[test]
        fn regions_never_straddle_rows(line in 0u64..1_000_000) {
            let m = mapper_for(1); // 4-line groups
            let base = (line / 4) * 4;
            let first = m.map(LineAddr::new(base));
            for off in 1..4 {
                let x = m.map(LineAddr::new(base + off));
                prop_assert_eq!(
                    (x.channel, x.dimm, x.bank, x.row),
                    (first.channel, first.dimm, first.bank, first.row)
                );
            }
        }

        /// Decoded coordinates are always within the configured geometry.
        #[test]
        fn coordinates_in_bounds(scheme in 0u8..4, line in 0u64..10_000_000) {
            let m = mapper_for(scheme);
            let x = m.map(LineAddr::new(line));
            prop_assert!(x.channel < 2);
            prop_assert!(x.dimm < 4);
            prop_assert!(x.bank < 4);
            prop_assert!(x.row < 16_384);
            prop_assert!(x.col_line < 128);
        }
    }
}

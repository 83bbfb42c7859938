//! Channel interconnect models: the FB-DIMM southbound/northbound links
//! with their AMB daisy chain, and the conventional shared-bus DDR2
//! channel used as the paper's baseline.
//!
//! Everything here is built on a single primitive, [`timeline::Timeline`]
//! — a clock-aligned, gap-filling reservation calendar for a
//! one-thing-at-a-time resource.
//!
//! # Examples
//!
//! Reproduce the channel part of the paper's 63 ns idle-latency
//! decomposition (3 ns command + 6 ns data + 12 ns AMB chain):
//!
//! ```
//! use fbd_link::FbdChannel;
//! use fbd_types::config::MemoryConfig;
//! use fbd_types::time::Time;
//!
//! let mut ch = FbdChannel::new(&MemoryConfig::fbdimm_default());
//! let cmd = ch.send_command(Time::from_ns(12)); // after controller overhead
//! assert_eq!(cmd.done, Time::from_ns(15));
//! // DRAM produces data 30 ns later (tRCD + tCL); the line then needs
//! // one 6 ns northbound frame plus the 12 ns daisy chain:
//! let data = ch.return_read_data(0, Time::from_ns(45));
//! assert_eq!(data.done, Time::from_ns(63));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ddr2;
pub mod fbdimm;
pub mod timeline;

pub use ddr2::Ddr2CommandBus;
pub use fbdimm::{DaisyChain, FbdChannel, LinkSlot, LinkXfer};
pub use timeline::Timeline;

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use fbd_types::time::{Dur, Time};
    use proptest::prelude::*;

    proptest! {
        /// Reservations never overlap and never precede their request
        /// time, for arbitrary request patterns. The requests span up to
        /// 20 µs, several times the timeline's 5 µs prune window.
        #[test]
        fn timeline_reservations_are_disjoint(
            reqs in proptest::collection::vec((0u64..20_000, 1u64..10), 1..400)
        ) {
            let clock = Dur::from_ns(3);
            let mut tl = Timeline::new(clock);
            let mut windows = Vec::new();
            for (nb_ns, dur_clocks) in reqs {
                let not_before = Time::from_ns(nb_ns);
                let dur = clock * dur_clocks;
                let start = tl.reserve(not_before, dur);
                prop_assert!(start >= not_before);
                prop_assert_eq!(start.as_ps() % clock.as_ps(), 0);
                windows.push((start, start + dur));
            }
            windows.sort();
            for w in windows.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "overlap: {:?} then {:?}", w[0], w[1]);
            }
        }

        /// The northbound link keeps full utilization under saturation:
        /// n back-to-back line returns take exactly n frames.
        #[test]
        fn northbound_saturates_without_bubbles(n in 1u64..50) {
            let mut ch = FbdChannel::new(&fbd_types::config::MemoryConfig::fbdimm_default());
            let mut last = Time::ZERO;
            for _ in 0..n {
                last = ch.return_read_data(0, Time::ZERO).done;
            }
            // Each line: one 6 ns frame; chain delay (12 ns) is latency,
            // not occupancy.
            assert_eq!(last, Time::from_ns(6 * n + 12));
        }
    }
}

//! DDR2 DRAM device timing model.
//!
//! Models the memory devices behind one DIMM: logical banks with the full
//! Table 2 timing rule set, and the DDR2 data bus that connects them to
//! their driver (an AMB in FB-DIMM, the controller in the DDR2 baseline).
//! The DRAM chips themselves are untouched by the paper's proposal — this
//! crate is shared verbatim by every simulated configuration.
//!
//! # Examples
//!
//! Plan and commit a close-page read and observe Table 2 timing:
//!
//! ```
//! use fbd_dram::{BankArray, ColKind, ColumnOp, DataBus};
//! use fbd_types::config::DramTimings;
//! use fbd_types::time::{Dur, Time};
//!
//! let timings = DramTimings::ddr2_table2();
//! let clock = Dur::from_ns(3); // DDR2-667
//! let mut banks = BankArray::new(4, timings, clock);
//! let mut bus = DataBus::new(clock);
//!
//! let op = ColumnOp { kind: ColKind::Read, auto_precharge: true, burst: Dur::from_ns(6) };
//! let plan = banks.plan(0, 42, op, Time::ZERO, &bus);
//! assert_eq!(plan.cmd_at, Time::from_ns(15));      // tRCD after ACT
//! assert_eq!(plan.data_start, Time::from_ns(30));  // + tCL
//! banks.commit(&plan, &mut bus);
//! assert_eq!(banks.ops().act_pre, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod bus;
pub mod command;

pub use bank::BankArray;
pub use bus::DataBus;
pub use command::{AccessPlan, ColKind, ColumnOp};

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use fbd_types::config::DramTimings;
    use fbd_types::time::{Dur, Time};
    use proptest::prelude::*;

    const CLK: Dur = Dur::from_ns(3);

    #[derive(Clone, Debug)]
    struct Cmd {
        bank: usize,
        row: u32,
        write: bool,
        auto_pre: bool,
        delay_clocks: u64,
    }

    fn cmd_strategy(max_delay_clocks: u64) -> impl Strategy<Value = Cmd> {
        (
            0usize..4,
            0u32..8,
            any::<bool>(),
            any::<bool>(),
            0u64..max_delay_clocks,
        )
            .prop_map(|(bank, row, write, auto_pre, delay_clocks)| Cmd {
                bank,
                row,
                write,
                auto_pre,
                delay_clocks,
            })
    }

    proptest! {
        /// Any command sequence yields non-overlapping data bursts,
        /// tRC-separated activates per bank, tRRD-separated activates
        /// across banks, and column commands at least tRCD after their
        /// activate. Sequences run up to 24 µs, several times the data
        /// bus's 5 µs prune window.
        #[test]
        fn timing_invariants_hold(cmds in proptest::collection::vec(cmd_strategy(40), 1..200)) {
            let t = DramTimings::ddr2_table2();
            let mut banks = BankArray::new(4, t, CLK);
            let mut bus = DataBus::new(CLK);
            let mut now = Time::ZERO;
            let mut windows: Vec<(Time, Time)> = Vec::new();
            let mut acts: Vec<(usize, Time)> = Vec::new();

            for c in cmds {
                now += CLK * c.delay_clocks;
                let op = ColumnOp {
                    kind: if c.write { ColKind::Write } else { ColKind::Read },
                    auto_precharge: c.auto_pre,
                    burst: Dur::from_ns(6),
                };
                let plan = banks.plan(c.bank, c.row, op, now, &bus);
                // Column at least tRCD after its own activate.
                if let Some(a) = plan.act_at {
                    prop_assert!(plan.cmd_at >= a + t.t_rcd);
                    acts.push((c.bank, a));
                }
                // Data window aligns with command + CAS/write latency.
                let lat = if c.write { t.t_wl } else { t.t_cl };
                prop_assert_eq!(plan.data_start, plan.cmd_at + lat);
                windows.push((plan.data_start, plan.data_end));
                banks.commit(&plan, &mut bus);
            }

            // Data bursts never overlap.
            let mut sorted = windows.clone();
            sorted.sort();
            for w in sorted.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "burst overlap: {:?} then {:?}", w[0], w[1]);
            }
            // ACT separations.
            for (i, &(b1, a1)) in acts.iter().enumerate() {
                for &(b2, a2) in &acts[i + 1..] {
                    let gap = if a2 >= a1 { a2 - a1 } else { a1 - a2 };
                    if b1 == b2 {
                        prop_assert!(gap >= t.t_rc, "tRC violated on bank {}", b1);
                    } else {
                        prop_assert!(gap >= t.t_rrd, "tRRD violated between banks {},{}", b1, b2);
                    }
                }
            }
        }

        /// Close-page mode (every access auto-precharges) never leaves a
        /// row open, and op counters balance: one ACT/PRE per access.
        #[test]
        fn close_page_counts_balance(cmds in proptest::collection::vec(cmd_strategy(20), 1..40)) {
            let t = DramTimings::ddr2_table2();
            let mut banks = BankArray::new(4, t, CLK);
            let mut bus = DataBus::new(CLK);
            let mut now = Time::ZERO;
            let n = cmds.len() as u64;
            for c in cmds {
                now += CLK * c.delay_clocks;
                let op = ColumnOp {
                    kind: if c.write { ColKind::Write } else { ColKind::Read },
                    auto_precharge: true,
                    burst: Dur::from_ns(6),
                };
                let plan = banks.plan(c.bank, c.row, op, now, &bus);
                prop_assert!(plan.is_row_miss(), "close page must always activate");
                banks.commit(&plan, &mut bus);
            }
            prop_assert_eq!(banks.ops().act_pre, n);
            prop_assert_eq!(banks.ops().col_total(), n);
        }
    }
}

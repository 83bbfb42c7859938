//! The DDR2 data bus between a set of DRAM chips and whatever drives them
//! (an AMB in FB-DIMM, or the memory controller in the DDR2 baseline).
//!
//! The bus is bidirectional and time-multiplexed: one burst at a time,
//! with a one-clock turnaround bubble between bursts of different
//! directions. Burst windows are scheduled *out of order* — a later
//! request whose data is ready sooner may claim a gap left between two
//! already-scheduled bursts, which is what a real controller's
//! column-command scheduling achieves.
//!
//! The write-to-read `tWTR` constraint is *not* enforced here — it is a
//! rank-level rule and lives in [`crate::bank::BankArray`], so that on a
//! shared channel a read to one DIMM only pays the bus turnaround after
//! a write to another DIMM.
//!
//! In FB-DIMM every DIMM has a private bus (one `DataBus` per DIMM); in
//! the conventional DDR2 baseline all DIMMs on a channel share one bus
//! (one `DataBus` per channel). The scope is chosen by the caller, which
//! is exactly the bandwidth asymmetry the paper's AMB prefetching
//! exploits.
//!
//! Scheduled bursts are kept sorted by start and pairwise disjoint, so
//! their ends are strictly increasing. A burst moves a candidate start
//! only if it ends less than its turnaround bubble before it, and the
//! largest bubble is one clock (a direction change). The bursts with
//! `end + clock <= start` therefore cannot affect a search and form a
//! prefix of the deque: [`DataBus::earliest_fit`] binary-searches past
//! it, and [`DataBus::commit`] binary-searches its insert slot. A margin
//! smaller than the full clock would skip an opposite-direction burst
//! that still pushes the start back.

use std::collections::VecDeque;

use fbd_types::time::{Dur, Time};

use crate::command::ColKind;

/// How far behind the newest burst the bus keeps history; bursts this
/// old can no longer be displaced by new traffic.
const PRUNE_WINDOW: Dur = Dur::from_ps(5_000_000); // 5 µs

/// A bidirectional DRAM data bus with gap-filling (out-of-order) burst
/// scheduling and direction-turnaround modelling.
#[derive(Clone, Debug)]
pub struct DataBus {
    clock: Dur,
    /// Scheduled bursts `[start, end, dir)`, sorted and disjoint.
    bursts: VecDeque<(Time, Time, ColKind)>,
    /// Everything before this instant is permanently unavailable.
    horizon: Time,
    busy: Dur,
}

impl DataBus {
    /// Creates an idle bus with the given DRAM clock period.
    pub fn new(clock: Dur) -> DataBus {
        assert!(!clock.is_zero(), "clock period must be non-zero");
        // The pruning in `commit` bounds the deque to the bursts inside
        // one `PRUNE_WINDOW` (each at least a clock long, pairwise
        // disjoint) plus a short scheduled-ahead tail. Reserving that
        // bound up front keeps `commit` off the allocator for the whole
        // run (the steady-state allocation gate in `fig_throughput`).
        let cap = (PRUNE_WINDOW.as_ps() / clock.as_ps()) as usize + 256;
        DataBus {
            clock,
            bursts: VecDeque::with_capacity(cap),
            horizon: Time::ZERO,
            busy: Dur::ZERO,
        }
    }

    /// Gap the burst `[start, start+len)` of direction `dir` must keep
    /// from neighbour `n` (one clock when directions differ).
    fn bubble(&self, dir: ColKind, n: ColKind) -> Dur {
        if dir == n {
            Dur::ZERO
        } else {
            self.clock
        }
    }

    /// Earliest instant at or after `desired` where a burst of `len` in
    /// direction `dir` fits — possibly in a gap between already
    /// scheduled bursts.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn earliest_fit(&self, dir: ColKind, desired: Time, len: Dur) -> Time {
        assert!(!len.is_zero(), "burst length must be non-zero");
        let mut start = desired.max(self.horizon);
        let first = self
            .bursts
            .partition_point(|&(_, b_end, _)| b_end + self.clock <= start);
        for &(b_start, b_end, b_dir) in self.bursts.range(first..) {
            // Room before this burst (respecting its turnaround bubble)?
            if start + len + self.bubble(dir, b_dir) <= b_start {
                return start;
            }
            // Otherwise the candidate moves past this burst.
            let after = b_end + self.bubble(dir, b_dir);
            if after > start {
                start = after;
            }
        }
        start
    }

    /// Records a committed burst occupying `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the burst overlaps another or violates
    /// a turnaround bubble — committing a plan computed against stale
    /// bus state is a caller bug.
    pub fn commit(&mut self, dir: ColKind, start: Time, end: Time) {
        debug_assert!(end > start, "empty data burst");
        debug_assert!(
            self.earliest_fit(dir, start, end - start) == start,
            "data burst overlaps another or violates turnaround"
        );
        let idx = self.bursts.partition_point(|&(s, _, _)| s <= start);
        self.bursts.insert(idx, (start, end, dir));
        self.busy += end - start;
        // Prune bursts too old to matter.
        let cutoff = Time::from_ps(start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
        while let Some(&(_, e, _)) = self.bursts.front() {
            if e <= cutoff {
                self.horizon = self.horizon.max(e);
                self.bursts.pop_front();
            } else {
                break;
            }
        }
    }

    /// Instant after which the bus is completely free.
    pub fn free_at(&self) -> Time {
        self.bursts.back().map_or(self.horizon, |&(_, e, _)| e)
    }

    /// Total time the bus has carried data (for utilization reporting).
    pub fn busy_time(&self) -> Dur {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> DataBus {
        DataBus::new(Dur::from_ns(3))
    }

    #[test]
    fn idle_bus_accepts_any_start() {
        let b = bus();
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::from_ns(5), Dur::from_ns(6)),
            Time::from_ns(5)
        );
    }

    #[test]
    fn same_direction_bursts_back_to_back() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(10), Time::from_ns(16));
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::ZERO, Dur::from_ns(6)),
            Time::ZERO,
            "a 6 ns burst fits in the gap before [10,16)"
        );
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::from_ns(12), Dur::from_ns(6)),
            Time::from_ns(16)
        );
    }

    #[test]
    fn direction_change_costs_one_clock() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(10), Time::from_ns(16));
        // A write wanting to start at 12 must clear [10,16) plus 3 ns.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(12), Dur::from_ns(6)),
            Time::from_ns(19)
        );
        // And a write before it needs to end 3 ns before 10.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::ZERO, Dur::from_ns(6)),
            Time::ZERO,
            "[0,6) + 3 ns bubble + [10,16) read is legal"
        );
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(2), Dur::from_ns(6)),
            Time::from_ns(19),
            "[2,8) would leave only 2 ns before the read"
        );
    }

    #[test]
    fn gap_filling_schedules_out_of_order() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(30), Time::from_ns(36));
        // A later request claims the hole between them.
        let at = b.earliest_fit(ColKind::Read, Time::from_ns(6), Dur::from_ns(6));
        assert_eq!(at, Time::from_ns(6));
        b.commit(ColKind::Read, at, at + Dur::from_ns(6));
        // Next fit lands after 12 within the remaining hole.
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::ZERO, Dur::from_ns(6)),
            Time::from_ns(12)
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(6), Time::from_ns(12));
        assert_eq!(b.busy_time(), Dur::from_ns(12));
        assert_eq!(b.free_at(), Time::from_ns(12));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    #[cfg(debug_assertions)]
    fn overlapping_commit_panics_in_debug() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(3), Time::from_ns(9));
    }

    #[test]
    fn pruning_keeps_the_burst_list_bounded() {
        let mut b = bus();
        for i in 0..10_000u64 {
            let t = Time::from_ns(i * 10);
            b.commit(ColKind::Read, t, t + Dur::from_ns(6));
        }
        assert!(b.bursts.len() < 1_000, "burst list grew unboundedly");
    }

    #[test]
    fn search_skips_only_bursts_a_full_clock_behind() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(10), Time::from_ns(16));
        // Opposite direction, ending exactly one clock before `desired`:
        // its bubble ends at `desired`, so it does not move the start.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(19), Dur::from_ns(6)),
            Time::from_ns(19)
        );
        // Opposite direction, ending exactly at `desired`: the bubble
        // still pushes the start a clock later.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(16), Dur::from_ns(6)),
            Time::from_ns(19)
        );
        // One picosecond inside the bubble is pushed too.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ps(18_999), Dur::from_ns(6)),
            Time::from_ns(19)
        );
        // The same direction needs no bubble.
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::from_ns(16), Dur::from_ns(6)),
            Time::from_ns(16)
        );
    }

    /// Reference bus: every search and insert scans linearly from the
    /// oldest retained burst.
    struct LinearBus {
        clock: Dur,
        bursts: VecDeque<(Time, Time, ColKind)>,
        horizon: Time,
    }

    impl LinearBus {
        fn earliest_fit(&self, dir: ColKind, desired: Time, len: Dur) -> Time {
            let bubble = |n: ColKind| if n == dir { Dur::ZERO } else { self.clock };
            let mut start = desired.max(self.horizon);
            for &(b_start, b_end, b_dir) in &self.bursts {
                if start + len + bubble(b_dir) <= b_start {
                    return start;
                }
                start = start.max(b_end + bubble(b_dir));
            }
            start
        }

        fn commit(&mut self, dir: ColKind, start: Time, end: Time) {
            let idx = self
                .bursts
                .iter()
                .position(|&(s, _, _)| s > start)
                .unwrap_or(self.bursts.len());
            self.bursts.insert(idx, (start, end, dir));
            let cutoff = Time::from_ps(start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
            while let Some(&(_, e, _)) = self.bursts.front() {
                if e > cutoff {
                    break;
                }
                self.horizon = self.horizon.max(e);
                self.bursts.pop_front();
            }
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the differential
    /// test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let clock = Dur::from_ns(3);
        let mut fast = DataBus::new(clock);
        let mut slow = LinearBus {
            clock,
            bursts: VecDeque::new(),
            horizon: Time::ZERO,
        };
        let mut rng = 0xB05_0013_u64;
        let mut now = 0u64; // ps
        let mut longest = 0;
        for op in 0..6_000 {
            now += splitmix(&mut rng) % 30_000;
            let r = splitmix(&mut rng);
            // Mostly near-time bursts, some far behind (gap filling and
            // the prune horizon) and some well ahead (future gaps). Off
            // clock-edge requests land inside turnaround bubbles.
            let mut desired = match r % 8 {
                0 => now.saturating_sub(splitmix(&mut rng) % 7_000_000),
                1 => now + splitmix(&mut rng) % 600_000,
                _ => now.saturating_sub(splitmix(&mut rng) % 200_000),
            };
            if r & 0x100 == 0 {
                desired -= desired % clock.as_ps();
            }
            let desired = Time::from_ps(desired);
            let dir = if r & 0x200 == 0 {
                ColKind::Read
            } else {
                ColKind::Write
            };
            let len = clock * (1 + (r >> 12) % 4);
            let expected = slow.earliest_fit(dir, desired, len);
            assert_eq!(fast.earliest_fit(dir, desired, len), expected, "fit #{op}");
            if (r >> 16) % 3 < 2 {
                fast.commit(dir, expected, expected + len);
                slow.commit(dir, expected, expected + len);
            }
            longest = longest.max(fast.bursts.len());
            assert_eq!(fast.bursts.len(), slow.bursts.len(), "after op #{op}");
        }
        assert_eq!(fast.bursts, slow.bursts);
        assert_eq!(fast.horizon, slow.horizon);
        assert!(
            now > 4 * PRUNE_WINDOW.as_ps(),
            "spans several prune windows"
        );
        assert!(
            fast.horizon > Time::ZERO && longest > 50,
            "deque peaked at {longest}"
        );
    }
}

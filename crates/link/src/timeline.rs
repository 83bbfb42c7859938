//! A single-resource reservation timeline.
//!
//! Links and buses in the simulator are resources that carry one thing at
//! a time. A [`Timeline`] hands out non-overlapping time windows aligned
//! to clock edges, filling gaps left by earlier reservations (a short
//! command can slip between two long data transfers, which is exactly
//! how the FB-DIMM southbound link interleaves commands and write data).
//!
//! The busy intervals are kept sorted by start and pairwise disjoint, with
//! a gap between any two neighbours (touching ones are merged). Their ends
//! are therefore strictly increasing too, so the intervals that end at or
//! before a search's start — none of which can move it — form a prefix of
//! the deque. [`Timeline::probe`] binary-searches past that prefix, and
//! inserting a reservation binary-searches its slot and merges only with
//! its two neighbours, so neither starts its walk at the oldest retained
//! interval.

use std::collections::VecDeque;

use fbd_types::time::{Dur, Time};

/// How far behind the newest reservation the timeline keeps history.
/// Reservations this far in the past can no longer be disturbed by new
/// traffic (the memory controller issues work in near-time order), so
/// intervals older than this are pruned and their span treated as busy.
const PRUNE_WINDOW: Dur = Dur::from_ps(5_000_000); // 5 µs

/// A single-resource timeline handing out non-overlapping busy windows.
///
/// # Examples
///
/// ```
/// use fbd_link::timeline::Timeline;
/// use fbd_types::time::{Dur, Time};
///
/// let mut tl = Timeline::new(Dur::from_ns(3));
/// let a = tl.reserve(Time::ZERO, Dur::from_ns(6));
/// let b = tl.reserve(Time::ZERO, Dur::from_ns(6));
/// assert_eq!(a, Time::ZERO);
/// assert_eq!(b, Time::from_ns(6)); // queued behind the first window
/// ```
#[derive(Clone, Debug)]
pub struct Timeline {
    clock: Dur,
    /// Sorted, disjoint busy intervals `[start, end)`.
    busy: VecDeque<(Time, Time)>,
    /// Everything before this instant is permanently unavailable.
    horizon: Time,
    /// Total reserved time, for utilization reporting.
    carried: Dur,
}

impl Timeline {
    /// Creates an idle timeline whose reservations start on multiples of
    /// `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is zero.
    pub fn new(clock: Dur) -> Timeline {
        assert!(!clock.is_zero(), "clock period must be non-zero");
        Timeline {
            clock,
            busy: VecDeque::new(),
            horizon: Time::ZERO,
            carried: Dur::ZERO,
        }
    }

    /// Earliest start (on a clock edge, not before `not_before` or the
    /// prune horizon) of a free window of length `duration`.
    ///
    /// Pure: does not reserve.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn probe(&self, not_before: Time, duration: Dur) -> Time {
        assert!(!duration.is_zero(), "reservation must be non-zero");
        let mut start = not_before.max(self.horizon).align_up(self.clock);
        let first = self.busy.partition_point(|&(_, b_end)| b_end <= start);
        for &(b_start, b_end) in self.busy.range(first..) {
            if start + duration <= b_start {
                break; // fits in the gap before this interval
            }
            if start < b_end {
                start = b_end.align_up(self.clock);
            }
        }
        start
    }

    /// Reserves the earliest free window of length `duration` at or after
    /// `not_before`; returns its start.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn reserve(&mut self, not_before: Time, duration: Dur) -> Time {
        let start = self.probe(not_before, duration);
        self.insert(start, start + duration);
        self.carried += duration;
        self.prune(start);
        start
    }

    /// Reserves a window at exactly `start` (which must be free and on a
    /// clock edge) — used when a previously probed window is committed.
    ///
    /// # Panics
    ///
    /// Panics if the window is not actually free.
    pub fn reserve_at(&mut self, start: Time, duration: Dur) {
        let got = self.probe(start, duration);
        assert!(
            got == start,
            "window at {start} no longer free (next free {got})"
        );
        self.insert(start, start + duration);
        self.carried += duration;
        self.prune(start);
    }

    fn insert(&mut self, start: Time, end: Time) {
        // Find insertion point keeping the deque sorted by start.
        let idx = self.busy.partition_point(|&(s, _)| s <= start);
        self.busy.insert(idx, (start, end));
        // Merge contiguous neighbours to bound the deque length. Every
        // other adjacent pair was already apart, so the pass stops once it
        // has passed the new interval's right neighbour.
        let mut i = idx.saturating_sub(1);
        while i <= idx && i + 1 < self.busy.len() {
            let (s1, e1) = self.busy[i];
            let (s2, e2) = self.busy[i + 1];
            debug_assert!(e1 <= s2 || s1 == s2, "overlapping reservations");
            if e1 >= s2 {
                self.busy[i] = (s1, e1.max(e2));
                self.busy.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn prune(&mut self, latest_start: Time) {
        let cutoff = Time::from_ps(latest_start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
        while let Some(&(_, end)) = self.busy.front() {
            if end <= cutoff {
                self.horizon = self.horizon.max(end);
                self.busy.pop_front();
            } else {
                break;
            }
        }
    }

    /// Total time this resource has carried traffic.
    pub fn carried(&self) -> Dur {
        self.carried
    }

    /// Instant after which the timeline is completely free.
    pub fn free_after(&self) -> Time {
        self.busy.back().map_or(self.horizon, |&(_, end)| end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline::new(Dur::from_ns(3))
    }

    #[test]
    fn reservations_queue_in_order() {
        let mut t = tl();
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::ZERO);
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(6));
        assert_eq!(
            t.reserve(Time::from_ns(30), Dur::from_ns(6)),
            Time::from_ns(30)
        );
    }

    #[test]
    fn starts_align_to_clock_edges() {
        let mut t = tl();
        assert_eq!(
            t.reserve(Time::from_ns(4), Dur::from_ns(6)),
            Time::from_ns(6)
        );
    }

    #[test]
    fn short_reservation_fills_gap() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6)); // [0,6)
        t.reserve(Time::from_ns(12), Dur::from_ns(6)); // [12,18)
                                                       // A 6 ns window fits exactly in [6,12).
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(6));
        // Nothing remains before 18.
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(3)), Time::from_ns(18));
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(3)); // [0,3)
        t.reserve(Time::from_ns(6), Dur::from_ns(6)); // [6,12)
                                                      // 6 ns does not fit in [3,6).
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(12));
    }

    #[test]
    fn probe_is_pure() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        let p1 = t.probe(Time::ZERO, Dur::from_ns(6));
        let p2 = t.probe(Time::ZERO, Dur::from_ns(6));
        assert_eq!(p1, p2);
        t.reserve_at(p1, Dur::from_ns(6));
        assert_eq!(t.probe(Time::ZERO, Dur::from_ns(6)), Time::from_ns(12));
    }

    #[test]
    #[should_panic(expected = "no longer free")]
    fn reserve_at_rejects_taken_window() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        t.reserve_at(Time::from_ns(3), Dur::from_ns(6));
    }

    #[test]
    fn carried_time_accumulates() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        t.reserve(Time::ZERO, Dur::from_ns(2));
        assert_eq!(t.carried(), Dur::from_ns(8));
        assert_eq!(t.free_after(), Time::from_ns(8)); // [0,6) then [6,8)
    }

    #[test]
    fn pruning_keeps_timeline_bounded() {
        let mut t = tl();
        for i in 0..10_000u64 {
            t.reserve(Time::from_ns(i * 30), Dur::from_ns(6));
        }
        assert!(
            t.busy.len() < 1_000,
            "deque grew unboundedly: {}",
            t.busy.len()
        );
        // Reservations far in the past get bumped to the horizon, never lost.
        let start = t.reserve(Time::ZERO, Dur::from_ns(3));
        assert!(start >= t.horizon);
    }

    #[test]
    fn interval_ending_at_the_start_does_not_move_it() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6)); // [0,6)
        t.reserve(Time::from_ns(12), Dur::from_ns(6)); // [12,18)
        assert_eq!(t.probe(Time::from_ns(6), Dur::from_ns(6)), Time::from_ns(6));
        assert_eq!(t.probe(Time::from_ns(5), Dur::from_ns(6)), Time::from_ns(6));
        assert_eq!(
            t.probe(Time::from_ns(18), Dur::from_ns(3)),
            Time::from_ns(18)
        );
        assert_eq!(
            t.probe(Time::from_ns(9), Dur::from_ns(6)),
            Time::from_ns(18)
        );
    }

    /// Reference timeline: every search and insert scans linearly from
    /// the oldest retained interval, and every insert merges to the tail.
    struct LinearTimeline {
        clock: Dur,
        busy: VecDeque<(Time, Time)>,
        horizon: Time,
    }

    impl LinearTimeline {
        fn probe(&self, not_before: Time, duration: Dur) -> Time {
            let mut start = not_before.max(self.horizon).align_up(self.clock);
            for &(b_start, b_end) in &self.busy {
                if start + duration <= b_start {
                    break;
                }
                if start < b_end {
                    start = b_end.align_up(self.clock);
                }
            }
            start
        }

        fn reserve_at(&mut self, start: Time, duration: Dur) {
            let idx = self
                .busy
                .iter()
                .position(|&(s, _)| s > start)
                .unwrap_or(self.busy.len());
            self.busy.insert(idx, (start, start + duration));
            let mut i = idx.saturating_sub(1);
            while i + 1 < self.busy.len() {
                let (s1, e1) = self.busy[i];
                let (s2, e2) = self.busy[i + 1];
                if e1 >= s2 {
                    self.busy[i] = (s1, e1.max(e2));
                    self.busy.remove(i + 1);
                } else {
                    i += 1;
                }
            }
            let cutoff = Time::from_ps(start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
            while let Some(&(_, end)) = self.busy.front() {
                if end > cutoff {
                    break;
                }
                self.horizon = self.horizon.max(end);
                self.busy.pop_front();
            }
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the differential
    /// tests.
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
        let mut fast = Timeline::new(clock);
        let mut slow = LinearTimeline {
            clock,
            busy: VecDeque::new(),
            horizon: Time::ZERO,
        };
        let mut rng = 0x5EED_0013_u64;
        let mut now = 0u64; // ps
        let mut longest = 0;
        for op in 0..6_000 {
            now += splitmix(&mut rng) % 30_000;
            let r = splitmix(&mut rng);
            // Mostly near-time requests, some far behind (gap filling and
            // the prune horizon) and some well ahead (future gaps).
            let nb = match r % 8 {
                0 => now.saturating_sub(splitmix(&mut rng) % 7_000_000),
                1 => now + splitmix(&mut rng) % 600_000,
                _ => now.saturating_sub(splitmix(&mut rng) % 200_000),
            };
            let not_before = Time::from_ps(nb);
            let duration = clock * (1 + (r >> 8) % 6);
            let expected = slow.probe(not_before, duration);
            match (r >> 16) % 3 {
                0 => assert_eq!(fast.probe(not_before, duration), expected, "probe #{op}"),
                1 => {
                    assert_eq!(
                        fast.reserve(not_before, duration),
                        expected,
                        "reserve #{op}"
                    );
                    slow.reserve_at(expected, duration);
                }
                _ => {
                    fast.reserve_at(expected, duration);
                    slow.reserve_at(expected, duration);
                }
            }
            longest = longest.max(fast.busy.len());
            assert_eq!(fast.busy.len(), slow.busy.len(), "after op #{op}");
        }
        assert_eq!(fast.busy, slow.busy);
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

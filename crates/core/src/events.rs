//! The event queue driving the simulation loop.
//!
//! Two interchangeable implementations sit behind [`EventQueue`]:
//!
//! * [`EventWheel`] — the default: a windowed calendar queue ("event
//!   wheel") with power-of-two time buckets, a two-level occupancy
//!   bitmap for O(1) next-event lookup, and an overflow heap for events
//!   beyond the window. Identical `(time, event)` entries pushed with
//!   `dedup` are collapsed into one slot entry carrying a multiplicity
//!   count, so e.g. a channel is never enqueued twice for the same
//!   instant — the count preserves how many times the handler must run.
//! * a plain `BinaryHeap<Reverse<(Time, T)>>` — the seed implementation,
//!   kept as a differential reference. Select it with the environment
//!   variable `FBD_EVENT_QUEUE=heap`; the golden-parity suite
//!   byte-compares the two.
//!
//! Both pop events in strictly nondecreasing `(Time, T)` order, with
//! same-timestamp events ordered by `T`'s `Ord` — the wheel reproduces
//! the heap's ordering exactly (bucket slots are min-scanned by the
//! full `(Time, T)` key), which is what makes the byte-identity gate
//! possible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fbd_types::time::Time;

/// log2 of the bucket width in picoseconds: 4096 ps ≈ 1.4 DDR2-667
/// clocks, so a bucket rarely holds more than a handful of events.
const SLOT_SHIFT: u32 = 12;
/// Number of buckets in the window (power of two): 1024 × 4096 ps ≈
/// 4.2 µs, wide enough for read completions, refresh and telemetry
/// sampling deadlines; later events overflow to a heap and re-bucket
/// when the window advances.
const SLOTS: usize = 1024;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Occupancy bitmap: one bit per slot, 64 slots per word.
const OCC_WORDS: usize = SLOTS / 64;
/// Initial capacity of each bucket (256 KiB total at 16 B/entry for a
/// `u32`-sized event). A 4096 ps bucket holds at most a couple of
/// clock edges' worth of events per channel, so growth past this is
/// rare — pre-sizing keeps the steady-state hot loop allocation-free
/// (the ring reuses bucket capacity as the window wraps).
const SLOT_CAP: usize = 16;

/// One bucket entry: an event plus how many identical pushes it stands
/// for (always 1 unless pushed with `dedup`).
type Entry<T> = (Time, T, u32);

/// Windowed calendar queue keyed on clock-aligned time buckets.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// Ring of buckets; index = absolute slot & [`SLOT_MASK`].
    slots: Vec<Vec<Entry<T>>>,
    /// Two-level occupancy: bit per slot (ring index order).
    occ: [u64; OCC_WORDS],
    /// First absolute slot of the current window.
    wbase: u64,
    /// Absolute slot scanning resumes from (invariant: every queued
    /// event lives at a slot ≥ `cursor`, because events are never
    /// scheduled in the past).
    cursor: u64,
    /// Entries currently in the ring (not counting `overflow`).
    len: usize,
    /// Events beyond the window; strictly later than everything in the
    /// ring (their absolute slot is ≥ `wbase + SLOTS`).
    overflow: BinaryHeap<Reverse<(Time, T)>>,
}

impl<T: Ord + Copy> Default for EventWheel<T> {
    fn default() -> EventWheel<T> {
        EventWheel::new()
    }
}

impl<T: Ord + Copy> EventWheel<T> {
    /// An empty wheel with its window based at time zero.
    pub fn new() -> EventWheel<T> {
        EventWheel {
            slots: std::iter::repeat_with(|| Vec::with_capacity(SLOT_CAP))
                .take(SLOTS)
                .collect(),
            occ: [0; OCC_WORDS],
            wbase: 0,
            cursor: 0,
            len: 0,
            overflow: BinaryHeap::with_capacity(256),
        }
    }

    fn abs_slot(at: Time) -> u64 {
        at.as_ps() >> SLOT_SHIFT
    }

    /// Queues `ev` at `at`. With `dedup`, an identical `(at, ev)` entry
    /// already in its bucket absorbs the push by incrementing its count
    /// instead of storing a second entry.
    pub fn push(&mut self, at: Time, ev: T, dedup: bool) {
        self.insert(at, ev, 1, dedup);
    }

    /// Queues `n` identical deduped pushes of `ev` at `at` in one call:
    /// the same queue state as `n` calls to [`push`](Self::push) with
    /// `dedup`. In the window the count adds to the entry's
    /// multiplicity; beyond it, `n` copies wait in the overflow heap
    /// and merge when re-bucketed.
    pub fn push_n(&mut self, at: Time, ev: T, n: u32) {
        self.insert(at, ev, n, true);
    }

    fn insert(&mut self, at: Time, ev: T, n: u32, dedup: bool) {
        debug_assert!(n > 0, "an entry stands for at least one push");
        let abs = Self::abs_slot(at);
        debug_assert!(abs >= self.cursor, "event scheduled before the cursor");
        if abs >= self.wbase + SLOTS as u64 {
            for _ in 0..n {
                self.overflow.push(Reverse((at, ev)));
            }
            return;
        }
        let idx = (abs & SLOT_MASK) as usize;
        let slot = &mut self.slots[idx];
        if dedup {
            if let Some(e) = slot.iter_mut().find(|e| e.0 == at && e.1 == ev) {
                e.2 += n;
                return;
            }
        }
        slot.push((at, ev, n));
        self.len += 1;
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Removes and returns the minimum `(Time, T)` entry with its
    /// multiplicity count, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        loop {
            if self.len == 0 {
                if self.overflow.is_empty() {
                    return None;
                }
                self.advance_window();
                continue;
            }
            let abs = self.next_occupied().expect("len > 0 implies a set bit");
            let idx = (abs & SLOT_MASK) as usize;
            let slot = &mut self.slots[idx];
            // Min-scan by the full (Time, T) key: several distinct times
            // (and same-time events of different kinds) share a bucket,
            // and the pop order must match the reference heap's.
            let (min_i, _) = slot
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))
                .expect("occupied slot");
            let entry = slot.swap_remove(min_i);
            self.len -= 1;
            if slot.is_empty() {
                self.occ[idx >> 6] &= !(1u64 << (idx & 63));
            }
            self.cursor = abs;
            return Some(entry);
        }
    }

    /// First occupied absolute slot at or after the cursor, found by
    /// scanning the bitmap a word at a time. The ring wraps only at
    /// word boundaries (SLOTS is a multiple of 64), so each word covers
    /// a contiguous absolute-slot range.
    fn next_occupied(&self) -> Option<u64> {
        let end = self.wbase + SLOTS as u64;
        let mut abs = self.cursor.max(self.wbase);
        while abs < end {
            let idx = (abs & SLOT_MASK) as usize;
            let bit = (idx & 63) as u32;
            let word = self.occ[idx >> 6] & (!0u64 << bit);
            if word != 0 {
                return Some(abs + u64::from(word.trailing_zeros() - bit));
            }
            abs += u64::from(64 - bit);
        }
        None
    }

    /// Re-bases the (empty) ring at the earliest overflow event and
    /// moves every overflow event that now fits into the window.
    fn advance_window(&mut self) {
        debug_assert_eq!(self.len, 0);
        let Some(Reverse((first, _))) = self.overflow.peek() else {
            return;
        };
        self.wbase = Self::abs_slot(*first);
        self.cursor = self.wbase;
        let end = self.wbase + SLOTS as u64;
        while let Some(Reverse((at, _))) = self.overflow.peek() {
            if Self::abs_slot(*at) >= end {
                break;
            }
            let Reverse((at, ev)) = self.overflow.pop().expect("peeked");
            // Re-bucket with dedup so duplicates that met in the
            // overflow heap collapse like direct pushes would.
            self.push(at, ev, true);
        }
    }
}

/// The simulation's event queue: the wheel by default, the seed binary
/// heap when `FBD_EVENT_QUEUE=heap` (differential/parity mode).
#[derive(Debug)]
pub enum EventQueue<T> {
    /// The calendar-queue implementation (default).
    Wheel(EventWheel<T>),
    /// The seed `BinaryHeap` implementation (`FBD_EVENT_QUEUE=heap`).
    Heap(BinaryHeap<Reverse<(Time, T)>>),
}

impl<T: Ord + Copy> EventQueue<T> {
    /// Selects the implementation from `FBD_EVENT_QUEUE` (`wheel` is
    /// the default; `heap` selects the seed implementation).
    pub fn from_env() -> EventQueue<T> {
        match std::env::var("FBD_EVENT_QUEUE") {
            Ok(v) if v == "heap" => EventQueue::Heap(BinaryHeap::new()),
            _ => EventQueue::Wheel(EventWheel::new()),
        }
    }

    /// Queues `ev` at `at`; `dedup` lets the wheel collapse identical
    /// same-instant entries into one multiplicity-counted entry (the
    /// heap ignores it and stores duplicates, as the seed did).
    pub fn push(&mut self, at: Time, ev: T, dedup: bool) {
        match self {
            EventQueue::Wheel(w) => w.push(at, ev, dedup),
            EventQueue::Heap(h) => h.push(Reverse((at, ev))),
        }
    }

    /// Queues `n` identical deduped pushes of `ev` at `at`: one
    /// multiplicity-`n` entry (or an increment of an existing one) on
    /// the wheel, `n` separate copies on the heap.
    pub fn push_n(&mut self, at: Time, ev: T, n: u32) {
        match self {
            EventQueue::Wheel(w) => w.push_n(at, ev, n),
            EventQueue::Heap(h) => {
                for _ in 0..n {
                    h.push(Reverse((at, ev)));
                }
            }
        }
    }

    /// Pops the minimum `(Time, T)` entry and the number of times its
    /// handler must run (> 1 only for deduped wheel entries).
    pub fn pop(&mut self) -> Option<(Time, T, u32)> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(h) => h.pop().map(|Reverse((at, ev))| (at, ev, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    /// Drains `q` into a flat (time, ev) list, expanding counts.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, ev, n)) = q.pop() {
            for _ in 0..n {
                out.push((at.as_ps(), ev));
            }
        }
        out
    }

    #[test]
    fn wheel_matches_heap_on_scrambled_input() {
        // Deterministic scramble across buckets, bucket collisions,
        // same-timestamp events and window overflow.
        let mut evs: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            evs.push((x % 50_000_000, (x >> 32) as u32 % 7));
            if i % 5 == 0 {
                // Exact same-timestamp collisions with distinct events.
                evs.push((evs.last().unwrap().0, 3));
            }
        }
        let mut wheel = EventQueue::Wheel(EventWheel::new());
        let mut heap = EventQueue::<u32>::Heap(BinaryHeap::new());
        for (i, &(ps, ev)) in evs.iter().enumerate() {
            wheel.push(t(ps), ev, false);
            heap.push(t(ps), ev, false);
            if i % 7 == 0 {
                // Multiplicity pushes, landing on entries that already
                // exist and (for far times) in the overflow heap.
                let n = 1 + (i % 4) as u32;
                wheel.push_n(t(ps), ev, n);
                heap.push_n(t(ps), ev, n);
            }
        }
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    #[test]
    fn push_n_merges_into_an_existing_dedup_entry() {
        let mut w = EventWheel::new();
        w.push(t(777), 5u32, true);
        w.push_n(t(777), 5, 3);
        w.push(t(777), 5, true);
        w.push_n(t(777), 6, 2); // different event: its own entry
        assert_eq!(w.pop(), Some((t(777), 5, 5)));
        assert_eq!(w.pop(), Some((t(777), 6, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_n_beyond_the_window_merges_when_rebucketed() {
        let mut w = EventWheel::new();
        w.push(t(1_000), 1u32, false);
        // Far beyond the initial window: `n` copies go to the overflow
        // heap and must come back as one entry with the summed count.
        w.push_n(t(100_000_000), 9, 3);
        w.push(t(100_000_000), 9, true);
        w.push_n(t(100_000_001), 9, 2);
        assert_eq!(w.pop(), Some((t(1_000), 1, 1)));
        assert_eq!(w.pop(), Some((t(100_000_000), 9, 4)));
        // Once the window has advanced, a push_n lands in the ring and
        // merges with the re-bucketed entry directly.
        w.push_n(t(100_000_001), 9, 1);
        assert_eq!(w.pop(), Some((t(100_000_001), 9, 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn heap_push_n_pops_n_identical_entries() {
        let mut h = EventQueue::<u32>::Heap(BinaryHeap::new());
        h.push_n(t(500), 7, 3);
        h.push(t(400), 8, true);
        assert_eq!(h.pop(), Some((t(400), 8, 1)));
        for _ in 0..3 {
            assert_eq!(h.pop(), Some((t(500), 7, 1)));
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn same_timestamp_events_pop_in_event_order() {
        // Determinism gate: equal times order by the event's Ord, no
        // matter the push order, in both implementations.
        for queue in [
            &mut EventQueue::Wheel(EventWheel::new()),
            &mut EventQueue::<u32>::Heap(BinaryHeap::new()),
        ] {
            for ev in [4u32, 1, 3, 0, 2] {
                queue.push(t(1000), ev, false);
                queue.push(t(500), ev, false);
            }
            assert_eq!(
                drain(queue),
                vec![
                    (500, 0),
                    (500, 1),
                    (500, 2),
                    (500, 3),
                    (500, 4),
                    (1000, 0),
                    (1000, 1),
                    (1000, 2),
                    (1000, 3),
                    (1000, 4),
                ]
            );
        }
    }

    #[test]
    fn dedup_collapses_identical_entries_preserving_count() {
        let mut w = EventWheel::new();
        for _ in 0..3 {
            w.push(t(777), 5u32, true);
        }
        w.push(t(777), 6, true); // different event: its own entry
        w.push(t(778), 5, true); // different time: its own entry
        assert_eq!(w.pop(), Some((t(777), 5, 3)));
        assert_eq!(w.pop(), Some((t(777), 6, 1)));
        assert_eq!(w.pop(), Some((t(778), 5, 1)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_with_pushes_at_now() {
        // The hot-loop pattern: pop an event, then push new work at the
        // very same instant; the wheel must surface it before anything
        // later, exactly like the heap.
        let mut w = EventWheel::new();
        w.push(t(10_000), 1u32, false);
        w.push(t(20_000), 2, false);
        assert_eq!(w.pop(), Some((t(10_000), 1, 1)));
        w.push(t(10_000), 0, false); // pushed "at now" after the pop
        assert_eq!(w.pop(), Some((t(10_000), 0, 1)));
        assert_eq!(w.pop(), Some((t(20_000), 2, 1)));
    }

    #[test]
    fn window_advances_through_sparse_far_future_events() {
        let mut w = EventWheel::new();
        // Several events each far outside the previous window.
        let times = [1u64, 10_000_000, 400_000_000, 400_000_001, 9_000_000_000];
        for (i, &ps) in times.iter().enumerate() {
            w.push(t(ps), i as u32, false);
        }
        let got: Vec<u64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.0.as_ps())
            .collect();
        assert_eq!(got, times);
    }

    #[test]
    fn duplicates_split_across_window_and_overflow_still_merge() {
        let mut w = EventWheel::new();
        // Both pushes far beyond the initial window -> overflow heap;
        // after the window advances they must merge into one entry.
        w.push(t(100_000_000), 9u32, true);
        w.push(t(100_000_000), 9, true);
        assert_eq!(w.pop(), Some((t(100_000_000), 9, 2)));
        assert_eq!(w.pop(), None);
    }
}

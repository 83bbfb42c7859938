//! The AMB cache (prefetch buffer).
//!
//! A small SRAM attached to each AMB, holding prefetched cachelines
//! (paper §3.2). The *data* lives on the DIMM; the *tags* live in the
//! memory controller's prefetch information table — but both sides
//! describe the same content, so the simulator keeps one structure per
//! AMB and the controller consults it.
//!
//! Replacement is FIFO by default: "LRU is not suitable for AMB cache
//! because a hit block may be cached in the processor and will not be
//! accessed soon." LRU is implemented for the ablation study.

use std::collections::VecDeque;

use fbd_types::config::{AmbPrefetchConfig, Replacement};
use fbd_types::{LineAddr, LineSet};

/// Tag state of one AMB's prefetch buffer.
///
/// Two views of the same content: per-set queues that own the
/// replacement order and pick victims, and a presence index that
/// answers membership with one hash lookup. Every method leaves the
/// index equal to the union of the sets.
#[derive(Clone, Debug)]
pub struct PrefetchBuffer {
    /// Per-set queues ordered oldest-first (FIFO insertion order; LRU
    /// recency order when the ablation policy is active).
    sets: Vec<VecDeque<LineAddr>>,
    /// Every line held, whatever its set. Sized at twice the capacity
    /// so FIFO churn at full occupancy rehashes in place and never
    /// reallocates.
    present: LineSet,
    ways: usize,
    replacement: Replacement,
}

impl PrefetchBuffer {
    /// Builds a buffer from the prefetcher configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero entries, ways not
    /// dividing entries) — call [`AmbPrefetchConfig::validate`] first.
    pub fn new(cfg: &AmbPrefetchConfig) -> PrefetchBuffer {
        cfg.validate().expect("invalid AMB prefetch configuration");
        let entries = cfg.cache_lines as usize;
        let ways = cfg.associativity.ways(cfg.cache_lines) as usize;
        let num_sets = entries / ways;
        PrefetchBuffer {
            sets: vec![VecDeque::with_capacity(ways); num_sets],
            present: LineSet::with_capacity_and_hasher(2 * entries, Default::default()),
            ways,
            replacement: cfg.replacement,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.as_u64() % self.sets.len() as u64) as usize
    }

    /// Position of a line the index holds within its set's queue.
    fn position(set: &VecDeque<LineAddr>, line: LineAddr) -> usize {
        set.iter()
            .position(|&l| l == line)
            .expect("an indexed line is in its set")
    }

    /// True if `line` is present. No replacement-state side effects.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.present.contains(&line)
    }

    /// Records a demand hit on `line`; returns whether it was present.
    ///
    /// Under FIFO this is equivalent to [`contains`](Self::contains);
    /// under LRU the line is moved to most-recently-used.
    pub fn on_hit(&mut self, line: LineAddr) -> bool {
        if !self.present.contains(&line) {
            return false;
        }
        if self.replacement == Replacement::Lru {
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            set.remove(Self::position(set, line));
            set.push_back(line);
        }
        true
    }

    /// Inserts `line`, evicting the set's oldest (FIFO) or
    /// least-recently-used (LRU) entry if the set is full. Returns the
    /// evicted line, if any. Inserting a line already present refreshes
    /// its queue position without duplicating it.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if !self.present.insert(line) {
            set.remove(Self::position(set, line));
            set.push_back(line);
            return None;
        }
        let evicted = if set.len() == self.ways {
            set.pop_front()
        } else {
            None
        };
        if let Some(victim) = evicted {
            self.present.remove(&victim);
        }
        set.push_back(line);
        evicted
    }

    /// Removes `line` (a processor write made the prefetched copy
    /// stale). Returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if !self.present.remove(&line) {
            return false;
        }
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.remove(Self::position(set, line));
        true
    }

    /// Lines currently held.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True if no lines are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }
}

/// The linear-scan buffer the presence index replaced, kept verbatim
/// as the reference the differential test checks against.
#[cfg(test)]
mod linear {
    use std::collections::VecDeque;

    use fbd_types::config::{AmbPrefetchConfig, Replacement};
    use fbd_types::LineAddr;

    /// Tag state of one AMB's prefetch buffer.
    #[derive(Clone, Debug)]
    pub struct PrefetchBuffer {
        /// Per-set queues ordered oldest-first (FIFO insertion order; LRU
        /// recency order when the ablation policy is active).
        sets: Vec<VecDeque<LineAddr>>,
        ways: usize,
        replacement: Replacement,
    }

    impl PrefetchBuffer {
        /// Builds a buffer from the prefetcher configuration.
        ///
        /// # Panics
        ///
        /// Panics if the configuration is invalid (zero entries, ways not
        /// dividing entries) — call [`AmbPrefetchConfig::validate`] first.
        pub fn new(cfg: &AmbPrefetchConfig) -> PrefetchBuffer {
            cfg.validate().expect("invalid AMB prefetch configuration");
            let entries = cfg.cache_lines as usize;
            let ways = cfg.associativity.ways(cfg.cache_lines) as usize;
            let num_sets = entries / ways;
            PrefetchBuffer {
                sets: vec![VecDeque::with_capacity(ways); num_sets],
                ways,
                replacement: cfg.replacement,
            }
        }

        fn set_index(&self, line: LineAddr) -> usize {
            (line.as_u64() % self.sets.len() as u64) as usize
        }

        /// True if `line` is present. No replacement-state side effects.
        pub fn contains(&self, line: LineAddr) -> bool {
            self.sets[self.set_index(line)].contains(&line)
        }

        /// Records a demand hit on `line`; returns whether it was present.
        ///
        /// Under FIFO this is equivalent to [`contains`](Self::contains);
        /// under LRU the line is moved to most-recently-used.
        pub fn on_hit(&mut self, line: LineAddr) -> bool {
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    if self.replacement == Replacement::Lru {
                        set.remove(pos);
                        set.push_back(line);
                    }
                    true
                }
                None => false,
            }
        }

        /// Inserts `line`, evicting the set's oldest (FIFO) or
        /// least-recently-used (LRU) entry if the set is full. Returns the
        /// evicted line, if any. Inserting a line already present refreshes
        /// its queue position without duplicating it.
        pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
            let idx = self.set_index(line);
            let ways = self.ways;
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                set.push_back(line);
                return None;
            }
            let evicted = if set.len() == ways {
                set.pop_front()
            } else {
                None
            };
            set.push_back(line);
            evicted
        }

        /// Removes `line` (a processor write made the prefetched copy
        /// stale). Returns whether it was present.
        pub fn invalidate(&mut self, line: LineAddr) -> bool {
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => false,
            }
        }

        /// Lines currently held.
        pub fn len(&self) -> usize {
            self.sets.iter().map(VecDeque::len).sum()
        }

        /// True if no lines are held.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Total capacity in lines.
        pub fn capacity(&self) -> usize {
            self.sets.len() * self.ways
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::{Associativity, Replacement};

    fn cfg(entries: u32, assoc: Associativity, replacement: Replacement) -> AmbPrefetchConfig {
        AmbPrefetchConfig {
            cache_lines: entries,
            associativity: assoc,
            replacement,
            region_lines: 2,
            ..AmbPrefetchConfig::paper_default()
        }
    }

    fn full_fifo(entries: u32) -> PrefetchBuffer {
        PrefetchBuffer::new(&cfg(entries, Associativity::Full, Replacement::Fifo))
    }

    #[test]
    fn insert_then_hit() {
        let mut buf = full_fifo(4);
        assert!(!buf.contains(LineAddr::new(10)));
        assert_eq!(buf.insert(LineAddr::new(10)), None);
        assert!(buf.contains(LineAddr::new(10)));
        assert!(buf.on_hit(LineAddr::new(10)));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest_regardless_of_hits() {
        let mut buf = full_fifo(2);
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        // Hit on 1 must NOT protect it under FIFO.
        assert!(buf.on_hit(LineAddr::new(1)));
        let evicted = buf.insert(LineAddr::new(3));
        assert_eq!(evicted, Some(LineAddr::new(1)));
        assert!(buf.contains(LineAddr::new(2)));
        assert!(buf.contains(LineAddr::new(3)));
    }

    #[test]
    fn lru_hit_protects_entry() {
        let mut buf = PrefetchBuffer::new(&cfg(2, Associativity::Full, Replacement::Lru));
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        assert!(buf.on_hit(LineAddr::new(1)));
        let evicted = buf.insert(LineAddr::new(3));
        assert_eq!(evicted, Some(LineAddr::new(2)));
        assert!(buf.contains(LineAddr::new(1)));
    }

    #[test]
    fn duplicate_insert_does_not_grow_or_evict() {
        let mut buf = full_fifo(2);
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        assert_eq!(buf.insert(LineAddr::new(2)), None);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn direct_mapped_conflicts_within_set() {
        let mut buf = PrefetchBuffer::new(&cfg(4, Associativity::Direct, Replacement::Fifo));
        // Lines 0 and 4 collide in a 4-set direct-mapped buffer.
        buf.insert(LineAddr::new(0));
        assert_eq!(buf.insert(LineAddr::new(4)), Some(LineAddr::new(0)));
        // Lines 1..3 occupy other sets without conflict.
        assert_eq!(buf.insert(LineAddr::new(1)), None);
        assert_eq!(buf.insert(LineAddr::new(2)), None);
        assert_eq!(buf.insert(LineAddr::new(3)), None);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), 4);
    }

    #[test]
    fn set_associative_uses_way_capacity() {
        let mut buf = PrefetchBuffer::new(&cfg(4, Associativity::Ways(2), Replacement::Fifo));
        // 2 sets × 2 ways. Lines 0, 2, 4 map to set 0.
        buf.insert(LineAddr::new(0));
        buf.insert(LineAddr::new(2));
        assert_eq!(buf.insert(LineAddr::new(4)), Some(LineAddr::new(0)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut buf = full_fifo(4);
        buf.insert(LineAddr::new(7));
        assert!(buf.invalidate(LineAddr::new(7)));
        assert!(!buf.contains(LineAddr::new(7)));
        assert!(!buf.invalidate(LineAddr::new(7)));
        assert!(buf.is_empty());
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut buf = full_fifo(8);
        for i in 0..100 {
            buf.insert(LineAddr::new(i));
            assert!(buf.len() <= 8);
        }
        assert_eq!(buf.len(), 8);
        // The survivors are the 8 most recent.
        for i in 92..100 {
            assert!(buf.contains(LineAddr::new(i)));
        }
    }

    #[test]
    #[should_panic(expected = "invalid AMB prefetch configuration")]
    fn invalid_config_rejected() {
        let _ = PrefetchBuffer::new(&cfg(3, Associativity::Full, Replacement::Fifo));
    }

    /// A deterministic op stream (splitmix64).
    struct Ops(u64);

    impl Ops {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn indexed_buffer_matches_the_linear_scan_reference() {
        let assocs = [
            Associativity::Direct,
            Associativity::Ways(2),
            Associativity::Ways(4),
            Associativity::Full,
        ];
        for entries in [32u32, 64, 128] {
            for assoc in assocs {
                for replacement in [Replacement::Fifo, Replacement::Lru] {
                    let c = cfg(entries, assoc, replacement);
                    let mut fast = PrefetchBuffer::new(&c);
                    let mut slow = linear::PrefetchBuffer::new(&c);
                    let mut ops = Ops(u64::from(entries) << 8 | u64::from(assoc.ways(entries)));
                    // A line space about 4x the capacity: a useful mix
                    // of hits, misses, duplicates and evictions.
                    let space = 4 * u64::from(entries);
                    for step in 0..20_000 {
                        let line = LineAddr::new(ops.below(space));
                        let what = format!("{entries} {assoc:?} {replacement:?} step {step}");
                        match ops.below(8) {
                            0..=2 => assert_eq!(fast.insert(line), slow.insert(line), "{what}"),
                            3..=4 => assert_eq!(fast.on_hit(line), slow.on_hit(line), "{what}"),
                            5..=6 => {
                                assert_eq!(fast.contains(line), slow.contains(line), "{what}")
                            }
                            _ => assert_eq!(fast.invalidate(line), slow.invalidate(line), "{what}"),
                        }
                        assert_eq!(fast.len(), slow.len(), "{what}");
                        assert_eq!(fast.is_empty(), slow.is_empty(), "{what}");
                    }
                    assert_eq!(fast.capacity(), slow.capacity());
                    assert!(!fast.is_empty());
                }
            }
        }
    }

    #[test]
    fn churn_on_a_full_buffer_never_resizes_the_index() {
        for entries in [32u32, 64, 128] {
            for replacement in [Replacement::Fifo, Replacement::Lru] {
                // The table builds its buffers by cloning one.
                let c = cfg(entries, Associativity::Full, replacement);
                let mut buf = PrefetchBuffer::new(&c).clone();
                // `capacity()` is live lines plus free slots before the
                // next rehash. A removal that leaves a tombstone lowers
                // it until an in-place rehash restores it; growing the
                // table at least doubles it.
                let cap = buf.present.capacity();
                assert!(cap >= 2 * entries as usize);
                let mut ops = Ops(u64::from(entries));
                let mut recent = [LineAddr::new(0); 64];
                for step in 0..100_000 {
                    // Fills of scattered lines (the FIFO churn), with
                    // demand hits and write invalidates of recent fills.
                    match ops.below(4) {
                        0 | 1 => {
                            let line = LineAddr::new(ops.below(1 << 40));
                            buf.insert(line);
                            recent[step % recent.len()] = line;
                        }
                        2 => {
                            buf.on_hit(recent[ops.below(64) as usize]);
                        }
                        _ => {
                            buf.invalidate(recent[ops.below(64) as usize]);
                        }
                    }
                    assert!(
                        buf.present.capacity() <= cap,
                        "{entries} {replacement:?}: the index grew at step {step}"
                    );
                }
                assert!(buf.len() > entries as usize / 2);
            }
        }
    }
}

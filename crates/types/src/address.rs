//! Physical addresses, cacheline addresses and prefetch regions.
//!
//! The memory hierarchy works at three granularities:
//!
//! * byte-granular [`PhysAddr`] — what the CPU model produces;
//! * line-granular [`LineAddr`] — one 64-byte L2 cache block, the unit
//!   the memory subsystem transfers;
//! * [`RegionId`] — a group of `K` consecutive lines, the unit the AMB
//!   prefetcher fetches (paper §3.2).
//!
//! # Examples
//!
//! ```
//! use fbd_types::address::{LineAddr, PhysAddr, CACHE_LINE_BYTES};
//!
//! let addr = PhysAddr::new(0x1_0040);
//! let line = addr.line();
//! assert_eq!(line, LineAddr::new(0x1_0040 / CACHE_LINE_BYTES));
//! // Block 6 of the paper's Figure 2 example: its 4-line region holds 4..=7.
//! let region = LineAddr::new(6).region(4);
//! assert_eq!(region.lines(4).collect::<Vec<_>>(),
//!            (4..8).map(LineAddr::new).collect::<Vec<_>>());
//! ```

use core::fmt;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Size of an L2 cache block / memory transfer unit, in bytes (Table 1).
pub const CACHE_LINE_BYTES: u64 = 64;

/// A byte-granular physical memory address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> PhysAddr {
        PhysAddr(addr)
    }

    /// Raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cacheline this byte falls in.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / CACHE_LINE_BYTES)
    }

    /// Byte offset within the cacheline.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 % CACHE_LINE_BYTES
    }
}

impl From<LineAddr> for PhysAddr {
    /// The first byte of the line.
    #[inline]
    fn from(line: LineAddr) -> PhysAddr {
        PhysAddr(line.0 * CACHE_LINE_BYTES)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cacheline-granular address (byte address divided by 64).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line number.
    #[inline]
    pub const fn new(line: u64) -> LineAddr {
        LineAddr(line)
    }

    /// Raw line number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The prefetch region this line falls in, for regions of
    /// `region_lines` cachelines.
    ///
    /// # Panics
    ///
    /// Panics if `region_lines` is zero.
    #[inline]
    pub fn region(self, region_lines: u64) -> RegionId {
        assert!(region_lines > 0, "region size must be non-zero");
        RegionId(self.0 / region_lines)
    }

    /// Index of this line within its region.
    #[inline]
    pub fn region_offset(self, region_lines: u64) -> u64 {
        assert!(region_lines > 0, "region size must be non-zero");
        self.0 % region_lines
    }

    /// The line `delta` lines after this one.
    #[inline]
    pub const fn offset(self, delta: u64) -> LineAddr {
        LineAddr(self.0 + delta)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A set of cachelines, hashed with [`LineHasher`].
pub type LineSet = HashSet<LineAddr, BuildHasherDefault<LineHasher>>;

/// A map keyed by cacheline, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// The hasher behind [`LineSet`] and [`LineMap`]: one multiply per
/// 64-bit word and a final rotate (the FxHash scheme).
///
/// The hasher has no per-process seed: a given key hashes the same in
/// every run. The rotate moves the product's well-mixed high bits down
/// into the bucket index, so lines that share their low bits (one
/// channel's or DIMM's lines under an interleaved mapping) still spread
/// over the table. It gives up SipHash's resistance to crafted
/// collisions, which a replayed trace could attempt. The tables that
/// use it are bounded by a configured size (an AMB cache, the L2
/// MSHRs) or grow only on a CRC escape (poisoned lines), so colliding
/// lines cost at worst a scan of one such table.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl LineHasher {
    /// An odd constant with well-spread bits (2^64 / φ).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Identifier of a `K`-line prefetch region (paper §3.2).
///
/// Region `r` of size `K` covers lines `r*K .. (r+1)*K`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u64);

impl RegionId {
    /// Creates a region id directly.
    #[inline]
    pub const fn new(region: u64) -> RegionId {
        RegionId(region)
    }

    /// Raw region number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// First line of the region.
    #[inline]
    pub const fn base_line(self, region_lines: u64) -> LineAddr {
        LineAddr(self.0 * region_lines)
    }

    /// Iterator over all lines in the region, demanded-line order not
    /// applied (callers reorder so the demanded line goes first).
    pub fn lines(self, region_lines: u64) -> impl Iterator<Item = LineAddr> {
        let base = self.0 * region_lines;
        (base..base + region_lines).map(LineAddr)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_to_line_truncates() {
        assert_eq!(PhysAddr::new(0).line(), LineAddr::new(0));
        assert_eq!(PhysAddr::new(63).line(), LineAddr::new(0));
        assert_eq!(PhysAddr::new(64).line(), LineAddr::new(1));
        assert_eq!(PhysAddr::new(130).line_offset(), 2);
    }

    #[test]
    fn line_to_phys_is_line_base() {
        let line = LineAddr::new(3);
        assert_eq!(PhysAddr::from(line), PhysAddr::new(192));
        assert_eq!(PhysAddr::from(line).line(), line);
    }

    #[test]
    fn region_math_matches_paper_figure2() {
        // Paper Figure 2: with 4-line regions, demanded block 6 prefetches
        // blocks 4, 5 and 7 (the rest of region 1).
        let demanded = LineAddr::new(6);
        let region = demanded.region(4);
        assert_eq!(region, RegionId::new(1));
        assert_eq!(demanded.region_offset(4), 2);
        let rest: Vec<u64> = region
            .lines(4)
            .filter(|l| *l != demanded)
            .map(LineAddr::as_u64)
            .collect();
        assert_eq!(rest, vec![4, 5, 7]);
    }

    #[test]
    fn line_hasher_is_fixed_across_instances() {
        use std::hash::BuildHasher;
        let b = BuildHasherDefault::<LineHasher>::default();
        let line = LineAddr::new(0x1234_5678);
        assert_eq!(b.hash_one(line), b.hash_one(line));
        // The documented scheme, so every process agrees on it.
        assert_eq!(
            b.hash_one(line),
            0x1234_5678u64.wrapping_mul(LineHasher::K).rotate_left(26)
        );
        assert_ne!(b.hash_one(line), b.hash_one(line.offset(1)));
    }

    #[test]
    fn line_hasher_spreads_lines_that_share_low_bits() {
        use std::hash::BuildHasher;
        let b = BuildHasherDefault::<LineHasher>::default();
        // Every 16th line (one DIMM's share under a 16-way interleave)
        // still fills all 64 buckets of a 64-bucket table.
        let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|i| b.hash_one(LineAddr::new(i * 16 + 5)) & 63)
            .collect();
        assert_eq!(buckets.len(), 64);
        let mut set = LineSet::default();
        assert!(set.insert(LineAddr::new(7)));
        assert!(!set.insert(LineAddr::new(7)));
    }

    #[test]
    fn region_base_line_round_trips() {
        for k in [2u64, 4, 8] {
            for line in 0..64u64 {
                let l = LineAddr::new(line);
                let r = l.region(k);
                let base = r.base_line(k);
                assert!(base <= l);
                assert!(l.as_u64() < base.as_u64() + k);
                assert_eq!(base.as_u64() + l.region_offset(k), l.as_u64());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_region_size_rejected() {
        let _ = LineAddr::new(1).region(0);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(format!("{}", PhysAddr::new(0x40)), "0x40");
        assert_eq!(format!("{}", LineAddr::new(1)), "line:0x1");
        assert_eq!(format!("{}", RegionId::new(2)), "region:0x2");
    }
}

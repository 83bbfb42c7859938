//! Address mapping: how cacheline addresses are laid out onto channels,
//! DIMMs, banks, rows and columns (paper §3.2, Figure 2).
//!
//! All three interleaving schemes share one formula parameterized by the
//! *group size* G: consecutive G-line groups round-robin over
//! {channel → DIMM → bank}; within one bank, `lines_per_page / G` groups
//! pack into each DRAM row.
//!
//! * cacheline interleaving: G = 1;
//! * multi-cacheline interleaving (required by AMB prefetching): G = K;
//! * page interleaving: G = lines per page.

use fbd_types::config::MemoryConfig;
use fbd_types::LineAddr;

#[cfg(test)]
use fbd_types::config::Interleaving;

/// A cacheline's location in the memory subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MappedAddr {
    /// Logical channel index.
    pub channel: u32,
    /// Logical DIMM index within the channel.
    pub dimm: u32,
    /// Rank within the DIMM.
    pub rank: u32,
    /// Logical bank index within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Column, expressed in cachelines within the row.
    pub col_line: u32,
}

/// The workspace's address mapper: G-line groups round-robin over
/// {channel → DIMM → rank → bank}, with optional XOR bank permutation.
///
/// [`unmap`](Self::unmap) inverts [`map`](Self::map) for every address
/// within [`capacity_lines`](Self::capacity_lines), for *any* validated
/// geometry — including non-power-of-two DIMM counts.
#[derive(Clone, Copy, Debug)]
pub struct InterleavedMapper {
    channels: u64,
    dimms: u64,
    ranks: u64,
    banks: u64,
    rows: u64,
    lines_per_page: u64,
    group_lines: u64,
    /// XOR the bank index with the row's low bits (permutation-based
    /// interleaving, Zhang–Zhu–Zhang). Self-inverse, so `unmap` applies
    /// the same XOR.
    permute: bool,
}

impl InterleavedMapper {
    /// Builds the mapper for a memory configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (validate it first).
    pub fn new(cfg: &MemoryConfig) -> InterleavedMapper {
        cfg.validate().expect("invalid memory configuration");
        let lines_per_page = u64::from(cfg.lines_per_page());
        let group_lines = u64::from(cfg.interleaving.group_lines(cfg.lines_per_page()));
        InterleavedMapper {
            channels: u64::from(cfg.logical_channels),
            dimms: u64::from(cfg.dimms_per_channel),
            ranks: u64::from(cfg.ranks_per_dimm),
            banks: u64::from(cfg.banks_per_dimm),
            rows: u64::from(cfg.rows_per_bank),
            lines_per_page,
            group_lines,
            permute: cfg.xor_permutation,
        }
    }

    /// Total mappable lines before addresses wrap.
    pub fn capacity_lines(&self) -> u64 {
        self.channels * self.dimms * self.ranks * self.banks * self.rows * self.lines_per_page
    }

    /// Maps a cacheline address onto {channel, DIMM, bank, row, column}.
    ///
    /// Addresses beyond the capacity wrap around (row index is taken
    /// modulo the row count), mirroring physical-address aliasing.
    pub fn map(&self, line: LineAddr) -> MappedAddr {
        let line = line.as_u64();
        let group = line / self.group_lines;
        let offset = line % self.group_lines;
        let groups_per_row = self.lines_per_page / self.group_lines;

        let channel = group % self.channels;
        let rest = group / self.channels;
        let dimm = rest % self.dimms;
        let rest = rest / self.dimms;
        let rank = rest % self.ranks;
        let rest = rest / self.ranks;
        let mut bank = rest % self.banks;
        let rest = rest / self.banks;
        let slot = rest % groups_per_row;
        let row = (rest / groups_per_row) % self.rows;
        if self.permute {
            bank ^= row % self.banks;
        }

        MappedAddr {
            channel: channel as u32,
            dimm: dimm as u32,
            rank: rank as u32,
            bank: bank as u32,
            row: row as u32,
            col_line: (slot * self.group_lines + offset) as u32,
        }
    }

    /// Inverse of [`map`](Self::map) for addresses within capacity.
    pub fn unmap(&self, m: MappedAddr) -> LineAddr {
        let groups_per_row = self.lines_per_page / self.group_lines;
        let slot = u64::from(m.col_line) / self.group_lines;
        let offset = u64::from(m.col_line) % self.group_lines;
        let bank = if self.permute {
            u64::from(m.bank) ^ (u64::from(m.row) % self.banks)
        } else {
            u64::from(m.bank)
        };
        let group = (((u64::from(m.row) * groups_per_row + slot) * self.banks + bank) * self.ranks
            + u64::from(m.rank))
            * self.dimms
            * self.channels
            + u64::from(m.dimm) * self.channels
            + u64::from(m.channel);
        LineAddr::new(group * self.group_lines + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::MemoryConfig;

    fn mapper(interleaving: Interleaving) -> InterleavedMapper {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.interleaving = interleaving;
        if let Interleaving::Page = interleaving {
            cfg.page_policy = fbd_types::config::PagePolicy::OpenPage;
        }
        InterleavedMapper::new(&cfg)
    }

    #[test]
    fn figure2_four_line_groups_share_a_row() {
        // Paper Figure 2: blocks 4..=7 form one group on one bank row;
        // block 6's neighbours 4, 5, 7 are in the same row.
        let m = mapper(Interleaving::MultiCacheline { lines: 4 });
        let six = m.map(LineAddr::new(6));
        for other in [4u64, 5, 7] {
            let o = m.map(LineAddr::new(other));
            assert_eq!(
                (o.channel, o.dimm, o.bank, o.row),
                (six.channel, six.dimm, six.bank, six.row)
            );
        }
        // The next group lands on a different channel (round-robin).
        let eight = m.map(LineAddr::new(8));
        assert_ne!(eight.channel, six.channel);
    }

    #[test]
    fn cacheline_interleaving_spreads_consecutive_lines() {
        let m = mapper(Interleaving::Cacheline);
        let a = m.map(LineAddr::new(0));
        let b = m.map(LineAddr::new(1));
        assert_ne!(a.channel, b.channel);
        // Lines 0 and 2 are on the same channel but different DIMMs.
        let c = m.map(LineAddr::new(2));
        assert_eq!(a.channel, c.channel);
        assert_ne!(a.dimm, c.dimm);
    }

    #[test]
    fn page_interleaving_keeps_whole_page_on_one_bank() {
        let m = mapper(Interleaving::Page);
        let base = m.map(LineAddr::new(0));
        for l in 1..128u64 {
            let x = m.map(LineAddr::new(l));
            assert_eq!(
                (x.channel, x.dimm, x.bank, x.row),
                (base.channel, base.dimm, base.bank, base.row)
            );
            assert_eq!(x.col_line, l as u32);
        }
        let next = m.map(LineAddr::new(128));
        assert_ne!(next.channel, base.channel);
    }

    #[test]
    fn consecutive_groups_cycle_channels_then_dimms_then_banks() {
        let m = mapper(Interleaving::MultiCacheline { lines: 4 });
        // 2 channels × 4 dimms × 4 banks = 32 groups before reuse.
        let mut seen = std::collections::HashSet::new();
        for g in 0..32u64 {
            let x = m.map(LineAddr::new(g * 4));
            assert!(
                seen.insert((x.channel, x.dimm, x.bank)),
                "bank reused early at group {g}"
            );
        }
        // Group 32 returns to the first bank, next row slot.
        let x = m.map(LineAddr::new(32 * 4));
        let first = m.map(LineAddr::new(0));
        assert_eq!(
            (x.channel, x.dimm, x.bank, x.row),
            (first.channel, first.dimm, first.bank, first.row)
        );
        assert_eq!(x.col_line, 4);
    }

    #[test]
    fn unmap_round_trips_within_capacity() {
        for interleaving in [
            Interleaving::Cacheline,
            Interleaving::MultiCacheline { lines: 4 },
            Interleaving::MultiCacheline { lines: 8 },
            Interleaving::Page,
        ] {
            let m = mapper(interleaving);
            for l in (0..100_000u64).step_by(97) {
                let line = LineAddr::new(l);
                assert_eq!(m.unmap(m.map(line)), line, "{interleaving:?} line {l}");
            }
        }
    }

    #[test]
    fn capacity_counts_all_coordinates() {
        let m = mapper(Interleaving::Cacheline);
        // 2 ch × 4 dimms × 4 banks × 16384 rows × 128 lines.
        assert_eq!(m.capacity_lines(), 2 * 4 * 4 * 16_384 * 128);
    }

    #[test]
    fn permutation_round_trips_and_spreads_conflicts() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.page_policy = fbd_types::config::PagePolicy::OpenPage;
        cfg.interleaving = Interleaving::Page;
        cfg.xor_permutation = true;
        let m = InterleavedMapper::new(&cfg);
        // Bijection still holds.
        for l in (0..200_000u64).step_by(73) {
            assert_eq!(m.unmap(m.map(LineAddr::new(l))), LineAddr::new(l));
        }
        // Pages that collide on one bank WITHOUT permutation (stride =
        // one full bank rotation) spread across banks WITH it.
        let stride = 32 * 128; // channels*dimms*banks pages of 128 lines
        let banks: std::collections::HashSet<u32> = (0..8u64)
            .map(|i| m.map(LineAddr::new(i * stride)).bank)
            .collect();
        assert!(
            banks.len() > 1,
            "permutation must spread row-conflict hotspots"
        );

        cfg.xor_permutation = false;
        let plain = InterleavedMapper::new(&cfg);
        let same: std::collections::HashSet<u32> = (0..8u64)
            .map(|i| plain.map(LineAddr::new(i * stride)).bank)
            .collect();
        assert_eq!(
            same.len(),
            1,
            "without permutation the stride hammers one bank"
        );
    }

    #[test]
    fn permutation_keeps_regions_on_one_row() {
        // AMB prefetching integrity: a region's lines still share a bank
        // row under permutation.
        let mut cfg = MemoryConfig::fbdimm_with_prefetch();
        cfg.xor_permutation = true;
        let m = InterleavedMapper::new(&cfg);
        for base in (0..4_000u64).step_by(4) {
            let first = m.map(LineAddr::new(base));
            for off in 1..4 {
                let x = m.map(LineAddr::new(base + off));
                assert_eq!(
                    (x.channel, x.dimm, x.bank, x.row),
                    (first.channel, first.dimm, first.bank, first.row)
                );
            }
        }
    }

    #[test]
    fn multi_rank_round_trips_and_extends_capacity() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.ranks_per_dimm = 2;
        let m = InterleavedMapper::new(&cfg);
        assert_eq!(m.capacity_lines(), 2 * 4 * 2 * 4 * 16_384 * 128);
        for l in (0..300_000u64).step_by(61) {
            let x = m.map(LineAddr::new(l));
            assert!(x.rank < 2);
            assert_eq!(m.unmap(x), LineAddr::new(l));
        }
        // Both ranks actually get used.
        let ranks: std::collections::HashSet<u32> =
            (0..64u64).map(|l| m.map(LineAddr::new(l)).rank).collect();
        assert_eq!(ranks.len(), 2);
    }

    #[test]
    fn unmap_round_trips_at_non_pow2_dimm_counts() {
        // The hole this closes: `validate()` used to require a
        // power-of-two DIMM count, so the round-trip was never
        // exercised off the pow2 grid. The mapper is modular
        // arithmetic, so 3-, 5-, 6- and 7-DIMM channels must decode
        // exactly too (with and without the bank-permutation XOR).
        for dimms in [3u32, 5, 6, 7] {
            for permute in [false, true] {
                let mut cfg = MemoryConfig::fbdimm_default();
                cfg.dimms_per_channel = dimms;
                cfg.xor_permutation = permute;
                cfg.validate().expect("non-pow2 DIMM counts are valid");
                let m = InterleavedMapper::new(&cfg);
                assert_eq!(m.capacity_lines(), 2 * u64::from(dimms) * 4 * 16_384 * 128);
                let mut dimms_seen = std::collections::HashSet::new();
                for l in (0..500_000u64).step_by(131) {
                    let x = m.map(LineAddr::new(l));
                    assert!(x.dimm < dimms, "dimm {} out of range", x.dimm);
                    dimms_seen.insert(x.dimm);
                    assert_eq!(
                        m.unmap(x),
                        LineAddr::new(l),
                        "{dimms} dimms, permute={permute}, line {l}"
                    );
                }
                assert_eq!(dimms_seen.len() as u32, dimms, "every DIMM used");
            }
        }
    }

    #[test]
    fn addresses_beyond_capacity_wrap() {
        let m = mapper(Interleaving::Cacheline);
        let cap = m.capacity_lines();
        let a = m.map(LineAddr::new(5));
        let b = m.map(LineAddr::new(cap + 5));
        assert_eq!(a, b);
    }
}

//! Refresh timing.
//!
//! [`StaggeredRefresh`] decides *when* each DIMM refreshes; the memory
//! system owns *what happens* (occupying the banks for tRFC and
//! charging the power model) and builds the manager only when the
//! config's `refresh.enabled` switch is set. The manager emits
//! [`RefreshOp`]s for every deadline at or before `now`, in a
//! deterministic order, so the timing outcome is identical to an
//! inlined deadline loop.

use fbd_types::config::MemoryConfig;
use fbd_types::time::{Dur, Time};

/// One refresh the manager has scheduled: DIMM `dimm` is busy for
/// `t_rfc` starting at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshOp {
    /// DIMM index within the channel.
    pub dimm: u32,
    /// When the refresh starts.
    pub at: Time,
    /// How long every rank of the DIMM stays busy.
    pub t_rfc: Dur,
}

/// Per-DIMM deadlines staggered across the channel: DIMM `i` first
/// refreshes at `(tREFI / n) * (i + 1)` and every `tREFI` after, as real
/// controllers stagger refresh so the whole subsystem never stalls at
/// once.
#[derive(Clone, Debug)]
pub struct StaggeredRefresh {
    t_refi: Dur,
    t_rfc: Dur,
    /// `deadlines[channel][dimm]` = next refresh instant.
    deadlines: Vec<Vec<Time>>,
}

impl StaggeredRefresh {
    /// Creates the manager for `cfg`'s geometry and refresh timings.
    pub fn new(cfg: &MemoryConfig) -> StaggeredRefresh {
        let n = u64::from(cfg.dimms_per_channel);
        let per_channel: Vec<Time> = (0..n)
            .map(|i| Time::ZERO + (cfg.refresh.t_refi / n) * (i + 1))
            .collect();
        StaggeredRefresh {
            t_refi: cfg.refresh.t_refi,
            t_rfc: cfg.refresh.t_rfc,
            deadlines: vec![per_channel; cfg.logical_channels as usize],
        }
    }

    /// Appends to `out` every refresh on channel `ch` whose deadline is
    /// at or before `now`, advancing the internal deadlines. Ops are
    /// emitted DIMM by DIMM, oldest deadline first within a DIMM.
    ///
    /// Contract: a second call with the same `ch` and `now` appends
    /// nothing (the first drained every deadline at or before `now`).
    /// The controller relies on it when it folds a decision's idle
    /// same-instant reruns instead of executing them (DESIGN.md §16).
    pub fn due(&mut self, ch: u32, now: Time, out: &mut Vec<RefreshOp>) {
        for (dimm, due) in self.deadlines[ch as usize].iter_mut().enumerate() {
            while *due <= now {
                out.push(RefreshOp {
                    dimm: dimm as u32,
                    at: *due,
                    t_rfc: self.t_rfc,
                });
                *due += self.t_refi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemoryConfig {
        // fbdimm_default ships with refresh off (the paper's setting);
        // these tests exercise the enabled path.
        MemoryConfig {
            refresh: fbd_types::config::RefreshConfig::ddr2_1gb(),
            ..MemoryConfig::fbdimm_default()
        }
    }

    #[test]
    fn staggered_deadlines_match_the_documented_offsets() {
        let c = cfg();
        let mut m = StaggeredRefresh::new(&c);
        let n = u64::from(c.dimms_per_channel);
        let step = c.refresh.t_refi / n;
        // Just before the first deadline: nothing due.
        let mut ops = Vec::new();
        m.due(0, Time::ZERO + step - Dur::from_ps(1), &mut ops);
        assert!(ops.is_empty());
        // At the last first-round deadline: one op per DIMM, staggered.
        m.due(0, Time::ZERO + step * n, &mut ops);
        assert_eq!(ops.len(), c.dimms_per_channel as usize);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.dimm, i as u32);
            assert_eq!(op.at, Time::ZERO + step * (i as u64 + 1));
            assert_eq!(op.t_rfc, c.refresh.t_rfc);
        }
    }

    #[test]
    fn deadlines_advance_by_t_refi_and_are_per_channel() {
        let c = cfg();
        let mut m = StaggeredRefresh::new(&c);
        let mut ops = Vec::new();
        let far = Time::ZERO + c.refresh.t_refi * 2;
        m.due(0, far, &mut ops);
        // Two full rounds per DIMM by 2*tREFI.
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Channel 1 is untouched by channel 0's drain.
        ops.clear();
        m.due(1, far, &mut ops);
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Re-polling channel 0 at the same instant yields nothing new.
        ops.clear();
        m.due(0, far, &mut ops);
        assert!(ops.is_empty());
    }

    #[test]
    fn a_second_due_call_at_the_same_instant_appends_nothing() {
        let c = cfg();
        let n = u64::from(c.dimms_per_channel);
        let step = c.refresh.t_refi / n;
        let mut m = StaggeredRefresh::new(&c);
        let mut ops = Vec::new();
        // Instants just before, exactly at and just after staggered
        // deadlines, plus jumps that cross several rounds at once.
        let mut now = Time::ZERO;
        for k in 0..4 * n {
            for at in [
                now + step - Dur::from_ps(1),
                Time::ZERO + step * (k + 1),
                Time::ZERO + step * (k + 1) + Dur::from_ps(1),
                Time::ZERO + step * (3 * k + 2),
            ] {
                now = now.max(at);
                for ch in 0..c.logical_channels {
                    ops.clear();
                    m.due(ch, now, &mut ops);
                    ops.clear();
                    m.due(ch, now, &mut ops);
                    assert!(
                        ops.is_empty(),
                        "ch {ch}: second call at {now:?} yielded {ops:?}"
                    );
                }
            }
        }
    }
}

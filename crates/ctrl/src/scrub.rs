//! Patrol scrubbing: rate-limited background read-verify-rewrite
//! sweeps over recently touched lines.
//!
//! Scrubbing is the repair half of the silent-corruption story: a CRC
//! escape leaves a line poisoned in DRAM with nobody the wiser, and
//! only a background sweep (or an overwrite) can make it clean again
//! before a demand read consumes it. [`PatrolScrub`] decides *which*
//! line to verify and *when*; the memory system executes the sweep as
//! real traffic (a read, plus a rewrite when the line turns out
//! poisoned) through the ordinary channel datapath, so its bandwidth
//! and energy costs are modeled rather than assumed free.
//!
//! Patrol is deliberately opportunistic: the controller polls it only
//! at idle decision points, so scrub traffic never displaces a
//! schedulable demand access and never creates wake-up events of its
//! own. A saturated channel therefore scrubs rarely — which is the
//! real trade-off patrol scrubbing makes.

use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;

/// Lines each channel's patrol ring remembers. Old entries are
/// overwritten FIFO; a line evicted before its sweep simply waits for
/// its next observation (patrol is best-effort by construction).
const PATROL_RING: usize = 1024;

/// Round-robin patrol over recently touched lines, one sweep per
/// channel per `scrub_interval_ns` at most.
///
/// The ring deliberately tracks *observed* lines rather than walking
/// the whole address space: a full-capacity walk at DIMM scale would
/// take longer than any simulated window, while the recently touched
/// set is exactly where poisoned lines (which arrive via real
/// transfers) live.
#[derive(Clone, Debug)]
pub struct PatrolScrub {
    interval: Dur,
    channels: Vec<PatrolChannel>,
}

#[derive(Clone, Debug)]
struct PatrolChannel {
    ring: Vec<LineAddr>,
    /// Next ring slot `observe` overwrites.
    write: usize,
    /// Next ring slot `next_scrub` sweeps.
    sweep: usize,
    /// When the previous sweep was dispatched (rate-limit clock).
    last: Option<Time>,
}

impl PatrolScrub {
    /// Creates the patrol policy for `channels` channels with at most
    /// one sweep per channel per `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (validated at config level).
    pub fn new(channels: u32, interval: Dur) -> PatrolScrub {
        assert!(!interval.is_zero(), "scrub interval must be non-zero");
        PatrolScrub {
            interval,
            channels: (0..channels)
                .map(|_| PatrolChannel {
                    ring: Vec::with_capacity(PATROL_RING),
                    write: 0,
                    sweep: 0,
                    last: None,
                })
                .collect(),
        }
    }

    /// Notes a line the controller just serviced on `channel` — the
    /// candidate pool sweeps walk. Called on the hot path: O(1) and
    /// allocation-free once the ring is full.
    pub fn observe(&mut self, channel: u32, line: LineAddr) {
        let ch = &mut self.channels[channel as usize];
        if ch.ring.len() < PATROL_RING {
            ch.ring.push(line);
        } else {
            ch.ring[ch.write] = line;
            ch.write = (ch.write + 1) % PATROL_RING;
        }
    }

    /// Asks for a line to scrub on `channel` at an idle decision point.
    /// `None` means no sweep is due (rate limit, or nothing observed
    /// yet) and changes nothing, so a repeat call at the same `now`
    /// returns `None` again. A returned line counts as dispatched: the
    /// cursor and the rate-limit clock advance.
    pub fn next_scrub(&mut self, channel: u32, now: Time) -> Option<LineAddr> {
        let interval = self.interval;
        let ch = &mut self.channels[channel as usize];
        if ch.ring.is_empty() {
            return None;
        }
        if let Some(last) = ch.last {
            if now.saturating_since(last) < interval {
                return None;
            }
        }
        let line = ch.ring[ch.sweep % ch.ring.len()];
        ch.sweep = (ch.sweep + 1) % PATROL_RING.max(ch.ring.len());
        ch.last = Some(now);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patrol_waits_for_an_observation() {
        let mut p = PatrolScrub::new(2, Dur::from_ns(100));
        assert_eq!(p.next_scrub(0, Time::from_ns(500)), None);
        p.observe(0, LineAddr::new(42));
        assert_eq!(p.next_scrub(0, Time::from_ns(500)), Some(LineAddr::new(42)));
    }

    #[test]
    fn patrol_rate_limits_per_channel() {
        let mut p = PatrolScrub::new(2, Dur::from_ns(100));
        p.observe(0, LineAddr::new(1));
        p.observe(1, LineAddr::new(2));
        assert!(p.next_scrub(0, Time::from_ns(10)).is_some());
        // Channel 0 just swept: due again only after the interval.
        assert_eq!(p.next_scrub(0, Time::from_ns(50)), None);
        assert!(p.next_scrub(0, Time::from_ns(110)).is_some());
        // Channel 1's clock is independent.
        assert!(p.next_scrub(1, Time::from_ns(50)).is_some());
    }

    #[test]
    fn patrol_round_robins_the_ring() {
        let mut p = PatrolScrub::new(1, Dur::from_ns(1));
        for l in [3u64, 5, 9] {
            p.observe(0, LineAddr::new(l));
        }
        let mut seen = Vec::new();
        for i in 0..6u64 {
            seen.push(p.next_scrub(0, Time::from_ns(10 + i * 10)).unwrap());
        }
        let want: Vec<LineAddr> = [3u64, 5, 9, 3, 5, 9].map(LineAddr::new).into();
        assert_eq!(seen, want);
    }

    #[test]
    fn patrol_ring_overwrites_oldest_at_capacity() {
        let mut p = PatrolScrub::new(1, Dur::from_ns(1));
        for l in 0..(PATROL_RING as u64 + 3) {
            p.observe(0, LineAddr::new(l));
        }
        // Ring is full; slots 0..3 now hold the newest three lines.
        assert_eq!(p.channels[0].ring.len(), PATROL_RING);
        assert_eq!(p.channels[0].ring[0], LineAddr::new(PATROL_RING as u64));
        assert_eq!(p.channels[0].ring[3], LineAddr::new(3));
    }
}

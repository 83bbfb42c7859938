//! The processor complex: cores, the shared L2, and miss handling.
//!
//! This is the boundary the memory subsystem sees. The complex pulls
//! operations from each core's trace, runs them through the shared L2,
//! merges same-line misses (MSHR semantics), bounds per-core and global
//! miss concurrency, turns dirty evictions into writebacks, and converts
//! software prefetch instructions into non-blocking prefetch reads
//! (dropped when software prefetching is disabled).

use fbd_types::config::CpuConfig;
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::stats::CoreStats;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, LineMap, RequestId};

use crate::cache::{L2Cache, L2Outcome};
use crate::core::OooCore;
use crate::hw_prefetch::StreamPrefetcher;
use crate::trace::{OpKind, TraceOp, TraceSource};

/// Result of advancing the complex to an instant.
#[derive(Debug, Default)]
pub struct Advance {
    /// Memory requests that became ready to issue.
    pub requests: Vec<MemRequest>,
    /// Earliest future instant at which a core can make progress without
    /// any memory response (ROB-stall expiry or projected finish).
    pub next_wake: Option<Time>,
}

struct CoreRunner {
    core: OooCore,
    trace: Box<dyn TraceSource>,
    /// The next operation, peeked but not yet admitted to the ROB, with
    /// its absolute instruction index.
    pending: Option<(u64, TraceOp)>,
    fetched_idx: u64,
    outstanding: u32,
    trace_done: bool,
    stats: CoreStats,
}

/// Post-warm-up snapshot of the state [`CpuComplex::warm_l2`] mutates:
/// the shared L2 and every core's trace position (including its RNG and
/// reuse history). Produced by [`CpuComplex::warm_snapshot`], consumed
/// by [`CpuComplex::warm_restore`].
pub struct WarmState {
    l2: L2Cache,
    traces: Vec<(Box<dyn TraceSource>, bool)>,
}

impl std::fmt::Debug for WarmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmState")
            .field("cores", &self.traces.len())
            .finish_non_exhaustive()
    }
}

/// Book-keeping for one in-flight line fill.
#[derive(Debug, Default)]
struct InFlightEntry {
    /// Core indices holding an MSHR slot on this line (issuer + merged
    /// loads), released on fill.
    slots: Vec<usize>,
    /// Core indices with a *blocking load* waiting on this line.
    waiters: Vec<usize>,
}

impl std::fmt::Debug for CoreRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRunner")
            .field("core", &self.core)
            .field("trace", &self.trace.name())
            .field("fetched_idx", &self.fetched_idx)
            .field("outstanding", &self.outstanding)
            .finish_non_exhaustive()
    }
}

/// Cores + shared L2 + MSHRs.
#[derive(Debug)]
pub struct CpuComplex {
    cores: Vec<CoreRunner>,
    l2: L2Cache,
    /// In-flight lines and who waits on them.
    in_flight: LineMap<InFlightEntry>,
    /// Retired [`InFlightEntry`]s kept for reuse so the steady-state
    /// miss path never allocates (their `slots`/`waiters` capacity
    /// survives the round trip; the pool is bounded by the L2 MSHR
    /// count).
    entry_pool: Vec<InFlightEntry>,
    next_req_id: u64,
    data_mshrs: u32,
    l2_mshrs: usize,
    software_prefetch: bool,
    hw_prefetcher: Option<StreamPrefetcher>,
    fill_latency: Dur,
    clock: Dur,
}

impl CpuComplex {
    /// Builds the complex from a validated configuration and one trace
    /// per core; every core runs until it commits `budget` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores as usize`, if the
    /// configuration is invalid, or if `budget` is zero.
    pub fn new(cfg: &CpuConfig, traces: Vec<Box<dyn TraceSource>>, budget: u64) -> CpuComplex {
        cfg.validate().expect("invalid CPU configuration");
        assert_eq!(
            traces.len(),
            cfg.cores as usize,
            "one trace per core required"
        );
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| CoreRunner {
                core: OooCore::new(
                    CoreId(i as u32),
                    trace.time_per_instr(),
                    u64::from(cfg.rob_entries),
                    budget,
                ),
                trace,
                pending: None,
                fetched_idx: 0,
                outstanding: 0,
                trace_done: false,
                stats: CoreStats::default(),
            })
            .collect();
        CpuComplex {
            cores,
            l2: L2Cache::new(u64::from(cfg.l2_bytes), cfg.l2_ways as usize),
            // The map never holds more than `l2_mshrs` lines, and every
            // entry is recycled through the pool; seeding both with
            // that bound (and each entry's index lists with room for
            // every core) keeps the miss path off the allocator once
            // the run reaches steady state. The map gets twice the
            // bound, so insert/remove churn at full occupancy rehashes
            // in place instead of growing.
            in_flight: LineMap::with_capacity_and_hasher(
                2 * cfg.l2_mshrs as usize,
                Default::default(),
            ),
            entry_pool: (0..cfg.l2_mshrs as usize + 1)
                .map(|_| InFlightEntry {
                    slots: Vec::with_capacity(cfg.cores as usize * 4),
                    waiters: Vec::with_capacity(cfg.cores as usize * 4),
                })
                .collect(),
            next_req_id: 0,
            data_mshrs: cfg.data_mshrs,
            l2_mshrs: cfg.l2_mshrs as usize,
            software_prefetch: cfg.software_prefetch,
            hw_prefetcher: cfg
                .hw_prefetch
                .enabled
                .then(|| StreamPrefetcher::new(&cfg.hw_prefetch)),
            fill_latency: cfg.clock * u64::from(cfg.l2_hit_cycles),
            clock: cfg.clock,
        }
    }

    /// Delay between a line completing at the memory controller and the
    /// waiting load being usable at the core (L2 fill/forward).
    pub fn fill_latency(&self) -> Dur {
        self.fill_latency
    }

    /// Fast-forwards every core's trace through the L2 (no timing, no
    /// memory requests) to populate the cache before measurement — the
    /// standard warm-up that makes capacity evictions (and therefore
    /// writeback traffic) present from the first measured instruction.
    pub fn warm_l2(&mut self, ops_per_core: u64) {
        let n = self.cores.len();
        for _ in 0..ops_per_core {
            for i in 0..n {
                let runner = &mut self.cores[i];
                if runner.trace_done {
                    continue;
                }
                let Some(op) = runner.trace.next_op() else {
                    runner.trace_done = true;
                    continue;
                };
                if op.kind == OpKind::Prefetch && !self.software_prefetch {
                    continue;
                }
                self.l2.access(op.line, op.kind == OpKind::Store);
            }
        }
        self.l2.reset_counts();
    }

    /// Snapshots everything [`warm_l2`](Self::warm_l2) mutates — the
    /// shared L2 and each core's trace state — so a runner can reuse
    /// one warm-up across runs with identical warm inputs. Returns
    /// `None` if any trace source cannot clone itself.
    pub fn warm_snapshot(&self) -> Option<WarmState> {
        let mut traces = Vec::with_capacity(self.cores.len());
        for r in &self.cores {
            traces.push((r.trace.clone_box()?, r.trace_done));
        }
        Some(WarmState {
            l2: self.l2.clone(),
            traces,
        })
    }

    /// Restores a [`warm_snapshot`](Self::warm_snapshot) into this
    /// complex, replacing the L2 contents and trace positions with the
    /// snapshotted ones — byte-identical to having replayed the same
    /// warm-up. Returns `false` (leaving `self` untouched) on a shape
    /// mismatch or an uncloneable source.
    pub fn warm_restore(&mut self, state: &WarmState) -> bool {
        if state.traces.len() != self.cores.len() {
            return false;
        }
        let mut cloned = Vec::with_capacity(state.traces.len());
        for (trace, done) in &state.traces {
            match trace.clone_box() {
                Some(t) => cloned.push((t, *done)),
                None => return false,
            }
        }
        self.l2 = state.l2.clone();
        for (runner, (trace, done)) in self.cores.iter_mut().zip(cloned) {
            runner.trace = trace;
            runner.trace_done = done;
        }
        true
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = RequestId(self.next_req_id);
        self.next_req_id += 1;
        id
    }

    /// Advances every core to `now`, collecting memory requests that
    /// become ready and the earliest self-wake time.
    pub fn advance(&mut self, now: Time) -> Advance {
        let mut requests = Vec::new();
        let next_wake = self.advance_into(now, &mut requests);
        Advance {
            requests,
            next_wake,
        }
    }

    /// [`advance`](Self::advance) into a caller-owned request buffer
    /// (not cleared first), so the event loop can reuse one scratch
    /// `Vec` instead of allocating an [`Advance`] per event. Returns
    /// the earliest self-wake time.
    pub fn advance_into(&mut self, now: Time, requests: &mut Vec<MemRequest>) -> Option<Time> {
        for i in 0..self.cores.len() {
            self.advance_core(i, now, requests);
        }
        self.next_wake(now)
    }

    fn advance_core(&mut self, i: usize, now: Time, requests: &mut Vec<MemRequest>) {
        self.cores[i].core.settle(now);
        loop {
            if self.cores[i].pending.is_none() {
                let runner = &mut self.cores[i];
                match runner.trace.next_op() {
                    Some(op) => {
                        let idx = runner.fetched_idx + op.gap;
                        runner.pending = Some((idx, op));
                    }
                    None => {
                        runner.trace_done = true;
                        runner.core.set_fetch_barrier(None);
                        return;
                    }
                }
            }
            let (idx, op) = self.cores[i].pending.expect("just filled");
            if !self.cores[i].core.can_fetch(idx, now) {
                // ROB full; a timed or response-driven wake follows. The
                // unfetched op also bars commit from passing it.
                self.cores[i].core.set_fetch_barrier(Some(idx));
                return;
            }
            if !self.execute_op(i, idx, op, now, requests) {
                // MSHR pressure; retried on the next response. Commit
                // must not run past the stalled, unfetched operation.
                self.cores[i].core.set_fetch_barrier(Some(idx));
                return;
            }
            let runner = &mut self.cores[i];
            runner.pending = None;
            runner.fetched_idx = idx + 1;
            runner.core.set_fetch_barrier(None);
        }
    }

    /// Runs one operation through the L2; returns false when it must
    /// wait for MSHR capacity.
    fn execute_op(
        &mut self,
        i: usize,
        idx: u64,
        op: TraceOp,
        now: Time,
        requests: &mut Vec<MemRequest>,
    ) -> bool {
        if op.kind == OpKind::Prefetch && !self.software_prefetch {
            return true; // executed as a no-op instruction
        }
        let present = self.l2.contains(op.line);
        let inflight = self.in_flight.contains_key(&op.line);
        let needs_request = !present && !inflight;
        let needs_slot = needs_request || (inflight && op.kind == OpKind::Load);
        let mshrs_full = (needs_slot && self.cores[i].outstanding >= self.data_mshrs)
            || (needs_request && self.in_flight.len() >= self.l2_mshrs);
        if mshrs_full {
            // A software prefetch never stalls the pipeline: hardware
            // drops it when no MSHR is available.
            return op.kind == OpKind::Prefetch;
        }

        self.cores[i].stats.l2_accesses += 1;
        if op.kind == OpKind::Prefetch && (present || inflight) {
            return true; // useless prefetch: drop
        }

        // Allocate-at-issue: the access installs the line; the fill
        // arrives later via `complete`.
        let outcome = self.l2.access(op.line, op.kind == OpKind::Store);
        match (outcome, inflight) {
            (L2Outcome::Hit, false) => {
                // Genuine hit; absorbed by the base commit rate.
            }
            (L2Outcome::Hit, true) => {
                // The line is still being fetched (e.g. by a prefetch):
                // a load must wait for it — this is prefetch timeliness.
                if op.kind == OpKind::Load {
                    self.cores[i].core.push_blocking_load(idx, op.line);
                    let entry = self.in_flight.get_mut(&op.line).expect("checked in flight");
                    entry.slots.push(i);
                    entry.waiters.push(i);
                    self.cores[i].outstanding += 1;
                }
            }
            (L2Outcome::Miss { writeback }, _) => {
                debug_assert!(!inflight, "in-flight lines are present in L2");
                self.cores[i].stats.l2_misses += 1;
                self.cores[i].outstanding += 1;
                let kind = match op.kind {
                    OpKind::Load | OpKind::Store => AccessKind::DemandRead,
                    OpKind::Prefetch => AccessKind::SoftwarePrefetch,
                };
                let id = self.fresh_id();
                requests.push(MemRequest::new(id, CoreId(i as u32), kind, op.line, now));
                let mut entry = self.entry_pool.pop().unwrap_or_default();
                entry.slots.push(i);
                if op.kind == OpKind::Load {
                    self.cores[i].core.push_blocking_load(idx, op.line);
                    entry.waiters.push(i);
                }
                self.in_flight.insert(op.line, entry);
                if let Some(victim) = writeback {
                    let id = self.fresh_id();
                    requests.push(MemRequest::new(
                        id,
                        CoreId(i as u32),
                        AccessKind::Write,
                        victim,
                        now,
                    ));
                }
                // Train the optional hardware stream prefetcher on the
                // demand-miss stream and issue its suggestions.
                if op.kind != OpKind::Prefetch {
                    self.run_hw_prefetcher(i, op.line, now, requests);
                }
            }
        }
        true
    }

    /// Feeds a demand miss to the hardware prefetcher and issues the
    /// suggested lines (bounded by L2 MSHR capacity; suggestions are
    /// dropped, never stalled on).
    fn run_hw_prefetcher(
        &mut self,
        i: usize,
        miss: fbd_types::LineAddr,
        now: Time,
        requests: &mut Vec<MemRequest>,
    ) {
        let Some(pf) = self.hw_prefetcher.as_mut() else {
            return;
        };
        for line in pf.on_demand_miss(miss) {
            if self.l2.contains(line)
                || self.in_flight.contains_key(&line)
                || self.in_flight.len() >= self.l2_mshrs
            {
                continue;
            }
            // Allocate-at-issue, like every other fill. Evictions from
            // prefetch allocations write back as usual.
            let outcome = self.l2.access(line, false);
            let id = self.fresh_id();
            requests.push(MemRequest::new(
                id,
                CoreId(i as u32),
                AccessKind::HardwarePrefetch,
                line,
                now,
            ));
            let entry = self.entry_pool.pop().unwrap_or_default();
            self.in_flight.insert(line, entry);
            if let L2Outcome::Miss {
                writeback: Some(victim),
            } = outcome
            {
                let id = self.fresh_id();
                requests.push(MemRequest::new(
                    id,
                    CoreId(i as u32),
                    AccessKind::Write,
                    victim,
                    now,
                ));
            }
        }
    }

    /// Delivers a completed line fill. `now` must already include the
    /// L2 fill latency (schedule the delivery at
    /// `completion + fill_latency()`).
    pub fn complete(&mut self, line: LineAddr, now: Time) {
        if let Some(mut entry) = self.in_flight.remove(&line) {
            for &i in &entry.slots {
                self.cores[i].outstanding = self.cores[i].outstanding.saturating_sub(1);
            }
            for &i in &entry.waiters {
                self.cores[i].core.complete_line(line, now);
            }
            entry.slots.clear();
            entry.waiters.clear();
            self.entry_pool.push(entry);
        }
    }

    /// Retires a fill whose data never arrived (a corrupted prefetch
    /// transfer dropped under fault injection). MSHR slots are freed
    /// and waiters woken exactly like [`complete`](Self::complete) —
    /// a real controller would re-issue demand accesses that merged
    /// into the dead prefetch; waking them at drop time is the modeling
    /// grace for that — but the L2 frame allocated at issue is
    /// invalidated, so the next access to the line misses again.
    pub fn complete_dropped(&mut self, line: LineAddr, now: Time) {
        self.complete(line, now);
        self.l2.invalidate(line);
    }

    fn next_wake(&self, now: Time) -> Option<Time> {
        let mut wake: Option<Time> = None;
        let mut push = |t: Time| {
            wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        for runner in &self.cores {
            if let Some((idx, _)) = runner.pending {
                if let Some(t) = runner.core.fetch_ready_time(idx) {
                    if t > now {
                        push(t);
                    }
                }
            }
            if let Some(t) = runner.core.projected_done_time(now) {
                push(t.max(now + self.clock));
            }
        }
        wake
    }

    /// True once any core has committed its budget (the paper's stop
    /// condition: "the simulation stops when one processor core commits
    /// 100 million instructions").
    pub fn any_done(&self, now: Time) -> bool {
        self.cores.iter().any(|r| r.core.done(now))
    }

    /// Final per-core statistics at the end instant.
    pub fn finish(&mut self, end: Time) -> Vec<CoreStats> {
        self.cores
            .iter_mut()
            .map(|r| {
                r.core.settle(end);
                r.stats.instructions = r.core.commit_idx(end);
                r.stats.cycles = (end - Time::ZERO) / self.clock;
                r.stats
            })
            .collect()
    }

    /// (hits, misses) observed at the shared L2.
    pub fn l2_counts(&self) -> (u64, u64) {
        self.l2.hit_miss_counts()
    }

    /// Instantaneous miss-handling occupancy: (distinct in-flight lines
    /// holding L2 MSHRs, per-core MSHR slots in use summed over cores).
    /// Telemetry gauges; sampling this has no timing effect.
    pub fn occupancy(&self) -> (usize, u64) {
        (
            self.in_flight.len(),
            self.cores.iter().map(|r| u64::from(r.outstanding)).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedTrace;
    use fbd_types::config::CpuConfig;

    fn cfg(cores: u32) -> CpuConfig {
        CpuConfig::paper_default(cores)
    }

    fn strided(count: u64, stride: u64, gap: u64) -> Box<dyn TraceSource> {
        Box::new(StridedTrace::new(count, stride, gap, Dur::from_ps(125)))
    }

    #[test]
    fn misses_produce_demand_reads() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1000, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 4);
        assert!(adv
            .requests
            .iter()
            .all(|r| r.kind == AccessKind::DemandRead));
        // Distinct ids, distinct lines.
        let ids: std::collections::HashSet<_> = adv.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn repeated_line_hits_after_fill() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(3, 0, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // First access misses; the rest wait on the same line (merged).
        assert_eq!(adv.requests.len(), 1);
        cpx.complete(LineAddr::new(0), Time::from_ns(60));
        let adv2 = cpx.advance(Time::from_ns(60));
        assert!(adv2.requests.is_empty());
        let (hits, misses) = cpx.l2_counts();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn dropped_fill_uncaches_the_line_but_frees_the_mshr() {
        // Two accesses to the same line, far enough apart in the
        // instruction stream that the second only reaches the L2 after
        // the first's fill resolves (ROB-blocked, like
        // `rob_limits_outstanding_run_ahead`).
        let requests_after = |dropped: bool| -> Vec<LineAddr> {
            let mut cpx = CpuComplex::new(&cfg(1), vec![strided(2, 0, 100)], 1_000_000);
            let adv = cpx.advance(Time::ZERO);
            assert_eq!(adv.requests.len(), 1);
            let line = adv.requests[0].line;
            if dropped {
                cpx.complete_dropped(line, Time::from_ns(60));
            } else {
                cpx.complete(line, Time::from_ns(60));
            }
            // Either way the MSHR is free and the stalled core resumed.
            assert_eq!(cpx.occupancy(), (0, 0));
            let mut out = Vec::new();
            let mut at = Time::from_ns(60);
            for _ in 0..5 {
                let adv = cpx.advance(at);
                out.extend(adv.requests.iter().map(|r| r.line));
                let Some(wake) = adv.next_wake else { break };
                at = wake;
            }
            out
        };
        // A delivered fill leaves the line cached: the second access hits.
        assert!(requests_after(false).is_empty());
        // A dropped fill leaves it uncached: the second access misses
        // and re-requests it (the fault-injection hit-rate shift).
        assert_eq!(requests_after(true), [LineAddr::new(0)]);
    }

    #[test]
    fn rob_limits_outstanding_run_ahead() {
        // Gap 100: ops sit at instruction indices 100, 201, 302, ...
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(100, 1000, 100)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // At t=0 commit is at 0; only idx 100 < 196 fits the ROB.
        assert_eq!(adv.requests.len(), 1);
        // The op at 201 fits once commit reaches 6 — a timed wake.
        let wake = adv.next_wake.expect("ROB stall expires by time");
        assert_eq!(wake, Time::from_ps(6 * 125));
        let adv2 = cpx.advance(wake);
        assert_eq!(adv2.requests.len(), 1);
        // The op at 302 needs commit ≥ 107, but commit is capped at the
        // outstanding miss (idx 100): only a fill can unblock it.
        let adv3 = cpx.advance(Time::from_ns(50));
        assert!(adv3.requests.is_empty());
        assert_eq!(adv3.next_wake, None, "blocked on a miss, not on time");
        let line = adv.requests[0].line;
        cpx.complete(line, Time::from_ns(60));
        // Commit resumes at 101 and reaches 107 six instructions later;
        // only then does idx 302 fit the window.
        let adv4 = cpx.advance(Time::from_ns(60));
        assert!(adv4.requests.is_empty());
        let wake = adv4.next_wake.expect("timed ROB wake after fill");
        let adv5 = cpx.advance(wake);
        assert_eq!(adv5.requests.len(), 1);
    }

    #[test]
    fn mshr_limit_bounds_outstanding_misses() {
        // Gap 0: unbounded run-ahead except for MSHRs (32).
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(100, 1000, 0)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 32);
    }

    #[test]
    fn writebacks_emitted_for_dirty_victims() {
        // Tiny L2 to force evictions quickly.
        let mut cfg = cfg(1);
        cfg.l2_bytes = 4 * 64; // 1 set... 4 ways × 64 B
        cfg.l2_ways = 4;
        struct StoreTrace(u64);
        impl TraceSource for StoreTrace {
            fn next_op(&mut self) -> Option<TraceOp> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(TraceOp {
                    gap: 1,
                    kind: OpKind::Store,
                    line: LineAddr::new(self.0 * 17),
                })
            }
            fn time_per_instr(&self) -> Dur {
                Dur::from_ps(125)
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let mut cpx = CpuComplex::new(&cfg, vec![Box::new(StoreTrace(10))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        let writes = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .count();
        assert!(writes >= 5, "dirty evictions must write back, got {writes}");
    }

    #[test]
    fn software_prefetch_issues_and_merges() {
        struct PfThenLoad(u8);
        impl TraceSource for PfThenLoad {
            fn next_op(&mut self) -> Option<TraceOp> {
                self.0 += 1;
                match self.0 {
                    1 => Some(TraceOp {
                        gap: 0,
                        kind: OpKind::Prefetch,
                        line: LineAddr::new(42),
                    }),
                    2 => Some(TraceOp {
                        gap: 50,
                        kind: OpKind::Load,
                        line: LineAddr::new(42),
                    }),
                    _ => None,
                }
            }
            fn time_per_instr(&self) -> Dur {
                Dur::from_ps(125)
            }
            fn name(&self) -> &str {
                "pf-then-load"
            }
        }
        let mut cpx = CpuComplex::new(&cfg(1), vec![Box::new(PfThenLoad(0))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // One prefetch request; the load merges onto it.
        assert_eq!(adv.requests.len(), 1);
        assert_eq!(adv.requests[0].kind, AccessKind::SoftwarePrefetch);
        // Before the fill, commit is blocked at the load.
        assert_eq!(cpx.cores[0].core.blocking_loads(), 1);
        cpx.complete(LineAddr::new(42), Time::from_ns(30));
        assert_eq!(cpx.cores[0].core.blocking_loads(), 0);

        // With software prefetching off, the prefetch disappears and the
        // load itself misses.
        let mut cfg_off = cfg(1);
        cfg_off.software_prefetch = false;
        let mut cpx = CpuComplex::new(&cfg_off, vec![Box::new(PfThenLoad(0))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 1);
        assert_eq!(adv.requests[0].kind, AccessKind::DemandRead);
    }

    #[test]
    fn next_wake_projects_finish_when_idle() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(1, 1, 5)], 100);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 1);
        cpx.complete(LineAddr::new(0), Time::from_ns(63));
        let adv = cpx.advance(Time::from_ns(63));
        // Trace done, nothing blocking: finish is projectable.
        assert!(adv.next_wake.is_some());
        let stats = cpx.finish(adv.next_wake.unwrap());
        assert_eq!(stats[0].instructions, 100);
        assert!(stats[0].cycles > 0);
        assert!(cpx.any_done(adv.next_wake.unwrap()));
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let _ = CpuComplex::new(&cfg(2), vec![strided(1, 1, 1)], 100);
    }

    #[test]
    fn hardware_prefetcher_issues_ahead_of_streams() {
        let mut c = cfg(1);
        c.hw_prefetch = fbd_types::config::HwPrefetchConfig::typical();
        // Unit-stride loads: after two misses the prefetcher should run
        // ahead.
        let mut cpx = CpuComplex::new(&c, vec![strided(4, 1, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        let hw = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::HardwarePrefetch)
            .count();
        assert!(hw >= 4, "expected stream prefetches, got {hw}");
        // Later demand to a prefetched line merges instead of re-missing.
        let demand = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::DemandRead)
            .count();
        assert!(demand < 4, "prefetched lines must absorb later demands");
    }

    #[test]
    fn occupancy_tracks_in_flight_lines_and_slots() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1000, 10)], 1_000_000);
        assert_eq!(cpx.occupancy(), (0, 0));
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 4);
        assert_eq!(cpx.occupancy(), (4, 4));
        cpx.complete(adv.requests[0].line, Time::from_ns(60));
        assert_eq!(cpx.occupancy(), (3, 3));
    }

    #[test]
    fn hardware_prefetcher_off_by_default() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert!(adv
            .requests
            .iter()
            .all(|r| r.kind != AccessKind::HardwarePrefetch));
    }
}

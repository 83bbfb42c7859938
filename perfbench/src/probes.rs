//! Component probes: ns/op of the public functions behind
//! `MemorySystem::decide_into`, called in isolation with inputs shaped
//! like the workload's (queue depth, write share, AMB coverage and the
//! simulated time between transactions, all taken from the workload's
//! own run).
//!
//! Multiplied by how often the run calls each function, the probes
//! estimate how much of the measured `decide_into` time the datapath
//! components explain (`memsys.decide_issue_explained`). The counts are
//! derived from the run's model counters, so the estimate is
//! approximate; it is reported, not gated.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fbd_amb::AmbDimm;
use fbd_core::RunResult;
use fbd_ctrl::{HitFirstScheduler, MappedAddr, PrefetchTable, QueueEntry, SchedClass};
use fbd_dram::{BankArray, ColKind, ColumnOp, DataBus};
use fbd_link::{Ddr2CommandBus, FbdChannel};
use fbd_power::PowerModeTracker;
use fbd_telemetry::StageProfile;
use fbd_types::config::{MemoryTech, PagePolicy};
use fbd_types::request::{
    AccessKind, CoreId, MemRequest, ReqClass, RequestId, Stage, StageBreakdown,
};
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, CACHE_LINE_BYTES};

use crate::mirror::Layers;
use crate::spec::Bench;

/// Operations per timed batch; ns/op is the median over batches.
const BATCH: u64 = 256;

/// The workload properties the probes reproduce.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Mean queued requests on the channel at an issuing decision.
    pub queue_depth: usize,
    /// Writes among issued transactions.
    pub write_fraction: f64,
    /// Reads served from the AMB prefetch buffer.
    pub amb_coverage: f64,
    /// Simulated time per issued transaction on one channel.
    pub channel_gap: Dur,
}

impl Shape {
    /// Derives the shape from a traced run and its result.
    pub fn of(bench: &Bench, l: &Layers, r: &RunResult) -> Shape {
        let depth = l.depth_sum as f64 / l.queue_decisions.max(1) as f64;
        let tx = l.tx_issued.max(1);
        let channels = u64::from(bench.cfg.mem.logical_channels);
        Shape {
            queue_depth: (depth.round() as usize).clamp(1, bench.cfg.mem.queue_capacity as usize),
            write_fraction: r.mem.writes as f64 / tx as f64,
            amb_coverage: r.mem.prefetch_coverage(),
            channel_gap: Dur::from_ps((r.elapsed.as_ps() * channels / tx).max(1)),
        }
    }
}

/// Every probe, in report order (the ones that do not apply to a
/// workload's system report zero).
pub const NAMES: [&str; 8] = [
    "dram.plan_commit",
    "link.frame",
    "link.ddr2_command",
    "amb.fetch_group",
    "ctrl.would_hit",
    "sched.pick",
    "power.note_busy",
    "stage.record",
];

/// One probe: its ns/op and how many times the run made that call.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Metric name prefix (`probe.<name>_ns`).
    pub name: &'static str,
    /// Median host ns per call.
    pub ns_per_op: f64,
    /// Calls the workload's run made.
    pub count: u64,
}

/// How often one run calls each probed function, from its model
/// counters: `frames` is the profiled run's link-frame count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// `BankArray::plan` + `commit` outside group fetches.
    pub plan_commit: u64,
    /// `AmbDimm::fetch_group` (AMB misses on a prefetching system).
    pub fetch_group: u64,
    /// FB-DIMM link frames.
    pub link_frames: u64,
    /// `Ddr2CommandBus::issue_many` (one per DDR2 transaction).
    pub ddr2_commands: u64,
    /// `PrefetchTable::would_hit` (≈ candidates classified).
    pub would_hit: u64,
    /// `HitFirstScheduler::pick`.
    pub pick: u64,
    /// `PowerModeTracker::note_busy` (transactions reaching DRAM).
    pub note_busy: u64,
    /// `StageProfile::record` (completed reads and writes).
    pub stage_record: u64,
}

impl Counts {
    /// Derives the call counts of one run.
    pub fn of(bench: &Bench, l: &Layers, r: &RunResult, frames: u64) -> Counts {
        let m = &bench.cfg.mem;
        let prefetching = m.amb.is_enabled();
        let fbd = matches!(m.tech, MemoryTech::FbDimm { .. });
        let reads = r.mem.total_reads();
        let group_fetches = if prefetching {
            reads.saturating_sub(r.mem.amb_hits)
        } else {
            0
        };
        let group_lines = group_fetches * u64::from(m.amb.region_lines);
        Counts {
            plan_commit: r.mem.dram_ops.col_total().saturating_sub(group_lines),
            fetch_group: group_fetches,
            link_frames: if fbd { frames } else { 0 },
            ddr2_commands: if fbd { 0 } else { l.tx_issued },
            would_hit: if prefetching { l.depth_sum } else { 0 },
            pick: l.queue_decisions,
            note_busy: l.tx_issued.saturating_sub(r.mem.amb_hits),
            stage_record: r.profile.reads() + r.profile.writes(),
        }
    }
}

/// Deterministic input stream (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Median ns per op of `op` over batches of [`BATCH`] calls, for about
/// `slice` of wall time. `op` gets the running call index.
fn measure(slice: Duration, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    let mut i = 0u64;
    while per_op.len() < 5 || start.elapsed() < slice {
        let t = Instant::now();
        for _ in 0..BATCH {
            op(i);
            i += 1;
        }
        per_op.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::stats::summarize(&per_op).median
}

/// Reads the controller keeps in flight per channel; reservations never
/// run further ahead of the decision clock than this many transactions.
const INFLIGHT: u64 = 16;

/// Advances a probe's decision clock by `gap`, and further when the
/// structure's reservations (`reserved_until`) would otherwise run more
/// than [`INFLIGHT`] gaps ahead of it — as the controller's in-flight
/// cap keeps them in the real run. Without this, a gap slightly shorter
/// than the structure's service time would grow its reservation list
/// without bound and the probe would time the backlog.
fn pace(now: Time, gap: Dur, reserved_until: Time) -> Time {
    let lead = gap * INFLIGHT;
    let behind = Time::from_ps(reserved_until.as_ps().saturating_sub(lead.as_ps()));
    (now + gap).max(behind)
}

/// DIMM-bus time of one line (as `MemorySystem` computes it).
fn line_burst(bench: &Bench) -> Dur {
    let m = &bench.cfg.mem;
    let bytes_per_clock = 16 * u64::from(m.phys_per_logical);
    bench.clock() * CACHE_LINE_BYTES.div_ceil(bytes_per_clock)
}

/// Runs every probe that applies to the workload's system, each for
/// about `slice`, and pairs it with its call count.
pub fn run(bench: &Bench, shape: &Shape, counts: &Counts, slice: Duration) -> Vec<Probe> {
    let m = bench.cfg.mem;
    let clock = bench.clock();
    let burst = line_burst(bench);
    let close_page = m.page_policy == PagePolicy::ClosePage;
    let banks = m.banks_per_dimm as usize;
    let fbd = matches!(m.tech, MemoryTech::FbDimm { .. });
    let per_dimm_gap = shape.channel_gap * u64::from(m.dimms_per_channel);
    // An AMB has a data bus per DIMM; DDR2 ranks share the channel's.
    let bus_gap = if fbd { per_dimm_gap } else { shape.channel_gap };
    let mut out = Vec::new();

    let mut rng = Rng(1);
    let mut array = BankArray::new(banks, m.timings, clock);
    let mut bus = DataBus::new(clock);
    let mut now = Time::ZERO;
    let ns = measure(slice, |_| {
        let kind = if rng.chance(shape.write_fraction) {
            ColKind::Write
        } else {
            ColKind::Read
        };
        let op = ColumnOp {
            kind,
            auto_precharge: close_page,
            burst,
        };
        let row = rng.below(1 << 14) as u32;
        let plan = array.plan(rng.below(banks as u64) as usize, row, op, now, &bus);
        array.commit(&plan, &mut bus);
        now = pace(now, bus_gap, plan.data_end);
        black_box(plan.data_end);
    });
    out.push(Probe {
        name: "dram.plan_commit",
        ns_per_op: ns,
        count: counts.plan_commit,
    });

    if fbd {
        let mut rng = Rng(2);
        let mut link = FbdChannel::for_channel(&m, 0);
        let mut now = Time::ZERO;
        let mut south_done = Time::ZERO;
        let ns = measure(slice, |i| {
            // Alternate southbound commands and northbound returns: one
            // frame per call, two per read.
            if i % 2 == 0 {
                south_done = link.send_command_checked(now).slot.done;
            } else {
                let dimm = rng.below(u64::from(m.dimms_per_channel)) as u32;
                let done = link
                    .return_read_data_checked(dimm, now + clock * 8, true)
                    .slot
                    .done;
                now = pace(now, shape.channel_gap, done.max(south_done));
            }
        });
        out.push(Probe {
            name: "link.frame",
            ns_per_op: ns,
            count: counts.link_frames,
        });
    }

    if !fbd {
        let mut rng = Rng(7);
        let mut cmd = Ddr2CommandBus::new(&m);
        let mut now = Time::ZERO;
        let ns = measure(slice, |_| {
            // ACT + CAS on a row miss, CAS alone on an open row.
            let slots = cmd.issue_many(now, 1 + rng.below(2) as usize);
            now = pace(now, shape.channel_gap, slots[slots.len() - 1]);
        });
        out.push(Probe {
            name: "link.ddr2_command",
            ns_per_op: ns,
            count: counts.ddr2_commands,
        });
    }

    if m.amb.is_enabled() {
        let mut rng = Rng(3);
        let mut dimm = AmbDimm::with_ranks(
            m.ranks_per_dimm as usize,
            banks,
            m.timings,
            clock,
            burst,
            close_page,
        );
        let mut now = Time::ZERO;
        // Only AMB misses fetch a group.
        let gap = Dur::from_ps(
            (per_dimm_gap.as_ps() as f64 / (1.0 - shape.amb_coverage).max(0.05)) as u64,
        );
        let ns = measure(slice, |_| {
            let rank = rng.below(u64::from(m.ranks_per_dimm)) as usize;
            let bank = rng.below(banks as u64) as usize;
            let out = dimm.fetch_group_at(
                rank,
                bank,
                rng.below(1 << 14) as u32,
                m.amb.region_lines,
                now,
            );
            now = pace(now, gap, out.fill_done);
        });
        out.push(Probe {
            name: "amb.fetch_group",
            ns_per_op: ns,
            count: counts.fetch_group,
        });

        // A table holding streamed regions, queried with the workload's
        // hit share.
        let mut rng = Rng(4);
        let mut table = PrefetchTable::new(&m);
        let k = u64::from(m.amb.region_lines);
        let regions = (m.amb.cache_lines as u64 / k).max(1);
        for r in 0..regions {
            let base = r * k * 64;
            table.fill(0, 0, (1..k).map(|i| LineAddr::new(base + i)));
        }
        let ns = measure(slice, |_| {
            let r = rng.below(regions);
            let line = if rng.chance(shape.amb_coverage) {
                r * k * 64 + 1 + rng.below(k - 1)
            } else {
                r * k * 64 + 32
            };
            black_box(table.would_hit(0, 0, LineAddr::new(line)));
        });
        out.push(Probe {
            name: "ctrl.would_hit",
            ns_per_op: ns,
            count: counts.would_hit,
        });
    }

    let mut rng = Rng(5);
    let candidates: Vec<QueueEntry> = (0..shape.queue_depth as u64)
        .map(|i| {
            let kind = if rng.chance(shape.write_fraction) {
                AccessKind::Write
            } else {
                AccessKind::DemandRead
            };
            QueueEntry {
                req: MemRequest::new(
                    RequestId(i),
                    CoreId(0),
                    kind,
                    LineAddr::new(rng.next() >> 20),
                    Time::ZERO,
                ),
                mapped: MappedAddr {
                    channel: 0,
                    dimm: rng.below(u64::from(m.dimms_per_channel)) as u32,
                    rank: 0,
                    bank: rng.below(banks as u64) as u32,
                    row: rng.below(1 << 14) as u32,
                    col_line: 0,
                },
                seq: i,
            }
        })
        .collect();
    let mut sched =
        HitFirstScheduler::new(m.write_drain_threshold as usize, m.tech == MemoryTech::Ddr2);
    let ns = measure(slice, |i| {
        let picked = sched.pick(&candidates, |e| match (e.mapped.bank as u64 + i) % 3 {
            0 => SchedClass::Hit,
            1 => SchedClass::Ready,
            _ => SchedClass::NotReady,
        });
        black_box(picked);
    });
    out.push(Probe {
        name: "sched.pick",
        ns_per_op: ns,
        count: counts.pick,
    });

    let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
    let mut now = Time::ZERO;
    let ns = measure(slice, |i| {
        if i % 65_536 == 0 {
            tracker = PowerModeTracker::new(Dur::from_ns(30));
        }
        tracker.note_busy(now, now + burst * 4);
        now += per_dimm_gap;
        black_box(tracker.noted());
    });
    out.push(Probe {
        name: "power.note_busy",
        ns_per_op: ns,
        count: counts.note_busy,
    });

    let mut rng = Rng(6);
    let mut profile = StageProfile::new();
    let ns = measure(slice, |_| {
        let start = Time::ZERO;
        let mut st = StageBreakdown::stamper(start);
        let mut at = start;
        for stage in [
            Stage::CtrlQueue,
            Stage::SouthLink,
            Stage::DramAct,
            Stage::DramCas,
            Stage::NorthLink,
        ] {
            at += clock * (1 + rng.below(8));
            st.to(stage, at);
        }
        let class = if rng.chance(shape.write_fraction) {
            ReqClass::Write
        } else if rng.chance(shape.amb_coverage) {
            ReqClass::AmbHit
        } else {
            ReqClass::Demand
        };
        profile.record(class, &st.finish(), at - start);
    });
    black_box(profile.reads());
    out.push(Probe {
        name: "stage.record",
        ns_per_op: ns,
        count: counts.stage_record,
    });
    out
}

/// Σ(count × ns/op) over the probes, as a share of `decide_issue_ns`.
pub fn explained(probes: &[Probe], decide_issue_ns: u64) -> f64 {
    let sum: f64 = probes.iter().map(|p| p.count as f64 * p.ns_per_op).sum();
    sum / decide_issue_ns.max(1) as f64
}

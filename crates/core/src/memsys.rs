//! The complete memory subsystem: controller policy wired to a datapath.
//!
//! One [`MemorySystem`] owns the transaction queue, scheduler, address
//! mapper and (when prefetching is on) the prefetch information table,
//! plus one datapath per logical channel:
//!
//! * **FB-DIMM**: southbound/northbound links ([`fbd_link::FbdChannel`])
//!   in front of per-DIMM AMB engines ([`fbd_amb::AmbDimm`]);
//! * **DDR2** baseline: a shared command bus and a shared data bus in
//!   front of per-DIMM bank arrays.
//!
//! The subsystem is driven by *decision events*: at each decision
//! instant for a channel the scheduler picks the best ready transaction
//! (hit-first, read-priority) and issues it, reserving link/bus/bank
//! time and computing the completion analytically. One decision issues
//! at most one transaction, and the next decision follows one command
//! slot later, so scheduling stays fine-grained.

use std::collections::VecDeque;

use fbd_amb::{AmbDimm, GroupFetchOutcome, ReadOutcome, WriteOutcome};
use fbd_ctrl::{
    schedulers, FillOutcome, InterleavedMapper, MappedAddr, PatrolScrub, PrefetchTable, QueueEntry,
    RefreshOp, SchedClass, SchedulerPolicy, StaggeredRefresh, TransactionQueue,
};
use fbd_dram::{AccessPlan, BankArray, ColKind, ColumnOp, DataBus};
use fbd_faults::{FaultCounters, FaultReport, SilentErrorReport};
use fbd_link::{Ddr2CommandBus, FbdChannel, LinkSlot};
use fbd_power::{EnergyModel, EnergyReport, PowerModeTracker, RankActivity};
use fbd_telemetry::host::{Counter, HostHandle, Phase};
use fbd_telemetry::{
    tid_bank, tid_dimm, tid_power, Json, MetricId, StageProfile, Telemetry, TelemetryConfig,
    TID_NORTH, TID_SOUTH,
};
use fbd_types::config::{AmbPrefetchMode, MemoryConfig, MemoryTech, PagePolicy, ScrubPolicyKind};
use fbd_types::request::{
    AccessKind, CoreId, MemRequest, MemResponse, ReqClass, RequestId, ServiceKind, Stage,
    StageBreakdown,
};
use fbd_types::stats::MemStats;
use fbd_types::time::{DataRate, Dur, Time};
use fbd_types::{LineAddr, LineSet, CACHE_LINE_BYTES};

use crate::compose::Composition;

/// Reads in flight per logical channel before the controller stops
/// issuing and waits for completions. Bounds how far reservations run
/// ahead of service, keeping hit-first reordering effective.
const MAX_INFLIGHT_PER_CHANNEL: u32 = 16;

/// Idle timeout of the power-mode residency model: a rank idle longer
/// than this is assumed to be dropped into precharge power-down by the
/// controller (CKE low); shorter gaps stay in precharge standby.
const POWERDOWN_AFTER: Dur = Dur::from_ns(30);

/// An issued transaction, as reported to the simulation engine.
#[derive(Clone, Copy, Debug)]
pub enum Issued {
    /// A read; `resp.completion` is when the critical line reaches the
    /// controller.
    Read {
        /// The completed response.
        resp: MemResponse,
    },
    /// A write; `done` is when its data finishes at the devices.
    Write {
        /// Completion instant (frees the in-flight slot).
        done: Time,
    },
}

enum ChannelPath {
    Fbd {
        link: FbdChannel,
        dimms: Vec<AmbDimm>,
    },
    Ddr2 {
        cmd: Ddr2CommandBus,
        bus: DataBus,
        dimms: Vec<BankArray>,
    },
}

struct Channel {
    path: ChannelPath,
    inflight: u32,
}

/// Always-on per-channel traffic counters. These stay outside the
/// optional telemetry registry so per-channel bandwidth is available to
/// exporters even when telemetry was never enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Read transactions issued on this channel (all read kinds).
    pub reads: u64,
    /// Write transactions issued on this channel.
    pub writes: u64,
    /// Data moved over this channel, in bytes.
    pub bytes: u64,
    /// Reads served from an AMB prefetch cache on this channel.
    pub amb_hits: u64,
}

/// Registry handles for one DIMM's metrics.
#[derive(Clone, Copy)]
struct DimmIds {
    acts: MetricId,
    reads: MetricId,
    writes: MetricId,
    power_active_ns: MetricId,
    power_standby_ns: MetricId,
    power_powerdown_ns: MetricId,
}

/// Registry handles for one channel's metrics.
struct ChanIds {
    reads: MetricId,
    writes: MetricId,
    bytes: MetricId,
    amb_hits: MetricId,
    queue_depth: MetricId,
    inflight: MetricId,
    dimms: Vec<DimmIds>,
}

/// Telemetry state attached to a [`MemorySystem`] when enabled: the
/// registry/sampler/tracer plus the pre-registered metric handles.
/// Boxed behind an `Option` so the telemetry-off hot path pays one
/// pointer test. (Power-mode residency is tracked always-on by the
/// [`MemorySystem`] itself — the energy report needs it even when
/// telemetry never ran.)
struct MemTel {
    tel: Telemetry,
    chans: Vec<ChanIds>,
    read_latency: MetricId,
    pf_fills: MetricId,
    pf_evictions: MetricId,
    pf_hits: MetricId,
}

impl MemTel {
    /// A southbound frame slot (command or write data).
    fn south_frame(&mut self, name: &'static str, ch: u32, slot: LinkSlot) {
        if let Some(tr) = self.tel.tracer.as_mut() {
            tr.complete(name, "link", ch, TID_SOUTH, slot.start, slot.dur, vec![]);
        }
    }

    /// A northbound data-return slot.
    fn north_frame(&mut self, ch: u32, slot: LinkSlot) {
        if let Some(tr) = self.tel.tracer.as_mut() {
            tr.complete("data", "link", ch, TID_NORTH, slot.start, slot.dur, vec![]);
        }
    }

    /// Corrupted link slots consumed by replay attempts (or a dropped
    /// transfer), shown on the link track under fault injection.
    fn retry_frames(&mut self, ch: u32, tid: u32, failed: &[LinkSlot]) {
        if let Some(tr) = self.tel.tracer.as_mut() {
            for f in failed {
                tr.complete("retry", "link", ch, tid, f.start, f.dur, vec![]);
            }
        }
    }

    /// Channel-level read accounting (any read kind).
    fn count_read(&mut self, ch: u32) {
        let ids = &self.chans[ch as usize];
        let (reads, bytes) = (ids.reads, ids.bytes);
        self.tel.registry.add(reads, 1);
        self.tel.registry.add(bytes, CACHE_LINE_BYTES);
    }

    /// Channel-level write accounting.
    fn count_write(&mut self, ch: u32) {
        let ids = &self.chans[ch as usize];
        let (writes, bytes) = (ids.writes, ids.bytes);
        self.tel.registry.add(writes, 1);
        self.tel.registry.add(bytes, CACHE_LINE_BYTES);
    }

    /// A read served from the AMB prefetch cache (no DRAM access).
    fn amb_hit(&mut self, ch: u32, dimm: u32, at: Time) {
        let id = self.chans[ch as usize].amb_hits;
        self.tel.registry.add(id, 1);
        self.tel.registry.add(self.pf_hits, 1);
        if let Some(tr) = self.tel.tracer.as_mut() {
            tr.instant("amb_hit", "amb", ch, tid_dimm(dimm as usize), at, vec![]);
        }
    }

    /// A plain single-line DRAM read on an FBD channel; command spans
    /// land on the serving bank's track.
    fn dram_read(&mut self, ch: u32, dimm: u32, bank: u32, out: &ReadOutcome) {
        let ids = self.chans[ch as usize].dimms[dimm as usize];
        if out.act_at.is_some() {
            self.tel.registry.add(ids.acts, 1);
        }
        self.tel.registry.add(ids.reads, 1);
        if let Some(tr) = self.tel.tracer.as_mut() {
            let tid = tid_bank(dimm as usize, bank as usize);
            if let Some(act) = out.act_at {
                tr.complete("ACT", "dram", ch, tid, act, out.cmd_at - act, vec![]);
            }
            tr.complete(
                "RD",
                "dram",
                ch,
                tid,
                out.cmd_at,
                out.data_end - out.cmd_at,
                vec![],
            );
        }
    }

    /// A K-line group fetch (one ACT, K pipelined column reads);
    /// command spans land on the serving bank's track.
    fn group_fetch(
        &mut self,
        ch: u32,
        dimm: u32,
        bank: u32,
        out: &GroupFetchOutcome,
        fill: &FillOutcome,
    ) {
        let ids = self.chans[ch as usize].dimms[dimm as usize];
        if out.act_at.is_some() {
            self.tel.registry.add(ids.acts, 1);
        }
        self.tel
            .registry
            .add(ids.reads, u64::from(out.lines_fetched));
        self.tel.registry.add(self.pf_fills, fill.inserted);
        self.tel.registry.add(self.pf_evictions, fill.evicted);
        if let Some(tr) = self.tel.tracer.as_mut() {
            let tid = tid_bank(dimm as usize, bank as usize);
            if let Some(act) = out.act_at {
                tr.complete("ACT", "dram", ch, tid, act, out.first_cmd_at - act, vec![]);
            }
            tr.complete(
                format!("RDx{}", out.lines_fetched),
                "dram",
                ch,
                tid,
                out.first_cmd_at,
                out.fill_done - out.first_cmd_at,
                vec![("prefetched", Json::from(fill.inserted))],
            );
        }
    }

    /// A line write at the DRAM devices of an FBD DIMM; command spans
    /// land on the serving bank's track.
    fn dram_write(&mut self, ch: u32, dimm: u32, bank: u32, out: &WriteOutcome) {
        let ids = self.chans[ch as usize].dimms[dimm as usize];
        if out.act_at.is_some() {
            self.tel.registry.add(ids.acts, 1);
        }
        self.tel.registry.add(ids.writes, 1);
        if let Some(tr) = self.tel.tracer.as_mut() {
            let tid = tid_bank(dimm as usize, bank as usize);
            if let Some(act) = out.act_at {
                tr.complete("ACT", "dram", ch, tid, act, out.cmd_at - act, vec![]);
            }
            tr.complete(
                "WR",
                "dram",
                ch,
                tid,
                out.cmd_at,
                out.data_end - out.cmd_at,
                vec![],
            );
        }
    }

    /// A committed access plan on a DDR2 channel; emits one span per
    /// command (PRE/ACT, then the column command through its burst) on
    /// the serving bank's track.
    fn ddr2_access(&mut self, ch: u32, dimm: u32, plan: &AccessPlan) {
        let cmds: Vec<(&'static str, Time)> = plan.commands().collect();
        let ids = self.chans[ch as usize].dimms[dimm as usize];
        if cmds.iter().any(|(n, _)| *n == "ACT") {
            self.tel.registry.add(ids.acts, 1);
        }
        let (col_name, _) = *cmds.last().expect("a plan always has a column command");
        if col_name.starts_with("RD") {
            self.tel.registry.add(ids.reads, 1);
        } else {
            self.tel.registry.add(ids.writes, 1);
        }
        if let Some(tr) = self.tel.tracer.as_mut() {
            let tid = tid_bank(dimm as usize, plan.bank);
            for (i, (name, at)) in cmds.iter().enumerate() {
                let end = cmds.get(i + 1).map_or(plan.data_end, |(_, t)| *t);
                tr.complete(*name, "dram", ch, tid, *at, end - *at, vec![]);
            }
        }
    }
}

/// Controller-originated requests (scrub sweeps, prefetch re-issues)
/// take ids in the top half of the id space so they can never collide
/// with core-originated ids.
const SYNTH_ID_BASE: u64 = 1 << 63;

/// Closed-loop recovery state: the poison set fed by CRC escapes, the
/// background scrub policy, and the dropped-prefetch re-issue queues.
///
/// Lives behind an `Option` that stays `None` unless fault injection
/// with a finite CRC, scrubbing, or re-issue is configured, so the
/// default hot path pays one pointer test and every export stays
/// byte-identical to a build without this subsystem.
#[derive(Debug)]
struct Reliability {
    /// Patrol scrubber (`None` under `ScrubPolicyKind::None`, when only
    /// poison tracking or re-issue is active).
    scrub: Option<PatrolScrub>,
    /// Lines whose last transfer escaped the CRC: silently corrupted
    /// in memory until a clean overwrite or a scrub repairs them. It
    /// has no item bound (every escape may add a line), so it starts
    /// empty and grows with the escapes.
    poisoned: LineSet,
    /// Dropped prefetch returns remembered per channel, re-issued at
    /// idle decision slots (each queue bounded by `reissue_budget`).
    pending: Vec<VecDeque<LineAddr>>,
    reissue_budget: usize,
    /// Controller-side recovery counters (scrub/re-issue activity),
    /// merged with the link counters into the run's fault report.
    counters: FaultCounters,
    /// Demand-consumption and scrub-repair outcomes. `poisoned_lines`
    /// is derived from the live set when the report is taken.
    silent: SilentErrorReport,
    /// Monotone id/sequence source for synthesized queue entries.
    synth: u64,
}

impl Reliability {
    /// The controller-side half of the run's fault report: scrub and
    /// re-issue counters plus the silent-corruption outcome.
    fn report(&self) -> FaultReport {
        let mut silent = self.silent;
        silent.poisoned_lines = self.poisoned.len() as u64;
        FaultReport {
            counters: self.counters,
            degraded: Dur::ZERO,
            silent,
        }
    }
}

/// The full memory subsystem behind the processor complex.
pub struct MemorySystem {
    cfg: MemoryConfig,
    mapper: InterleavedMapper,
    queue: TransactionQueue,
    spill: VecDeque<(MemRequest, MappedAddr)>,
    /// One scheduler per logical channel (drain-mode state is
    /// per-channel).
    scheds: Vec<Box<dyn SchedulerPolicy>>,
    /// Decides when each DIMM refreshes; `None` when the config's
    /// `refresh.enabled` switch is off.
    refresh: Option<StaggeredRefresh>,
    /// Scratch buffer reused across [`Self::run_refreshes`] calls.
    refresh_buf: Vec<RefreshOp>,
    /// Scratch buffer of schedulable candidates reused across
    /// [`Self::pick_for`] calls (steady state never allocates).
    cand_buf: Vec<QueueEntry>,
    table: Option<PrefetchTable>,
    /// Closed-loop recovery state; `None` unless a CRC-escape model,
    /// scrubbing, or prefetch re-issue is configured.
    reliability: Option<Box<Reliability>>,
    channels: Vec<Channel>,
    stats: MemStats,
    chan_counts: Vec<ChannelCounters>,
    tel: Option<Box<MemTel>>,
    /// Always-on per-rank power-mode trackers, indexed
    /// `(channel * dimms_per_channel + dimm) * ranks_per_dimm + rank`.
    /// They feed [`Self::energy_report`] and, when telemetry runs, the
    /// residency gauges and power trace tracks.
    power: Vec<PowerModeTracker>,
    /// Always-on stage × request-class latency attribution over every
    /// completed read. Cheap (fixed-size histograms, no allocation per
    /// read), so it needs no telemetry flag; `fbdsim profile` and the
    /// stats exporter read it back after the run.
    profile: StageProfile,
    /// DIMM-bus time of one line on a (ganged) DIMM.
    burst: Dur,
    clock: Dur,
    /// Host-side profiler handle (no-op unless a profiler is attached).
    host: HostHandle,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("tech", &self.cfg.tech)
            .field("channels", &self.channels.len())
            .field("queued", &self.queue.len())
            .field("spilled", &self.spill.len())
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds the subsystem for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &MemoryConfig) -> MemorySystem {
        MemorySystem::compose(cfg, &Composition::from_config(cfg))
            .unwrap_or_else(|e| panic!("invalid memory configuration: {e}"))
    }

    /// Builds the subsystem from an explicit [`Composition`]: the named
    /// scheduler is resolved against its registry and composed around
    /// `cfg`. This is how a string-selected policy (`--scheduler fcfs`)
    /// reaches the controller without the core naming any concrete type.
    ///
    /// # Errors
    ///
    /// Returns the configuration error, or a message naming an unknown
    /// scheduler with the available registry names.
    pub fn compose(cfg: &MemoryConfig, comp: &Composition) -> Result<MemorySystem, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        let sched_spec = schedulers().get(&comp.scheduler).ok_or_else(|| {
            format!(
                "unknown scheduler `{}` (available: {})",
                comp.scheduler,
                schedulers().available()
            )
        })?;
        let clock = cfg.data_rate.clock_period();
        let lines_per_clock_bytes = 16 * u64::from(cfg.phys_per_logical);
        let burst_clocks = (CACHE_LINE_BYTES).div_ceil(lines_per_clock_bytes);
        let burst = clock * burst_clocks;
        let close_page = cfg.page_policy == PagePolicy::ClosePage;
        let channels: Vec<Channel> = (0..cfg.logical_channels)
            .map(|ch| {
                let path = match cfg.tech {
                    MemoryTech::FbDimm { .. } => ChannelPath::Fbd {
                        link: FbdChannel::for_channel(cfg, ch),
                        dimms: (0..cfg.dimms_per_channel)
                            .map(|_| {
                                AmbDimm::with_ranks(
                                    cfg.ranks_per_dimm as usize,
                                    cfg.banks_per_dimm as usize,
                                    cfg.timings,
                                    clock,
                                    burst,
                                    close_page,
                                )
                            })
                            .collect(),
                    },
                    MemoryTech::Ddr2 => ChannelPath::Ddr2 {
                        cmd: Ddr2CommandBus::new(cfg),
                        bus: DataBus::new(clock),
                        dimms: (0..cfg.dimms_per_channel * cfg.ranks_per_dimm)
                            .map(|_| {
                                BankArray::new(cfg.banks_per_dimm as usize, cfg.timings, clock)
                            })
                            .collect(),
                    },
                };
                Channel { path, inflight: 0 }
            })
            .collect();
        let reliability = if cfg.faults.recovery_active() {
            Some(Box::new(Reliability {
                scrub: match cfg.faults.scrub {
                    ScrubPolicyKind::None => None,
                    ScrubPolicyKind::Patrol => Some(PatrolScrub::new(
                        cfg.logical_channels,
                        Dur::from_ns(cfg.faults.scrub_interval_ns),
                    )),
                },
                poisoned: LineSet::default(),
                pending: vec![VecDeque::new(); cfg.logical_channels as usize],
                reissue_budget: cfg.faults.reissue_budget as usize,
                counters: FaultCounters::default(),
                silent: SilentErrorReport::default(),
                synth: 0,
            }))
        } else {
            None
        };
        Ok(MemorySystem {
            mapper: InterleavedMapper::new(cfg),
            queue: TransactionQueue::new(cfg.queue_capacity as usize),
            spill: VecDeque::new(),
            scheds: (0..cfg.logical_channels)
                .map(|_| sched_spec.build(cfg))
                .collect(),
            refresh: cfg.refresh.enabled.then(|| StaggeredRefresh::new(cfg)),
            refresh_buf: Vec::new(),
            cand_buf: Vec::new(),
            table: cfg.amb.is_enabled().then(|| PrefetchTable::new(cfg)),
            reliability,
            channels,
            stats: MemStats::default(),
            chan_counts: vec![ChannelCounters::default(); cfg.logical_channels as usize],
            tel: None,
            // Built with `repeat_with`, not `vec![x; n]`: cloning a
            // tracker drops its pre-reserved span capacity (Vec::clone
            // allocates exactly `len`), which would put `note_busy`
            // back on the allocator in the hot loop.
            power: std::iter::repeat_with(|| PowerModeTracker::new(POWERDOWN_AFTER))
                .take((cfg.logical_channels * cfg.dimms_per_channel * cfg.ranks_per_dimm) as usize)
                .collect(),
            profile: StageProfile::new(),
            burst,
            clock,
            cfg: *cfg,
            host: HostHandle::off(),
        })
    }

    /// Attaches the host-side profiler handle (shared with the system's
    /// event loop); the scheduler and datapath mark their phases into
    /// it. See [`crate::System::set_host_profiler`].
    pub fn set_host_profiler(&mut self, host: HostHandle) {
        self.host = host;
    }

    /// Index of the power tracker for `(ch, dimm, rank)`.
    fn pidx(&self, ch: u32, dimm: u32, rank: u32) -> usize {
        ((ch * self.cfg.dimms_per_channel + dimm) * self.cfg.ranks_per_dimm + rank) as usize
    }

    /// Turns on telemetry collection for the rest of the run: registers
    /// the per-channel / per-DIMM metrics and names the trace tracks
    /// (one power track per rank).
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_interval` is `Some(Dur::ZERO)`.
    pub fn enable_telemetry(&mut self, config: &TelemetryConfig) {
        let mut tel = Telemetry::new(config);
        let ndimm = self.cfg.dimms_per_channel;
        let ranks = self.cfg.ranks_per_dimm;
        let nbank = self.cfg.banks_per_dimm;
        let chans: Vec<ChanIds> = (0..self.cfg.logical_channels)
            .map(|c| {
                if let Some(tr) = tel.tracer.as_mut() {
                    tr.name_process(c, &format!("chan{c}"));
                    tr.name_track(c, TID_SOUTH, "southbound");
                    tr.name_track(c, TID_NORTH, "northbound");
                    for d in 0..ndimm {
                        tr.name_track(c, tid_dimm(d as usize), &format!("dimm{d} amb"));
                        for b in 0..nbank {
                            tr.name_track(
                                c,
                                tid_bank(d as usize, b as usize),
                                &format!("dimm{d} bank{b}"),
                            );
                        }
                        for r in 0..ranks {
                            let label = if ranks == 1 {
                                format!("dimm{d} power")
                            } else {
                                format!("dimm{d}.rank{r} power")
                            };
                            tr.name_track(c, tid_power((d * ranks + r) as usize), &label);
                        }
                    }
                }
                ChanIds {
                    reads: tel.registry.counter(&format!("chan{c}.reads")),
                    writes: tel.registry.counter(&format!("chan{c}.writes")),
                    bytes: tel.registry.counter(&format!("chan{c}.bytes")),
                    amb_hits: tel.registry.counter(&format!("chan{c}.amb_hits")),
                    queue_depth: tel.registry.gauge(&format!("chan{c}.queue_depth")),
                    inflight: tel.registry.gauge(&format!("chan{c}.inflight")),
                    dimms: (0..ndimm)
                        .map(|d| DimmIds {
                            acts: tel.registry.counter(&format!("chan{c}.dimm{d}.acts")),
                            reads: tel.registry.counter(&format!("chan{c}.dimm{d}.col_reads")),
                            writes: tel.registry.counter(&format!("chan{c}.dimm{d}.col_writes")),
                            power_active_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.active_ns")),
                            power_standby_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.standby_ns")),
                            power_powerdown_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.powerdown_ns")),
                        })
                        .collect(),
                }
            })
            .collect();
        let read_latency = tel.registry.latency("mem.read_latency");
        let pf_fills = tel.registry.counter("amb.prefetch.fills");
        let pf_evictions = tel.registry.counter("amb.prefetch.evictions");
        let pf_hits = tel.registry.counter("amb.prefetch.hits");
        self.tel = Some(Box::new(MemTel {
            tel,
            chans,
            read_latency,
            pf_fills,
            pf_evictions,
            pf_hits,
        }));
    }

    /// The telemetry state, when enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref().map(|t| &t.tel)
    }

    /// Mutable telemetry state, when enabled (e.g. to register extra
    /// metrics in the shared registry).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.tel.as_mut().map(|t| &mut t.tel)
    }

    /// Always-on per-channel traffic counters, indexed by channel.
    pub fn channel_counters(&self) -> &[ChannelCounters] {
        &self.chan_counts
    }

    /// The always-on stage × request-class latency-attribution profile
    /// over every read and posted write completed so far.
    pub fn latency_profile(&self) -> &StageProfile {
        &self.profile
    }

    /// The fault-injection summary for the run so far, evaluated at
    /// `end` (degraded-width residency accrues until then), merged over
    /// every channel, plus the controller's recovery overlay (scrub and
    /// re-issue counters, silent-corruption outcome). `None` when both
    /// fault injection and recovery are off — the stats schema stays
    /// byte-identical to a no-fault run. A scrub-only run at zero BER
    /// reports `Some` so its traffic is visible.
    pub fn fault_report(&self, end: Time) -> Option<FaultReport> {
        let mut out: Option<FaultReport> = None;
        for c in &self.channels {
            if let ChannelPath::Fbd { link, .. } = &c.path {
                if let Some(r) = link.fault_report(end) {
                    match out.as_mut() {
                        Some(acc) => acc.merge(&r),
                        None => out = Some(r),
                    }
                }
            }
        }
        if let Some(rel) = self.reliability.as_deref() {
            let overlay = rel.report();
            match out.as_mut() {
                Some(acc) => acc.merge(&overlay),
                None => out = Some(overlay),
            }
        }
        out
    }

    /// When the next telemetry epoch snapshot is due ([`Time::NEVER`]
    /// when telemetry or sampling is off).
    pub fn next_sample_due(&self) -> Time {
        self.tel
            .as_ref()
            .map_or(Time::NEVER, |t| t.tel.next_sample_due())
    }

    /// Takes an epoch snapshot: refreshes the queue-depth / in-flight
    /// gauges, emits counter trace events, then samples every metric.
    pub fn sample_telemetry(&mut self, now: Time) {
        let Some(t) = self.tel.as_deref_mut() else {
            return;
        };
        for ch in 0..self.cfg.logical_channels {
            let (qd, inf) = {
                let ids = &t.chans[ch as usize];
                (ids.queue_depth, ids.inflight)
            };
            let depth = self.queue.channel_depth(ch) as f64;
            let inflight = f64::from(self.channels[ch as usize].inflight);
            t.tel.registry.set(qd, depth);
            t.tel.registry.set(inf, inflight);
            if let Some(tr) = t.tel.tracer.as_mut() {
                tr.counter("queue_depth", "ctrl", ch, TID_SOUTH, now, depth);
                tr.counter("inflight", "ctrl", ch, TID_SOUTH, now, inflight);
            }
        }
        t.tel.sample(now);
    }

    /// Ends telemetry at `end` and takes it out of the subsystem:
    /// resolves power-mode residencies and the energy report into the
    /// registry (and tracer, when tracing), then flushes the final
    /// partial epoch.
    pub fn finish_telemetry(&mut self, end: Time) -> Option<Telemetry> {
        let mut mt = self.tel.take()?;
        let ranks = self.cfg.ranks_per_dimm;
        for ch in 0..self.cfg.logical_channels {
            for d in 0..self.cfg.dimms_per_channel {
                let ids = mt.chans[ch as usize].dimms[d as usize];
                let mut res = fbd_power::ModeResidency::default();
                for r in 0..ranks {
                    let tracker = &self.power[self.pidx(ch, d, r)];
                    let rr = tracker.residency(end);
                    res.active += rr.active;
                    res.standby += rr.standby;
                    res.powerdown += rr.powerdown;
                    if let Some(tr) = mt.tel.tracer.as_mut() {
                        for span in tracker.spans(end) {
                            tr.complete(
                                span.mode.label(),
                                "power",
                                ch,
                                tid_power((d * ranks + r) as usize),
                                span.start,
                                span.dur(),
                                vec![],
                            );
                        }
                    }
                }
                mt.tel
                    .registry
                    .set(ids.power_active_ns, res.active.as_ns_f64());
                mt.tel
                    .registry
                    .set(ids.power_standby_ns, res.standby.as_ns_f64());
                mt.tel
                    .registry
                    .set(ids.power_powerdown_ns, res.powerdown.as_ns_f64());
            }
        }
        let energy = self.energy_report(end);
        for (path, value) in [
            ("energy.activation_nj", energy.activation_nj),
            ("energy.burst_nj", energy.burst_nj),
            ("energy.refresh_nj", energy.refresh_nj),
            ("energy.background_nj", energy.background_nj),
            ("energy.amb_nj", energy.amb_nj),
            ("energy.total_nj", energy.total_nj()),
            ("energy.avg_power_w", energy.avg_power_w()),
        ] {
            let id = mt.tel.registry.gauge(path);
            mt.tel.registry.set(id, value);
        }
        // Error/recovery gauges exist only when fault injection ran, so
        // a zero-BER run exports a byte-identical registry.
        if let Some(fr) = self.fault_report(end) {
            for (path, value) in [
                ("errors.injected", fr.counters.injected as f64),
                ("errors.detected", fr.counters.detected as f64),
                ("errors.retried", fr.counters.retried as f64),
                ("errors.retry_exhausted", fr.counters.retry_exhausted as f64),
                ("errors.failovers", fr.counters.failovers as f64),
                (
                    "errors.dropped_prefetch",
                    fr.counters.dropped_prefetch as f64,
                ),
                ("errors.degraded_ns", fr.degraded.as_ns_f64()),
                ("errors.escaped", fr.counters.escaped as f64),
                ("errors.probes", fr.counters.probes as f64),
                ("errors.failbacks", fr.counters.failbacks as f64),
                ("errors.reissued", fr.counters.reissued as f64),
                ("errors.scrub_reads", fr.counters.scrub_reads as f64),
                ("errors.scrub_rewrites", fr.counters.scrub_rewrites as f64),
                (
                    "errors.silent.poisoned_lines",
                    fr.silent.poisoned_lines as f64,
                ),
                (
                    "errors.silent.demand_consumed",
                    fr.silent.demand_consumed as f64,
                ),
                (
                    "errors.silent.scrubbed_clean",
                    fr.silent.scrubbed_clean as f64,
                ),
            ] {
                let id = mt.tel.registry.gauge(path);
                mt.tel.registry.set(id, value);
            }
        }
        mt.tel.finish(end);
        Some(mt.tel)
    }

    /// Submits a request. Returns the instant it becomes schedulable
    /// (arrival plus the controller's fixed overhead) and its channel, so
    /// the engine can schedule a decision.
    pub fn submit(&mut self, req: MemRequest) -> (u32, Time) {
        let mapped = self.mapper.map(req.line);
        let ready = req.arrival + self.cfg.controller_overhead;
        if !self.queue.try_push(req, mapped) {
            self.spill.push_back((req, mapped));
        }
        (mapped.channel, ready)
    }

    fn drain_spill(&mut self) {
        while !self.queue.is_full() {
            match self.spill.pop_front() {
                Some((req, mapped)) => {
                    let ok = self.queue.try_push(req, mapped);
                    debug_assert!(ok, "queue had space");
                }
                None => break,
            }
        }
    }

    /// True if any transaction is queued (or spilled) for channel `ch`,
    /// or a dropped prefetch is waiting for an idle-slot re-issue.
    pub fn has_work(&self, ch: u32) -> bool {
        self.queue.iter().any(|e| e.mapped.channel == ch)
            || self.spill.iter().any(|(_, m)| m.channel == ch)
            || self
                .reliability
                .as_deref()
                .is_some_and(|r| !r.pending[ch as usize].is_empty())
    }

    /// A completion was observed on `ch`: release its in-flight slot.
    pub fn complete(&mut self, ch: u32) {
        let c = &mut self.channels[ch as usize];
        c.inflight = c.inflight.saturating_sub(1);
    }

    /// Issues any refresh whose deadline has passed on channel `ch`.
    /// A refresh occupies every rank of the DIMM for `t_rfc`, which
    /// counts as busy time for the power-mode residency model.
    fn run_refreshes(&mut self, ch: u32, now: Time) {
        let ranks = self.cfg.ranks_per_dimm;
        let dimms_per_channel = self.cfg.dimms_per_channel;
        let Some(refresh) = self.refresh.as_mut() else {
            return;
        };
        let mut ops = std::mem::take(&mut self.refresh_buf);
        ops.clear();
        refresh.due(ch, now, &mut ops);
        let channel = &mut self.channels[ch as usize];
        for op in &ops {
            match &mut channel.path {
                ChannelPath::Fbd { dimms, .. } => {
                    dimms[op.dimm as usize].refresh(op.at, op.t_rfc);
                }
                ChannelPath::Ddr2 { dimms, .. } => {
                    // Refresh every rank of this DIMM (the bank
                    // arrays are laid out `dimm * ranks + rank`).
                    for r in 0..ranks {
                        dimms[(op.dimm * ranks + r) as usize].refresh_all(op.at, op.t_rfc);
                    }
                }
            }
            for r in 0..ranks {
                let i = ((ch * dimms_per_channel + op.dimm) * ranks + r) as usize;
                self.power[i].note_busy(op.at, op.at + op.t_rfc);
            }
        }
        self.refresh_buf = ops;
    }

    /// Runs one scheduling decision for channel `ch` at `now`, pushing
    /// issued transactions into `issued` (not cleared first) and
    /// returning when the channel should next decide (`None`: wait for
    /// a new arrival or a completion).
    ///
    /// A decision usually issues at most one transaction; on a
    /// shared-bus (DDR2) channel a triggered write drain commits the
    /// whole batch in one decision so the following reads' activates
    /// overlap the write burst.
    pub fn decide_into(&mut self, ch: u32, now: Time, issued: &mut Vec<Issued>) -> Option<Time> {
        if self.refresh.is_some() {
            self.run_refreshes(ch, now);
        }
        if self.channels[ch as usize].inflight >= MAX_INFLIGHT_PER_CHANNEL {
            self.host.mark_sampled(Phase::Controller);
            return None;
        }
        let next_ready = self.gather(ch, now);
        let Some(id) = self.pick_gathered(ch, now) else {
            // The channel has an idle slot: recovery work (a prefetch
            // re-issue, then a due scrub sweep) may claim it. Demand
            // traffic always won the pick above, so recovery never
            // displaces a schedulable transaction.
            if self.reliability.is_some() {
                if let Some(next) = self.dispatch_recovery(ch, now, issued) {
                    self.host.mark_sampled(Phase::Datapath);
                    return Some(next);
                }
            }
            // Nothing ready now; maybe a queued transaction becomes
            // schedulable later (spilled ones re-enter via the queue).
            self.host.mark_sampled(Phase::Controller);
            return next_ready;
        };
        let entry = self.queue.remove(id).expect("picked entry exists");
        self.drain_spill();
        let first_is_write = entry.req.kind == AccessKind::Write;
        // Everything up to the pick is controller work; the execute
        // calls below are the transaction's datapath.
        self.host.mark_sampled(Phase::Controller);
        issued.push(self.execute(entry, now));
        self.channels[ch as usize].inflight += 1;
        // Burst the write drain on a shared-bus channel: commit the whole
        // batch in one decision so the next reads' ACT/tRCD pipeline
        // overlaps the write burst on the data bus (what a real
        // controller's command scheduler achieves).
        if first_is_write && self.cfg.tech == MemoryTech::Ddr2 {
            while self.channels[ch as usize].inflight < MAX_INFLIGHT_PER_CHANNEL {
                self.gather(ch, now);
                let Some(nid) = self.pick_gathered(ch, now) else {
                    break;
                };
                let next_entry = self.queue.remove(nid).expect("picked entry exists");
                if next_entry.req.kind != AccessKind::Write {
                    // Put it back; reads resume at the next decision.
                    self.queue.restore(next_entry);
                    break;
                }
                self.drain_spill();
                issued.push(self.execute(next_entry, now));
                self.channels[ch as usize].inflight += 1;
            }
        }
        self.host.mark_sampled(Phase::Datapath);
        Some(self.next_slot(ch, now))
    }

    /// One walk over channel `ch`'s queued transactions: copies the
    /// schedulable ones into `cand_buf` (in queue order) and returns the
    /// earliest instant after `now` at which another becomes
    /// schedulable. An idle decision costs exactly this walk.
    fn gather(&mut self, ch: u32, now: Time) -> Option<Time> {
        let overhead = self.cfg.controller_overhead;
        self.cand_buf.clear();
        let mut next_ready: Option<Time> = None;
        for e in self.queue.iter().filter(|e| e.mapped.channel == ch) {
            let ready = e.req.arrival + overhead;
            if ready <= now {
                self.cand_buf.push(*e);
            } else if next_ready.is_none_or(|t| ready < t) {
                next_ready = Some(ready);
            }
        }
        next_ready
    }

    /// Applies the channel's scheduling policy to the candidates
    /// [`gather`](Self::gather) collected; `None` (without running the
    /// policy) when there are none. The policy contract — `pick` returns
    /// `Some` for every non-empty slice — makes `None` mean "nothing
    /// ready", which the idle-rerun fold in `System::run` relies on.
    fn pick_gathered(&mut self, ch: u32, now: Time) -> Option<fbd_types::RequestId> {
        if self.cand_buf.is_empty() {
            return None;
        }
        let table = self.table.as_ref();
        let channels = &self.channels;
        // Bank-readiness window: a bank that can accept an ACT soon
        // keeps the data bus busy; one deep in its tRC/precharge
        // window would stall it.
        let slack = self.clock * 2;
        let mut classified = 0u64;
        let mut classify = |e: &QueueEntry| -> SchedClass {
            classified += 1;
            if e.req.kind.is_read() {
                if let Some(t) = table {
                    if t.would_hit(ch, e.mapped.dimm, e.req.line) {
                        return SchedClass::Hit;
                    }
                }
            }
            let ranks = self.cfg.ranks_per_dimm;
            let (row_open, act_at, wtr_until) = match &channels[ch as usize].path {
                ChannelPath::Fbd { dimms, .. } => {
                    let d = &dimms[e.mapped.dimm as usize];
                    (
                        d.is_row_open_at(
                            e.mapped.rank as usize,
                            e.mapped.bank as usize,
                            e.mapped.row,
                        ),
                        d.earliest_act_at(e.mapped.rank as usize, e.mapped.bank as usize),
                        d.read_turnaround_until(e.mapped.rank as usize),
                    )
                }
                ChannelPath::Ddr2 { dimms, .. } => {
                    let d = &dimms[(e.mapped.dimm * ranks + e.mapped.rank) as usize];
                    (
                        d.is_row_open(e.mapped.bank as usize, e.mapped.row),
                        d.earliest_act(e.mapped.bank as usize),
                        d.read_turnaround_until(),
                    )
                }
            };
            // A read into a rank still inside its write-to-read
            // turnaround would stall; prefer ranks past it.
            let wtr_blocked = e.req.kind.is_read() && wtr_until > now + slack;
            if row_open && !wtr_blocked {
                SchedClass::Hit
            } else if act_at <= now + slack && !wtr_blocked {
                SchedClass::Ready
            } else {
                SchedClass::NotReady
            }
        };
        let picked = self.scheds[ch as usize].pick(&self.cand_buf, &mut classify);
        debug_assert!(picked.is_some(), "policies pick from non-empty slices");
        self.host.add(Counter::CandidatesClassified, classified);
        picked
    }

    /// The earliest instant after `now` at which another command can be
    /// scheduled on this channel (one command slot later).
    fn next_slot(&self, _ch: u32, now: Time) -> Time {
        match self.cfg.tech {
            MemoryTech::FbDimm { .. } => now + (self.clock * 2) / 3,
            MemoryTech::Ddr2 => now + self.clock,
        }
    }

    fn execute(&mut self, entry: QueueEntry, now: Time) -> Issued {
        match entry.req.kind {
            AccessKind::Write => self.execute_write(entry, now),
            _ => self.execute_read(entry, now),
        }
    }

    /// Builds a controller-originated queue entry (scrub sweep or
    /// prefetch re-issue) for `line`, with a synthesized id in the
    /// reserved top-half id space. Arrival is `now`, so the entry
    /// carries no queueing history.
    fn synth_entry(&mut self, kind: AccessKind, line: LineAddr, now: Time) -> QueueEntry {
        let rel = self
            .reliability
            .as_deref_mut()
            .expect("recovery state exists");
        let n = rel.synth;
        rel.synth += 1;
        QueueEntry {
            req: MemRequest::new(RequestId(SYNTH_ID_BASE + n), CoreId(0), kind, line, now),
            mapped: self.mapper.map(line),
            seq: SYNTH_ID_BASE + n,
        }
    }

    /// Tries to fill an idle decision slot with recovery work: a
    /// dropped-prefetch re-issue first (it has a consumer-visible hole
    /// to repair), then a due scrub sweep. A sweep that lands on a
    /// poisoned line issues the repair rewrite in the same decision.
    /// Returns the next decision instant when something was issued.
    fn dispatch_recovery(&mut self, ch: u32, now: Time, issued: &mut Vec<Issued>) -> Option<Time> {
        let reissue = self
            .reliability
            .as_deref_mut()
            .and_then(|r| r.pending[ch as usize].pop_front());
        if let Some(line) = reissue {
            let entry = self.synth_entry(AccessKind::HardwarePrefetch, line, now);
            issued.push(self.execute_read(entry, now));
            self.channels[ch as usize].inflight += 1;
            let rel = self
                .reliability
                .as_deref_mut()
                .expect("recovery state exists");
            rel.counters.reissued += 1;
            return Some(self.next_slot(ch, now));
        }
        let line = self
            .reliability
            .as_deref_mut()
            .and_then(|r| r.scrub.as_mut()?.next_scrub(ch, now))?;
        let entry = self.synth_entry(AccessKind::HardwarePrefetch, line, now);
        debug_assert_eq!(
            entry.mapped.channel, ch,
            "scrub lines stay on their channel"
        );
        issued.push(self.execute_read(entry, now));
        self.channels[ch as usize].inflight += 1;
        let rel = self
            .reliability
            .as_deref_mut()
            .expect("recovery state exists");
        rel.counters.scrub_reads += 1;
        // Verify half of read-verify-rewrite: a poisoned line gets a
        // clean rewrite (ordinary posted-write traffic, so its link,
        // bank and energy costs are modeled).
        if rel.poisoned.remove(&line) {
            rel.silent.scrubbed_clean += 1;
            rel.counters.scrub_rewrites += 1;
            let entry = self.synth_entry(AccessKind::Write, line, now);
            issued.push(self.execute_write(entry, now));
            self.channels[ch as usize].inflight += 1;
        }
        Some(self.next_slot(ch, now))
    }

    fn execute_read(&mut self, entry: QueueEntry, now: Time) -> Issued {
        let m = entry.mapped;
        let req = entry.req;
        let demand = req.kind == AccessKind::DemandRead;
        match req.kind {
            AccessKind::DemandRead => self.stats.demand_reads += 1,
            AccessKind::SoftwarePrefetch => self.stats.sw_prefetch_reads += 1,
            AccessKind::HardwarePrefetch => self.stats.hw_prefetch_reads += 1,
            AccessKind::Write => {
                // A write can only land here through a dispatch bug or a
                // malformed replay trace. Degrade by re-routing it onto
                // the write path and counting the violation, so a release
                // run reports a stat instead of panicking mid-replay.
                debug_assert!(false, "writes take the write path");
                self.stats.misrouted_writes += 1;
                return self.execute_write(entry, now);
            }
        }
        self.stats.data_bytes += CACHE_LINE_BYTES;
        let counts = &mut self.chan_counts[m.channel as usize];
        counts.reads += 1;
        counts.bytes += CACHE_LINE_BYTES;
        if let Some(t) = self.tel.as_deref_mut() {
            t.count_read(m.channel);
        }

        let pi = self.pidx(m.channel, m.dimm, m.rank);
        // Under the controller's recovery policy a corrupted northbound
        // transfer for a prefetch read is dropped instead of replayed.
        let droppable = fbd_ctrl::droppable(req.kind);
        // Stage-resolved latency attribution: the stamper's cursor walks
        // the request's lifecycle from arrival to completion, charging
        // each interval to exactly one stage, so the stage durations sum
        // to the end-to-end latency by construction. Retry time (replay
        // backoff and corrupted slots under fault injection) is charged
        // to its own stage at each link crossing.
        let mut st = StageBreakdown::stamper(req.arrival);
        let (completion, service, dropped, escaped) = match &mut self.channels[m.channel as usize]
            .path
        {
            ChannelPath::Fbd { link, dimms } => {
                st.to(Stage::CtrlQueue, req.arrival + entry.queue_wait(now));
                let cmd = link.send_command_checked(now);
                self.host
                    .add(Counter::FramesSent, 1 + cmd.failed.len() as u64);
                if !cmd.failed.is_empty() {
                    self.host.add(Counter::Retries, cmd.failed.len() as u64);
                }
                st.to(Stage::SouthLink, cmd.first_done);
                st.to(Stage::Retry, cmd.slot.done);
                let cmd_at_amb = cmd.slot.done;
                if let Some(t) = self.tel.as_deref_mut() {
                    t.retry_frames(m.channel, TID_SOUTH, &cmd.failed);
                    t.south_frame("cmd", m.channel, cmd.slot);
                }
                let dimm = &mut dimms[m.dimm as usize];
                let rank = m.rank as usize;
                let hit = self
                    .table
                    .as_mut()
                    .is_some_and(|t| t.lookup_hit(m.channel, m.dimm, req.line));
                if hit {
                    let data_ready = match self.cfg.amb.mode {
                        // FBD-APFL: charge the full DRAM latency without
                        // touching the bank (Figure 9's ablation).
                        AmbPrefetchMode::FullLatency => {
                            cmd_at_amb + self.cfg.timings.t_rcd + self.cfg.timings.t_cl
                        }
                        _ => cmd_at_amb,
                    };
                    st.to(Stage::AmbProc, data_ready);
                    self.stats.amb_hits += 1;
                    self.chan_counts[m.channel as usize].amb_hits += 1;
                    let north = link.return_read_data_checked(m.dimm, data_ready, droppable);
                    self.host
                        .add(Counter::FramesSent, 1 + north.failed.len() as u64);
                    if !north.failed.is_empty() {
                        self.host.add(Counter::Retries, north.failed.len() as u64);
                    }
                    st.to(Stage::NorthQueue, north.first_start);
                    st.to(Stage::NorthLink, north.first_done);
                    st.to(Stage::Retry, north.slot.done);
                    if let Some(t) = self.tel.as_deref_mut() {
                        t.amb_hit(m.channel, m.dimm, cmd_at_amb);
                        t.retry_frames(m.channel, TID_NORTH, &north.failed);
                        t.north_frame(m.channel, north.slot);
                    }
                    (
                        north.slot.done,
                        ServiceKind::AmbCacheHit,
                        north.dropped,
                        cmd.escaped || north.escaped,
                    )
                } else if let Some(table) = self.table.as_mut() {
                    // Group fetch: demanded line first, K−1 fills.
                    let k = self.cfg.amb.region_lines;
                    let out = dimm.fetch_group_at(rank, m.bank as usize, m.row, k, cmd_at_amb);
                    st.to(Stage::DramWait, out.service_start());
                    st.to(Stage::DramAct, out.first_cmd_at);
                    st.to(Stage::DramCas, out.demanded_ready);
                    let region = req.line.region(u64::from(k));
                    let fills = region.lines(u64::from(k)).filter(|l| *l != req.line);
                    let filled = table.fill(m.channel, m.dimm, fills);
                    self.stats.lines_prefetched += filled.inserted;
                    self.power[pi].note_busy(out.service_start(), out.fill_done);
                    let north =
                        link.return_read_data_checked(m.dimm, out.demanded_ready, droppable);
                    self.host
                        .add(Counter::FramesSent, 1 + north.failed.len() as u64);
                    if !north.failed.is_empty() {
                        self.host.add(Counter::Retries, north.failed.len() as u64);
                    }
                    st.to(Stage::NorthQueue, north.first_start);
                    st.to(Stage::NorthLink, north.first_done);
                    st.to(Stage::Retry, north.slot.done);
                    if let Some(t) = self.tel.as_deref_mut() {
                        t.group_fetch(m.channel, m.dimm, m.bank, &out, &filled);
                        t.retry_frames(m.channel, TID_NORTH, &north.failed);
                        t.north_frame(m.channel, north.slot);
                    }
                    (
                        north.slot.done,
                        ServiceKind::DramAccessWithPrefetch,
                        north.dropped,
                        cmd.escaped || north.escaped,
                    )
                } else {
                    let out = dimm.read_line_at(rank, m.bank as usize, m.row, cmd_at_amb);
                    st.to(Stage::DramWait, out.service_start());
                    st.to(Stage::DramAct, out.cmd_at);
                    st.to(Stage::DramCas, out.data_ready);
                    if out.row_hit {
                        self.stats.row_hits += 1;
                    }
                    self.power[pi].note_busy(out.service_start(), out.data_end);
                    let north = link.return_read_data_checked(m.dimm, out.data_ready, droppable);
                    self.host
                        .add(Counter::FramesSent, 1 + north.failed.len() as u64);
                    if !north.failed.is_empty() {
                        self.host.add(Counter::Retries, north.failed.len() as u64);
                    }
                    st.to(Stage::NorthQueue, north.first_start);
                    st.to(Stage::NorthLink, north.first_done);
                    st.to(Stage::Retry, north.slot.done);
                    if let Some(t) = self.tel.as_deref_mut() {
                        t.dram_read(m.channel, m.dimm, m.bank, &out);
                        t.retry_frames(m.channel, TID_NORTH, &north.failed);
                        t.north_frame(m.channel, north.slot);
                    }
                    let service = if out.row_hit {
                        ServiceKind::RowBufferHit
                    } else {
                        ServiceKind::DramAccess
                    };
                    (
                        north.slot.done,
                        service,
                        north.dropped,
                        cmd.escaped || north.escaped,
                    )
                }
            }
            ChannelPath::Ddr2 { cmd, bus, dimms } => {
                // Close page needs ACT + CAS on the shared command bus;
                // an open-page hit needs one; a conflict needs three.
                let dimm = &mut dimms[(m.dimm * self.cfg.ranks_per_dimm + m.rank) as usize];
                let n_cmds = if dimm.is_row_open(m.bank as usize, m.row) {
                    1
                } else {
                    2
                };
                let slots = cmd.issue_many(now, n_cmds);
                let op = ColumnOp {
                    kind: ColKind::Read,
                    auto_precharge: self.cfg.page_policy == PagePolicy::ClosePage,
                    burst: self.burst,
                };
                let plan = dimm.plan(m.bank as usize, m.row, op, slots[0], bus);
                // Command-bus slot wait counts as queueing; the bank's
                // precharge/turnaround window is DRAM wait; then the
                // ACT→CAS→burst pipeline maps onto the DRAM stages with
                // the data burst standing in for the return link.
                st.to(Stage::CtrlQueue, plan.first_cmd_at());
                st.to(Stage::DramWait, plan.act_at.unwrap_or(plan.cmd_at));
                st.to(Stage::DramAct, plan.cmd_at);
                st.to(Stage::DramCas, plan.data_start);
                st.to(Stage::NorthLink, plan.data_end);
                let row_hit = !plan.is_row_miss();
                if row_hit {
                    self.stats.row_hits += 1;
                }
                dimm.commit(&plan, bus);
                self.power[pi].note_busy(plan.first_cmd_at(), plan.data_end);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.ddr2_access(m.channel, m.dimm, &plan);
                }
                let service = if row_hit {
                    ServiceKind::RowBufferHit
                } else {
                    ServiceKind::DramAccess
                };
                (plan.data_end, service, false, false)
            }
        };
        // Silent-corruption bookkeeping: an escaped transfer poisons
        // the line; a demand read that sees escaped or already-poisoned
        // data has consumed silent corruption (the failure the scrubber
        // exists to pre-empt). Dropped prefetch returns are remembered
        // for idle-slot re-issue, and every serviced line feeds the
        // scrub policy's candidate pool.
        if let Some(rel) = self.reliability.as_deref_mut() {
            if let Some(scrub) = &mut rel.scrub {
                scrub.observe(m.channel, req.line);
            }
            if escaped {
                rel.poisoned.insert(req.line);
            }
            if demand && (escaped || rel.poisoned.contains(&req.line)) {
                rel.silent.demand_consumed += 1;
            }
            if dropped && rel.reissue_budget > 0 {
                let q = &mut rel.pending[m.channel as usize];
                if q.len() < rel.reissue_budget {
                    q.push_back(req.line);
                }
            }
        }
        if demand {
            self.stats.read_latency.record(completion - req.arrival);
            self.stats
                .read_latency_hist
                .record(completion - req.arrival);
            if let Some(t) = self.tel.as_deref_mut() {
                let id = t.read_latency;
                t.tel.registry.record(id, completion - req.arrival);
            }
        }
        self.stats
            .bandwidth_series
            .record(completion, CACHE_LINE_BYTES);
        let stages = st.finish();
        debug_assert_eq!(
            stages.total(),
            completion - req.arrival,
            "stage stamps must cover the whole read lifecycle"
        );
        self.profile.record(
            ReqClass::of(req.kind, service),
            &stages,
            completion - req.arrival,
        );
        Issued::Read {
            resp: MemResponse {
                id: req.id,
                core: req.core,
                line: req.line,
                kind: req.kind,
                completion,
                service,
                stages,
                dropped,
            },
        }
    }

    fn execute_write(&mut self, entry: QueueEntry, now: Time) -> Issued {
        let m = entry.mapped;
        let req = entry.req;
        self.stats.writes += 1;
        self.stats.data_bytes += CACHE_LINE_BYTES;
        let counts = &mut self.chan_counts[m.channel as usize];
        counts.writes += 1;
        counts.bytes += CACHE_LINE_BYTES;
        if let Some(t) = self.tel.as_deref_mut() {
            t.count_write(m.channel);
        }
        // A store makes any prefetched copy stale.
        if let Some(table) = self.table.as_mut() {
            table.invalidate(m.channel, m.dimm, req.line);
        }
        let pi = self.pidx(m.channel, m.dimm, m.rank);
        // Posted-write attribution, accept-to-drain: the stamper walks
        // from arrival to the last data beat at the devices, so the
        // stage durations sum to the recorded write latency exactly as
        // they do for reads.
        let mut st = StageBreakdown::stamper(req.arrival);
        let (done, escaped) = match &mut self.channels[m.channel as usize].path {
            ChannelPath::Fbd { link, dimms } => {
                st.to(Stage::CtrlQueue, req.arrival + entry.queue_wait(now));
                let wdata = link.send_write_data_checked(now);
                self.host
                    .add(Counter::FramesSent, 1 + wdata.failed.len() as u64);
                if !wdata.failed.is_empty() {
                    self.host.add(Counter::Retries, wdata.failed.len() as u64);
                }
                st.to(Stage::SouthLink, wdata.first_done);
                st.to(Stage::Retry, wdata.slot.done);
                let out = dimms[m.dimm as usize].write_line_at(
                    m.rank as usize,
                    m.bank as usize,
                    m.row,
                    wdata.slot.done,
                );
                // The AMB buffers the posted write until its bank can
                // take the drain, so bank-availability wait is AMB
                // buffering here, not DRAM time: the DRAM stages start
                // at the first drain command.
                st.to(Stage::AmbProc, out.service_start());
                st.to(Stage::DramAct, out.cmd_at);
                st.to(Stage::DramCas, out.data_end);
                self.power[pi].note_busy(out.service_start(), out.data_end);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.retry_frames(m.channel, TID_SOUTH, &wdata.failed);
                    t.south_frame("wdata", m.channel, wdata.slot);
                    t.dram_write(m.channel, m.dimm, m.bank, &out);
                }
                (out.data_end, wdata.escaped)
            }
            ChannelPath::Ddr2 { cmd, bus, dimms } => {
                let dimm = &mut dimms[(m.dimm * self.cfg.ranks_per_dimm + m.rank) as usize];
                let n_cmds = if dimm.is_row_open(m.bank as usize, m.row) {
                    1
                } else {
                    2
                };
                let slots = cmd.issue_many(now, n_cmds);
                let op = ColumnOp {
                    kind: ColKind::Write,
                    auto_precharge: self.cfg.page_policy == PagePolicy::ClosePage,
                    burst: self.burst,
                };
                let plan = dimm.plan(m.bank as usize, m.row, op, slots[0], bus);
                // Same mapping as DDR2 reads: command-bus slot wait is
                // queueing, the bank's precharge/turnaround window is
                // DRAM wait, and the write burst on the shared data bus
                // stands in for the return link.
                st.to(Stage::CtrlQueue, plan.first_cmd_at());
                st.to(Stage::DramWait, plan.act_at.unwrap_or(plan.cmd_at));
                st.to(Stage::DramAct, plan.cmd_at);
                st.to(Stage::DramCas, plan.data_start);
                st.to(Stage::NorthLink, plan.data_end);
                dimm.commit(&plan, bus);
                self.power[pi].note_busy(plan.first_cmd_at(), plan.data_end);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.ddr2_access(m.channel, m.dimm, &plan);
                }
                (plan.data_end, false)
            }
        };
        // A clean overwrite repairs latent corruption; escaped write
        // data means the devices stored garbage nobody will re-send.
        if let Some(rel) = self.reliability.as_deref_mut() {
            if let Some(scrub) = &mut rel.scrub {
                scrub.observe(m.channel, req.line);
            }
            if escaped {
                rel.poisoned.insert(req.line);
            } else {
                rel.poisoned.remove(&req.line);
            }
        }
        self.stats.bandwidth_series.record(done, CACHE_LINE_BYTES);
        let stages = st.finish();
        debug_assert_eq!(
            stages.total(),
            done - req.arrival,
            "stage stamps must cover the whole write lifecycle"
        );
        self.profile
            .record(ReqClass::Write, &stages, done - req.arrival);
        Issued::Write { done }
    }

    /// Statistics accumulated so far, with DRAM operation counters folded
    /// in from every DIMM.
    ///
    /// This clones the stats struct (including its histogram and series
    /// buffers) — fine for diagnostics and tests, but a finished run
    /// should move them out once via [`Self::finish_stats`] instead.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats.clone();
        self.fold_dimm_ops(&mut s);
        s
    }

    /// Moves the accumulated statistics out (DRAM operation counters
    /// folded in from every DIMM) without cloning the histogram and
    /// bandwidth-series buffers. Call once when the run is over; the
    /// internal stats are left empty.
    pub fn finish_stats(&mut self) -> MemStats {
        let mut s = std::mem::take(&mut self.stats);
        self.fold_dimm_ops(&mut s);
        s
    }

    fn fold_dimm_ops(&self, s: &mut MemStats) {
        for c in &self.channels {
            match &c.path {
                ChannelPath::Fbd { dimms, .. } => {
                    for d in dimms {
                        s.dram_ops.merge(&d.ops());
                        s.dram_active_time += d.active_time();
                    }
                }
                ChannelPath::Ddr2 { dimms, .. } => {
                    for d in dimms {
                        s.dram_ops.merge(d.ops());
                        s.dram_active_time += d.active_time();
                    }
                }
            }
        }
    }

    /// The end-to-end energy report for the run so far, evaluated at
    /// `end`: per-rank operation counts and power-mode residencies fed
    /// through the Micron [`EnergyModel`] matching the substrate's data
    /// rate (DDR3 currents for the DDR3-speed substrates, DDR2-667
    /// otherwise), with AMB core/link power included on FB-DIMM
    /// subsystems. The report names the current set it used.
    pub fn energy_report(&self, end: Time) -> EnergyReport {
        let buffered = matches!(self.cfg.tech, MemoryTech::FbDimm { .. });
        let ddr3 = matches!(self.cfg.data_rate, DataRate::MTS1333 | DataRate::MTS1066);
        let model = if ddr3 {
            EnergyModel::micron_ddr3_1333(buffered)
        } else {
            EnergyModel::micron_ddr2_667(buffered)
        };
        let ranks = self.cfg.ranks_per_dimm;
        let mut activity = Vec::with_capacity(self.power.len());
        for (ch, c) in self.channels.iter().enumerate() {
            for d in 0..self.cfg.dimms_per_channel {
                for r in 0..ranks {
                    let ops = match &c.path {
                        ChannelPath::Fbd { dimms, .. } => *dimms[d as usize].rank_ops(r as usize),
                        ChannelPath::Ddr2 { dimms, .. } => *dimms[(d * ranks + r) as usize].ops(),
                    };
                    activity.push(RankActivity {
                        channel: ch as u32,
                        dimm: d,
                        rank: r,
                        ops,
                        residency: self.power[self.pidx(ch as u32, d, r)].residency(end),
                    });
                }
            }
        }
        let amb_dimms = if buffered {
            self.cfg.logical_channels * self.cfg.dimms_per_channel
        } else {
            0
        };
        model.report(&activity, end - Time::ZERO, amb_dimms)
    }

    /// The configuration this subsystem was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(id: u64, line: u64, at: Time) -> MemRequest {
        MemRequest::new(
            RequestId(id),
            CoreId(0),
            AccessKind::DemandRead,
            LineAddr::new(line),
            at,
        )
    }

    #[test]
    fn refresh_manager_follows_the_config_switch() {
        let mut cfg = MemoryConfig {
            refresh: fbd_types::config::RefreshConfig::ddr2_1gb(),
            ..MemoryConfig::fbdimm_default()
        };
        assert!(MemorySystem::new(&cfg).refresh.is_some());
        cfg.refresh.enabled = false;
        assert!(MemorySystem::new(&cfg).refresh.is_none());
        assert!(
            MemorySystem::new(&MemoryConfig::fbdimm_default())
                .refresh
                .is_none(),
            "the paper default keeps refresh off"
        );
    }

    #[test]
    fn scrub_sweeps_issue_traffic_on_a_clean_channel() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.scrub = ScrubPolicyKind::Patrol;
        cfg.faults.scrub_interval_ns = 10;
        let mut mem = MemorySystem::new(&cfg);
        let mut issued = Vec::new();
        let (ch, ready) = mem.submit(demand(1, 0, Time::ZERO));
        mem.decide_into(ch, ready, &mut issued);
        assert_eq!(issued.len(), 1, "the demand read issues first");
        mem.complete(ch);
        // Channel idle, one line observed: the next decision sweeps it.
        issued.clear();
        let next = mem.decide_into(ch, Time::from_ns(1_000), &mut issued);
        assert_eq!(issued.len(), 1, "the idle slot runs a scrub read");
        assert!(next.is_some());
        let fr = mem
            .fault_report(Time::from_ns(2_000))
            .expect("scrub-only runs still report recovery activity");
        assert_eq!(fr.counters.scrub_reads, 1);
        assert_eq!(
            fr.counters.scrub_rewrites, 0,
            "a clean line needs no rewrite"
        );
        assert_eq!(fr.counters.injected, 0);
        assert_eq!(fr.silent, SilentErrorReport::default());
        // Scrub traffic is attributed to the hw-prefetch class, so the
        // stage-sum invariant ran on it (debug_assert in execute_read).
        let s = mem.stats();
        assert_eq!(s.hw_prefetch_reads, 1);
    }

    #[test]
    fn dropped_prefetches_are_reissued_in_idle_slots() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.ber = 1.0; // every northbound prefetch return drops
        cfg.faults.seed = 7;
        cfg.faults.reissue_budget = 4;
        let mut mem = MemorySystem::new(&cfg);
        let mut issued = Vec::new();
        let (ch, ready) = mem.submit(MemRequest::new(
            RequestId(1),
            CoreId(0),
            AccessKind::HardwarePrefetch,
            LineAddr::new(3),
            Time::ZERO,
        ));
        mem.decide_into(ch, ready, &mut issued);
        assert_eq!(issued.len(), 1);
        let Issued::Read { resp } = issued[0] else {
            panic!("a prefetch read was issued");
        };
        assert!(resp.dropped, "at BER 1.0 the prefetch return is dropped");
        mem.complete(ch);
        assert!(mem.has_work(ch), "a remembered drop counts as pending work");
        issued.clear();
        mem.decide_into(ch, Time::from_ns(5_000), &mut issued);
        assert_eq!(issued.len(), 1, "the idle slot re-issues the drop");
        let fr = mem
            .fault_report(Time::from_ns(10_000))
            .expect("faulted run");
        assert_eq!(fr.counters.reissued, 1);
        assert!(fr.counters.dropped_prefetch >= 1);
    }

    #[test]
    fn escapes_poison_lines_and_patrol_scrub_repairs_them() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.ber = 1.0; // every frame corrupt ...
        cfg.faults.crc_bits = 1; // ... and half the corruptions escape
        cfg.faults.seed = 42;
        cfg.faults.scrub = ScrubPolicyKind::Patrol;
        cfg.faults.scrub_interval_ns = 10;
        let mut mem = MemorySystem::new(&cfg);
        let mut issued = Vec::new();
        let mut t = Time::ZERO;
        for i in 0..50 {
            t = Time::from_ns(1_000 * (i + 1));
            let (ch, _) = mem.submit(demand(i, 5, t));
            issued.clear();
            mem.decide_into(ch, t + cfg.controller_overhead, &mut issued);
            assert_eq!(issued.len(), 1);
            mem.complete(ch);
        }
        let fr = mem.fault_report(t).expect("faulted run");
        assert!(fr.counters.escaped > 0, "a 1-bit CRC lets escapes through");
        assert_eq!(
            fr.counters.detected + fr.counters.escaped,
            fr.counters.injected,
            "every injection is either detected or escaped"
        );
        assert_eq!(fr.silent.poisoned_lines, 1, "line 5 is poisoned");
        assert!(
            fr.silent.demand_consumed > 0,
            "later demand reads consumed the poisoned line"
        );
        // An idle decision sweeps the (only) observed line and repairs
        // it with a rewrite in the same decision.
        issued.clear();
        mem.decide_into(0, t + Dur::from_ns(1_000), &mut issued);
        assert!(issued.len() >= 2, "scrub read plus repair rewrite");
        let fr = mem.fault_report(t + Dur::from_ns(2_000)).expect("report");
        assert!(fr.silent.scrubbed_clean >= 1);
        assert!(fr.counters.scrub_rewrites >= 1);
    }
}

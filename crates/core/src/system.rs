//! The full-system simulation engine.
//!
//! An event-driven loop couples the processor complex (`fbd-cpu`) to the
//! memory subsystem ([`crate::memsys::MemorySystem`]): cores emit
//! requests, channel decision events schedule them, completions flow
//! back and unblock commit. The run ends when any core commits its
//! instruction budget (the paper's stop condition).

use fbd_cpu::{CpuComplex, TraceSource};
use fbd_faults::FaultReport;
use fbd_power::EnergyReport;
use fbd_telemetry::host::{Counter, HostHandle, HostReport, Phase};
use fbd_telemetry::{MetricId, SampleObserver, StageProfile, Telemetry, TelemetryConfig};
use fbd_types::config::SystemConfig;
use fbd_types::request::AccessKind;
use fbd_types::stats::{CoreStats, MemStats};
use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;

use crate::compose::Composition;
use crate::events::EventQueue;
use crate::memsys::{ChannelCounters, Issued, MemorySystem};
use crate::trace_io::{MemoryTrace, TraceRecord};

/// Safety valve: abort runs that exceed this much simulated time
/// (indicates a deadlock bug, not a slow workload).
const MAX_SIM_TIME: Time = Time::from_ns(1_000_000_000); // 1 s

/// Retired requests after which the run is considered to be in
/// allocation steady state (every pool and scratch buffer has hit its
/// high-water mark); the `alloc-count` gate measures from here.
const STEADY_RETIRED: u64 = 1_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Run a scheduling decision for a logical channel.
    Decide(u32),
    /// A read completed at the controller; deliver to the cores and free
    /// the channel's in-flight slot. The flag marks a transfer whose
    /// northbound data was dropped under fault injection (the line is
    /// not cached).
    ReadDone(u32, LineAddr, bool),
    /// A write finished at the devices; free the in-flight slot.
    WriteDone(u32),
    /// A core's self-wake (ROB stall expiry or projected finish).
    CpuWake,
    /// Take a telemetry epoch snapshot.
    Sample,
}

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Simulated time at which the first core finished its budget.
    pub elapsed: Dur,
    /// Per-core execution statistics.
    pub cores: Vec<CoreStats>,
    /// Memory-subsystem statistics.
    pub mem: MemStats,
    /// Always-on per-channel traffic counters, indexed by channel.
    pub channels: Vec<ChannelCounters>,
    /// The run's energy breakdown (activation, burst, refresh,
    /// background, AMB) from the Micron energy model matching the
    /// substrate's data rate; the report names the IDD current set it
    /// used.
    pub energy: EnergyReport,
    /// The captured transaction trace, when capture was enabled.
    pub trace: Option<MemoryTrace>,
    /// The run's telemetry (registry, epoch time-series, event trace),
    /// when telemetry was enabled.
    pub telemetry: Option<Telemetry>,
    /// Stage × request-class latency attribution over every completed
    /// read and posted write (always collected; see
    /// [`MemorySystem::latency_profile`](crate::MemorySystem::latency_profile)).
    pub profile: StageProfile,
    /// Error/recovery summary when fault injection was configured
    /// (`None` on a no-fault run, so downstream exports stay identical).
    pub faults: Option<FaultReport>,
    /// Host-side profile of the run: wall-clock phase breakdown, event
    /// counters, and simulated-cycles/sec throughput (a disabled
    /// default report when no profiler was attached).
    pub host: HostReport,
}

impl RunResult {
    /// Utilized bandwidth in GB/s over the run.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.mem.utilized_bandwidth_gbps(self.elapsed)
    }

    /// Average demand-read latency in nanoseconds.
    pub fn avg_read_latency_ns(&self) -> f64 {
        self.mem.read_latency.mean().map_or(0.0, |d| d.as_ns_f64())
    }

    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(CoreStats::ipc).collect()
    }

    /// Per-channel utilized bandwidth in GB/s over the run.
    pub fn channel_bandwidth_gbps(&self) -> Vec<f64> {
        let secs = self.elapsed.as_ns_f64() * 1e-9;
        self.channels
            .iter()
            .map(|c| {
                if secs > 0.0 {
                    c.bytes as f64 * 1e-9 / secs
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Demand-read latency percentile in nanoseconds (0 until reads
    /// complete).
    pub fn read_latency_percentile_ns(&self, q: f64) -> f64 {
        self.mem
            .read_latency_hist
            .percentile(q)
            .map_or(0.0, |d| d.as_ns_f64())
    }
}

/// A complete simulated system, ready to run.
#[derive(Debug)]
pub struct System {
    cpu: CpuComplex,
    mem: MemorySystem,
    events: EventQueue<Event>,
    now: Time,
    /// Scratch for requests drained from the cores each pump (reused so
    /// the steady-state loop never allocates).
    req_buf: Vec<fbd_types::request::MemRequest>,
    /// Scratch for transactions issued per decision (same reuse).
    issued_buf: Vec<Issued>,
    /// Requests retired so far (drives the steady-state allocation
    /// snapshot at [`STEADY_RETIRED`]).
    retired: u64,
    /// Earliest outstanding [`Event::CpuWake`], or a past time when
    /// none is queued. [`pump_cpu`](Self::pump_cpu) skips scheduling a
    /// wake at or after an already-outstanding one: the earlier wake
    /// re-pumps and re-schedules, so the skipped wake could only ever
    /// have been a no-op pump. Without this, every pump while the CPU
    /// is memory-stalled queued another wake for the same instant —
    /// dozens of identical events per bucket.
    cpu_wake_at: Time,
    capture: Option<MemoryTrace>,
    /// `(l2_mshr_occupancy, outstanding_misses)` gauge handles, set when
    /// telemetry is enabled.
    cpu_gauges: Option<(MetricId, MetricId)>,
    /// Host-side profiler handle (no-op unless a profiler is attached).
    host: HostHandle,
}

impl System {
    /// Builds a system from a validated configuration and one trace per
    /// core; the run ends when a core commits `budget` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does
    /// not match the core count.
    pub fn new(cfg: &SystemConfig, traces: Vec<Box<dyn TraceSource>>, budget: u64) -> System {
        System::composed(cfg, traces, budget, &Composition::from_config(&cfg.mem))
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }

    /// Like [`new`](Self::new), but composes the memory subsystem from
    /// an explicit [`Composition`] of registry names.
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid configuration field or the
    /// unresolved registry name.
    ///
    /// # Panics
    ///
    /// Panics if the trace count does not match the core count.
    pub fn composed(
        cfg: &SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        budget: u64,
        comp: &Composition,
    ) -> Result<System, String> {
        cfg.cpu.validate().map_err(|e| e.to_string())?;
        let mem = MemorySystem::compose(&cfg.mem, comp)?;
        Ok(System {
            cpu: CpuComplex::new(&cfg.cpu, traces, budget),
            mem,
            events: EventQueue::from_env(),
            now: Time::ZERO,
            // Sized to the per-pump ceiling (every L2 MSHR missing at
            // once, each with a dirty writeback, plus prefetcher
            // suggestions) so steady state never grows them.
            req_buf: Vec::with_capacity(cfg.cpu.l2_mshrs as usize * 2 + 64),
            issued_buf: Vec::with_capacity(64),
            retired: 0,
            cpu_wake_at: Time::ZERO,
            capture: None,
            cpu_gauges: None,
            host: HostHandle::off(),
        })
    }

    /// Attaches a host-side profiler: the event loop marks phase
    /// boundaries and bumps hot-loop counters into it, and
    /// [`RunResult::host`] carries its report. Without this call every
    /// instrumentation site is a no-op branch.
    pub fn set_host_profiler(&mut self, host: HostHandle) {
        self.mem.set_host_profiler(host.clone());
        self.host = host;
    }

    /// Attaches a [`SampleObserver`] notified with every epoch-sampler
    /// row — requires telemetry sampling to already be enabled (no-op
    /// otherwise).
    pub fn set_sample_observer(&mut self, observer: SampleObserver) {
        if let Some(tel) = self.mem.telemetry_mut() {
            tel.observer = observer;
        }
    }

    /// Records every transaction handed to the memory controller; the
    /// trace is returned in [`RunResult::trace`].
    pub fn enable_trace_capture(&mut self) {
        self.capture = Some(MemoryTrace::new());
    }

    /// Turns on telemetry for the run: the memory subsystem registers
    /// its metrics and tracks, the processor registers its occupancy
    /// gauges, and (when sampling is configured) the event loop
    /// schedules epoch snapshots. The collected [`Telemetry`] is
    /// returned in [`RunResult::telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_interval` is `Some(Dur::ZERO)`.
    pub fn enable_telemetry(&mut self, config: &TelemetryConfig) {
        self.mem.enable_telemetry(config);
        let reg = &mut self.mem.telemetry_mut().expect("just enabled").registry;
        self.cpu_gauges = Some((
            reg.gauge("cpu.l2_mshr_occupancy"),
            reg.gauge("cpu.outstanding_misses"),
        ));
    }

    /// Fast-forwards each trace through the L2 for `ops_per_core`
    /// operations, so capacity evictions (writeback traffic) are
    /// present from the start; call it on a constructed system before
    /// `run`.
    pub fn warm(&mut self, ops_per_core: u64) {
        self.cpu.warm_l2(ops_per_core);
    }

    /// Snapshots the post-warm-up CPU state (L2 contents and trace
    /// positions); see [`fbd_cpu::CpuComplex::warm_snapshot`].
    pub fn warm_snapshot(&self) -> Option<fbd_cpu::WarmState> {
        self.cpu.warm_snapshot()
    }

    /// Restores a snapshot taken by [`Self::warm_snapshot`] —
    /// byte-identical to replaying the same warm-up. Returns `false`
    /// and leaves the system untouched if the snapshot does not fit.
    pub fn warm_restore(&mut self, state: &fbd_cpu::WarmState) -> bool {
        self.cpu.warm_restore(state)
    }

    fn push(&mut self, at: Time, ev: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        // Decisions are the only event kind pushed redundantly (one per
        // submitted request / completion); the wheel collapses identical
        // same-instant entries into one multiplicity-counted entry.
        let dedup = matches!(ev, Event::Decide(_));
        self.events.push(at, ev, dedup);
    }

    /// Pulls new requests from the cores and schedules the resulting
    /// channel decisions and CPU wakes.
    fn pump_cpu(&mut self) {
        let mut reqs = std::mem::take(&mut self.req_buf);
        debug_assert!(reqs.is_empty());
        let next_wake = self.cpu.advance_into(self.now, &mut reqs);
        self.host.mark_sampled(Phase::Cpu);
        for req in reqs.drain(..) {
            if let Some(trace) = self.capture.as_mut() {
                trace.push(TraceRecord {
                    arrival: req.arrival,
                    kind: req.kind,
                    line: req.line,
                    core: req.core,
                });
            }
            let (ch, ready) = self.mem.submit(req);
            self.push(ready.max(self.now), Event::Decide(ch));
        }
        self.req_buf = reqs;
        if let Some(wake) = next_wake {
            // Schedule only if no earlier (or equal) wake is already
            // outstanding; that wake's own pump re-schedules the rest.
            if wake > self.now && (self.cpu_wake_at <= self.now || wake < self.cpu_wake_at) {
                self.push(wake, Event::CpuWake);
                self.cpu_wake_at = wake;
            }
        }
        self.host.mark_sampled(Phase::Controller);
    }

    /// Runs one decision for `ch`; `rest` more identical runs are
    /// queued at this instant. Returns `true` when the decision issued
    /// nothing: the `rest` reruns would be idle too (see [`Self::run`]),
    /// so they are folded here — their successors are pushed with this
    /// run's own — and the caller must not execute them.
    fn run_decision(&mut self, ch: u32, rest: u32) -> bool {
        let mut issued = std::mem::take(&mut self.issued_buf);
        debug_assert!(issued.is_empty());
        let next_decision = self.mem.decide_into(ch, self.now, &mut issued);
        let idle = issued.is_empty();
        for issued in issued.drain(..) {
            match issued {
                Issued::Read { resp } => {
                    self.push(
                        resp.completion,
                        Event::ReadDone(ch, resp.line, resp.dropped),
                    );
                    // Software prefetches and demand reads both fill the
                    // L2; the complex routes waiters by line.
                    debug_assert!(resp.kind != AccessKind::Write);
                }
                Issued::Write { done } => {
                    self.push(done.max(self.now), Event::WriteDone(ch));
                }
            }
        }
        self.issued_buf = issued;
        // An idle run stands for itself and the reruns it folds.
        let runs = if idle { 1 + rest } else { 1 };
        if let Some(next) = next_decision {
            self.events
                .push_n(next.max(self.now), Event::Decide(ch), runs);
        }
        self.host.mark_sampled(Phase::Controller);
        self.host.bump(Counter::Decisions);
        if idle {
            self.host.add(Counter::DecisionsCollapsed, u64::from(rest));
        }
        idle
    }

    /// Counts a retired request; at [`STEADY_RETIRED`] the allocation
    /// steady state begins and the `alloc-count` snapshot is taken.
    fn note_retired(&mut self) {
        self.host.bump(Counter::RequestsRetired);
        self.retired += 1;
        if self.retired == STEADY_RETIRED {
            self.host.note_steady_start();
        }
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (no events while no core can
    /// finish) or exceeds the safety time limit — both indicate bugs,
    /// not workload properties.
    pub fn run(mut self) -> RunResult {
        self.pump_cpu();
        let due = self.mem.next_sample_due();
        if due != Time::NEVER {
            self.push(due, Event::Sample);
        }
        'run: loop {
            let Some((at, ev, count)) = self.events.pop() else {
                panic!("simulation deadlock: no events pending and no core finished");
            };
            assert!(
                at <= MAX_SIM_TIME,
                "simulation exceeded the safety time limit"
            );
            self.now = self.now.max(at);
            self.host.bump(Counter::Events);
            // `count` > 1 only for deduped same-instant decisions; the
            // seed heap popped those back to back (equal keys cannot be
            // interleaved), so re-running the handler — with the finish
            // check between runs, which the handler cannot perturb —
            // reproduces it exactly. Once a run issues nothing, every
            // later run at this instant would too (an idle decision
            // changes no state a decision reads; DESIGN.md §16), so
            // `run_decision` folds the remaining runs into one push of
            // their successors instead of replaying them.
            let mut runs = count;
            while runs > 0 {
                runs -= 1;
                match ev {
                    Event::Decide(ch) => {
                        if self.run_decision(ch, runs) {
                            runs = 0;
                        }
                    }
                    Event::ReadDone(ch, line, dropped) => {
                        self.mem.complete(ch);
                        let deliver = self.now + self.cpu.fill_latency();
                        if dropped {
                            self.cpu.complete_dropped(line, deliver);
                        } else {
                            self.cpu.complete(line, deliver);
                        }
                        self.pump_cpu();
                        if self.mem.has_work(ch) {
                            self.push(self.now, Event::Decide(ch));
                        }
                        self.note_retired();
                        self.host.mark_sampled(Phase::Controller);
                    }
                    Event::WriteDone(ch) => {
                        self.mem.complete(ch);
                        if self.mem.has_work(ch) {
                            self.push(self.now, Event::Decide(ch));
                        }
                        self.note_retired();
                        self.host.mark_sampled(Phase::Controller);
                    }
                    Event::CpuWake => {
                        self.pump_cpu();
                    }
                    Event::Sample => {
                        if let Some((mshr, outstanding)) = self.cpu_gauges {
                            let (lines, slots) = self.cpu.occupancy();
                            if let Some(tel) = self.mem.telemetry_mut() {
                                tel.registry.set(mshr, lines as f64);
                                tel.registry.set(outstanding, slots as f64);
                            }
                        }
                        self.mem.sample_telemetry(self.now);
                        // `sample` advances the next deadline strictly
                        // past `now`, so this cannot self-schedule a
                        // busy loop.
                        let due = self.mem.next_sample_due();
                        if due != Time::NEVER {
                            self.push(due, Event::Sample);
                        }
                        self.host.mark_sampled(Phase::Telemetry);
                    }
                }
                if self.cpu.any_done(self.now) {
                    break 'run;
                }
            }
        }
        // End of the hot loop: close the steady-state allocation window
        // before stats collection (which legitimately allocates).
        self.host.note_steady_end();
        let elapsed = self.now - Time::ZERO;
        let cores = self.cpu.finish(self.now);
        let telemetry = self.mem.finish_telemetry(self.now);
        let mem = self.mem.finish_stats();
        let ops = &mem.dram_ops;
        // ACT/PRE are counted as pairs; expand to individual commands.
        self.host.set(
            Counter::DramCommands,
            ops.act_pre * 2 + ops.col_total() + ops.refreshes,
        );
        let instructions: u64 = cores.iter().map(|c| c.instructions).sum();
        self.host.mark(Phase::Finish);
        let mut host = self.host.finish_report(
            elapsed,
            self.mem.config().data_rate.clock_period(),
            instructions,
        );
        host.build = crate::build_info();
        RunResult {
            elapsed,
            cores,
            mem,
            channels: self.mem.channel_counters().to_vec(),
            energy: self.mem.energy_report(self.now),
            profile: self.mem.latency_profile().clone(),
            faults: self.mem.fault_report(self.now),
            trace: self.capture,
            telemetry,
            host,
        }
    }
}

//! The traced run: a copy of `System::run`'s event loop, driven through
//! the simulator's public layer calls with a timer around each call.
//!
//! The loop reproduces `System::composed` + `System::warm` +
//! `System::run` step for step (same event kinds and ordering, same
//! wake de-duplication, same same-instant decision collapsing), so its
//! simulated outputs must equal the untraced run's; the benchmark
//! counts any difference as a failed run. Each timed call adds two
//! clock reads, so the traced hot loop is slower than the untraced one
//! (`trace.overhead_ratio`).

use std::time::Instant;

use fbd_core::events::EventWheel;
use fbd_core::{Issued, MemorySystem, RunResult};
use fbd_cpu::CpuComplex;
use fbd_types::request::MemRequest;
use fbd_types::time::Time;
use fbd_types::LineAddr;

use crate::spec::Bench;

/// `System::run`'s safety valve on simulated time.
const MAX_SIM_TIME: Time = Time::from_ns(1_000_000_000);

/// Ids at or above this are controller-synthesized (scrub reads and
/// prefetch re-issues), not queued requests.
const SYNTH_ID_BASE: u64 = 1 << 63;

/// Same variants, in the same order, as the engine's own event type
/// (minus telemetry sampling, which the benchmark never enables), so
/// same-instant events pop in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Decide(u32),
    ReadDone(u32, LineAddr, bool),
    WriteDone(u32),
    CpuWake,
}

/// Accumulated host time and call count of one timed call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Summed wall time, ns.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Mean ns per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-layer timings and counts of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `EventWheel::push`.
    pub push: Span,
    /// `EventWheel::pop`.
    pub pop: Span,
    /// `CpuComplex::advance_into`.
    pub advance: Span,
    /// `CpuComplex::complete` / `complete_dropped`.
    pub cpu_complete: Span,
    /// `MemorySystem::submit`.
    pub submit: Span,
    /// `MemorySystem::decide_into` calls that issued nothing.
    pub decide_idle: Span,
    /// `MemorySystem::decide_into` calls that issued a transaction.
    pub decide_issue: Span,
    /// `MemorySystem::complete`.
    pub mem_complete: Span,
    /// `MemorySystem::has_work`.
    pub has_work: Span,
    /// Transactions issued by all decisions.
    pub tx_issued: u64,
    /// Event handler runs (popped entries times their multiplicity).
    pub handler_runs: u64,
    /// Σ over issuing decisions of the channel's queued-request count
    /// just before the decision (controller-synthesized traffic
    /// excluded); divided by issuing decisions it is the mean queue
    /// depth a pick sees.
    pub depth_sum: u64,
    /// Issuing decisions that served queued requests.
    pub queue_decisions: u64,
    /// Host time of `CpuComplex::new` + `MemorySystem::compose`, ns.
    pub compose_ns: u64,
    /// Host time of the L2 warm-up, ns.
    pub warm_ns: u64,
    /// Host time of the hot loop (first pump to the finishing event), ns.
    pub hot_ns: u64,
    /// Host time of the end-of-run collection (`finish`,
    /// `finish_stats`, `energy_report`, profile and fault report), ns.
    pub finish_ns: u64,
    /// Shared-L2 (hits, misses) over the measured window.
    pub l2: (u64, u64),
}

impl Layers {
    /// Every timed call site, with its metric prefix.
    pub fn spans(&self) -> [(&'static str, &Span); 9] {
        [
            ("events.push", &self.push),
            ("events.pop", &self.pop),
            ("cpu.advance", &self.advance),
            ("cpu.complete", &self.cpu_complete),
            ("memsys.submit", &self.submit),
            ("memsys.decide_idle", &self.decide_idle),
            ("memsys.decide_issue", &self.decide_issue),
            ("memsys.complete", &self.mem_complete),
            ("memsys.has_work", &self.has_work),
        ]
    }

    /// Host time covered by timed calls, ns.
    pub fn timed_ns(&self) -> u64 {
        self.spans().iter().map(|(_, s)| s.ns).sum()
    }
}

/// A traced run's simulated result and its layer breakdown.
#[derive(Debug)]
pub struct Traced {
    /// The simulated outputs, comparable with `System::run`'s.
    pub result: RunResult,
    /// Host timings and counts per layer.
    pub layers: Layers,
}

struct Loop {
    cpu: CpuComplex,
    mem: MemorySystem,
    events: EventWheel<Event>,
    now: Time,
    req_buf: Vec<MemRequest>,
    issued_buf: Vec<Issued>,
    cpu_wake_at: Time,
    /// Requests submitted to each channel and not yet issued from the
    /// queue.
    queued: Vec<u64>,
    l: Layers,
}

impl Loop {
    fn push(&mut self, at: Time, ev: Event) {
        let dedup = matches!(ev, Event::Decide(_));
        let t = Instant::now();
        self.events.push(at, ev, dedup);
        self.l.push.add(t);
    }

    fn pump_cpu(&mut self) {
        let mut reqs = std::mem::take(&mut self.req_buf);
        let t = Instant::now();
        let next_wake = self.cpu.advance_into(self.now, &mut reqs);
        self.l.advance.add(t);
        for req in reqs.drain(..) {
            let t = Instant::now();
            let (ch, ready) = self.mem.submit(req);
            self.l.submit.add(t);
            self.queued[ch as usize] += 1;
            self.push(ready.max(self.now), Event::Decide(ch));
        }
        self.req_buf = reqs;
        if let Some(wake) = next_wake {
            if wake > self.now && (self.cpu_wake_at <= self.now || wake < self.cpu_wake_at) {
                self.push(wake, Event::CpuWake);
                self.cpu_wake_at = wake;
            }
        }
    }

    fn run_decision(&mut self, ch: u32) {
        let mut issued = std::mem::take(&mut self.issued_buf);
        let t = Instant::now();
        let next = self.mem.decide_into(ch, self.now, &mut issued);
        if issued.is_empty() {
            self.l.decide_idle.add(t);
        } else {
            self.l.decide_issue.add(t);
            self.l.tx_issued += issued.len() as u64;
            let synthesized = issued
                .iter()
                .any(|i| matches!(i, Issued::Read { resp } if resp.id.0 >= SYNTH_ID_BASE));
            if !synthesized {
                let q = &mut self.queued[ch as usize];
                self.l.depth_sum += *q;
                self.l.queue_decisions += 1;
                *q = q.saturating_sub(issued.len() as u64);
            }
        }
        for i in issued.drain(..) {
            match i {
                Issued::Read { resp } => {
                    self.push(
                        resp.completion,
                        Event::ReadDone(ch, resp.line, resp.dropped),
                    );
                }
                Issued::Write { done } => {
                    let at = done.max(self.now);
                    self.push(at, Event::WriteDone(ch));
                }
            }
        }
        self.issued_buf = issued;
        if let Some(next) = next {
            let at = next.max(self.now);
            self.push(at, Event::Decide(ch));
        }
    }

    fn completion(&mut self, ch: u32) {
        let t = Instant::now();
        self.mem.complete(ch);
        self.l.mem_complete.add(t);
    }

    fn decide_if_work(&mut self, ch: u32) {
        let t = Instant::now();
        let work = self.mem.has_work(ch);
        self.l.has_work.add(t);
        if work {
            self.push(self.now, Event::Decide(ch));
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Decide(ch) => self.run_decision(ch),
            Event::ReadDone(ch, line, dropped) => {
                self.completion(ch);
                let deliver = self.now + self.cpu.fill_latency();
                let t = Instant::now();
                if dropped {
                    self.cpu.complete_dropped(line, deliver);
                } else {
                    self.cpu.complete(line, deliver);
                }
                self.l.cpu_complete.add(t);
                self.pump_cpu();
                self.decide_if_work(ch);
            }
            Event::WriteDone(ch) => {
                self.completion(ch);
                self.decide_if_work(ch);
            }
            Event::CpuWake => self.pump_cpu(),
        }
    }
}

/// Runs `bench` once through the traced loop: cold composition,
/// `Warmup::Auto` L2 warm-up, hot loop, end-of-run collection.
///
/// # Errors
///
/// Returns the composition error.
///
/// # Panics
///
/// Panics where `System::run` would: a deadlock, or simulated time
/// past the safety limit.
pub fn run(bench: &Bench) -> Result<Traced, String> {
    let mut l = Layers::default();
    let t = Instant::now();
    bench.cfg.validate().map_err(|e| e.to_string())?;
    let mem = MemorySystem::compose(&bench.cfg.mem, &bench.comp)?;
    let mut cpu = CpuComplex::new(&bench.cfg.cpu, bench.traces(), bench.budget);
    l.compose_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    cpu.warm_l2(bench.warm_ops);
    l.warm_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(
        mem.next_sample_due(),
        Time::NEVER,
        "the traced loop models no telemetry sampling"
    );
    let channels = bench.cfg.mem.logical_channels as usize;
    let mut s = Loop {
        cpu,
        mem,
        events: EventWheel::new(),
        now: Time::ZERO,
        req_buf: Vec::with_capacity(bench.cfg.cpu.l2_mshrs as usize * 2 + 64),
        issued_buf: Vec::with_capacity(64),
        cpu_wake_at: Time::ZERO,
        queued: vec![0; channels],
        l,
    };

    let hot = Instant::now();
    s.pump_cpu();
    'run: loop {
        let t = Instant::now();
        let popped = s.events.pop();
        s.l.pop.add(t);
        let Some((at, ev, count)) = popped else {
            panic!("simulation deadlock: no events pending and no core finished");
        };
        assert!(
            at <= MAX_SIM_TIME,
            "simulation exceeded the safety time limit"
        );
        s.now = s.now.max(at);
        for _ in 0..count {
            s.l.handler_runs += 1;
            s.handle(ev);
            if s.cpu.any_done(s.now) {
                break 'run;
            }
        }
    }
    s.l.hot_ns = hot.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let elapsed = s.now - Time::ZERO;
    let cores = s.cpu.finish(s.now);
    let telemetry = s.mem.finish_telemetry(s.now);
    let mem_stats = s.mem.finish_stats();
    let result = RunResult {
        elapsed,
        cores,
        mem: mem_stats,
        channels: s.mem.channel_counters().to_vec(),
        energy: s.mem.energy_report(s.now),
        profile: s.mem.latency_profile().clone(),
        faults: s.mem.fault_report(s.now),
        trace: None,
        telemetry,
        host: Default::default(),
    };
    s.l.finish_ns = t.elapsed().as_nanos() as u64;
    s.l.l2 = s.cpu.l2_counts();
    Ok(Traced {
        result,
        layers: s.l,
    })
}

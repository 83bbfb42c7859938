//! Memory-trace capture and replay.
//!
//! A [`MemoryTrace`] is the stream of transactions the processor complex
//! handed to the memory controller during a run: arrival time, kind,
//! cacheline, issuing core. Traces serialize to a simple CSV so they can
//! be archived, inspected, or produced by external tools, and can be
//! *replayed* against any memory configuration with
//! [`replay`] — the classic trace-driven mode of DRAM simulators.
//!
//! Caveat (inherent to trace-driven evaluation): a replayed trace does
//! not model CPU feedback — arrival times are frozen at their recorded
//! values, so a faster memory system shows lower latency but cannot pull
//! requests in earlier. Use full-system runs for performance claims and
//! replay for memory-subsystem analysis.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, Write};

use fbd_faults::FaultReport;
use fbd_telemetry::StageProfile;
use fbd_types::config::MemoryConfig;
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::stats::MemStats;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, RequestId};

use crate::memsys::{ChannelCounters, Issued, MemorySystem};

/// One recorded memory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival at the memory controller.
    pub arrival: Time,
    /// Transaction kind.
    pub kind: AccessKind,
    /// Target cacheline.
    pub line: LineAddr,
    /// Issuing core.
    pub core: CoreId,
}

/// A captured stream of memory transactions, in arrival order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryTrace {
    records: Vec<TraceRecord>,
}

/// Error from parsing a trace CSV.
#[derive(Debug)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

fn kind_code(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::DemandRead => "R",
        AccessKind::SoftwarePrefetch => "P",
        AccessKind::HardwarePrefetch => "H",
        AccessKind::Write => "W",
    }
}

fn kind_from_code(code: &str) -> Option<AccessKind> {
    Some(match code {
        "R" => AccessKind::DemandRead,
        "P" => AccessKind::SoftwarePrefetch,
        "H" => AccessKind::HardwarePrefetch,
        "W" => AccessKind::Write,
        _ => return None,
    })
}

impl MemoryTrace {
    /// An empty trace.
    pub fn new() -> MemoryTrace {
        MemoryTrace::default()
    }

    /// Appends a record (records must arrive in non-decreasing time).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `arrival` goes backwards.
    pub fn push(&mut self, record: TraceRecord) {
        debug_assert!(
            self.records
                .last()
                .is_none_or(|r| r.arrival <= record.arrival),
            "trace records must be time-ordered"
        );
        self.records.push(record);
    }

    /// The recorded transactions.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the trace as CSV: `arrival_ps,kind,line,core`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn to_csv<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "arrival_ps,kind,line,core")?;
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{}",
                r.arrival.as_ps(),
                kind_code(r.kind),
                r.line.as_u64(),
                r.core.0
            )?;
        }
        Ok(())
    }

    /// Parses a trace from the CSV produced by [`to_csv`](Self::to_csv).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line on any
    /// malformed row, and propagates I/O errors as parse errors.
    pub fn from_csv<R: BufRead>(input: R) -> Result<MemoryTrace, ParseTraceError> {
        let mut trace = MemoryTrace::new();
        for (i, line) in input.lines().enumerate() {
            let line = line.map_err(|e| ParseTraceError {
                line: i + 1,
                reason: e.to_string(),
            })?;
            if i == 0 && line.starts_with("arrival_ps") {
                continue; // header
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let err = |reason: &str| ParseTraceError {
                line: i + 1,
                reason: reason.to_string(),
            };
            let arrival: u64 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad arrival"))?;
            let kind = fields
                .next()
                .and_then(|f| kind_from_code(f.trim()))
                .ok_or_else(|| err("bad kind"))?;
            let line_addr: u64 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad line"))?;
            let core: u32 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad core"))?;
            trace.push(TraceRecord {
                arrival: Time::from_ps(arrival),
                kind,
                line: LineAddr::new(line_addr),
                core: CoreId(core),
            });
        }
        Ok(trace)
    }
}

/// Result of replaying a trace against a memory configuration.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Memory statistics of the replay.
    pub mem: MemStats,
    /// Energy breakdown of the replay (the report names the IDD
    /// current set matching the substrate).
    pub energy: fbd_power::EnergyReport,
    /// Instant the last transaction completed.
    pub finished: Time,
    /// Stage × request-class latency attribution over the replayed
    /// reads and writes.
    pub profile: StageProfile,
    /// Always-on per-channel traffic counters, indexed by channel.
    pub channels: Vec<ChannelCounters>,
    /// Error/recovery summary when the configuration enabled fault
    /// injection (`None` on a no-fault replay).
    pub faults: Option<FaultReport>,
}

impl ReplayResult {
    /// Utilized bandwidth over the replay.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.mem
            .utilized_bandwidth_gbps(self.finished.saturating_since(Time::ZERO))
    }
}

/// Replays `trace` against a fresh memory subsystem built from `cfg`,
/// keeping the recorded arrival times (open-loop).
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn replay(cfg: &MemoryConfig, trace: &MemoryTrace) -> ReplayResult {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Done(u32),
        Decide(u32),
    }
    let mut mem = MemorySystem::new(cfg);
    let mut events: BinaryHeap<Reverse<(Time, Ev)>> = BinaryHeap::new();
    for (i, r) in trace.records().iter().enumerate() {
        let req = MemRequest::new(RequestId(i as u64), r.core, r.kind, r.line, r.arrival);
        let (ch, ready) = mem.submit(req);
        events.push(Reverse((ready, Ev::Decide(ch))));
    }
    let mut finished = Time::ZERO;
    let mut issued = Vec::new();
    while let Some(Reverse((t, ev))) = events.pop() {
        match ev {
            Ev::Decide(ch) => {
                let next = mem.decide_into(ch, t, &mut issued);
                for tx in issued.drain(..) {
                    let done = match tx {
                        Issued::Read { resp } => resp.completion,
                        Issued::Write { done } => done,
                    };
                    finished = finished.max(done);
                    events.push(Reverse((done.max(t), Ev::Done(ch))));
                }
                if let Some(next) = next {
                    events.push(Reverse((next.max(t), Ev::Decide(ch))));
                }
            }
            Ev::Done(ch) => {
                mem.complete(ch);
                if mem.has_work(ch) {
                    events.push(Reverse((t, Ev::Decide(ch))));
                }
            }
        }
    }
    ReplayResult {
        energy: mem.energy_report(finished),
        finished,
        profile: mem.latency_profile().clone(),
        channels: mem.channel_counters().to_vec(),
        faults: mem.fault_report(finished),
        mem: mem.finish_stats(),
    }
}

/// Dur helper for the replay result (re-exported convenience).
pub fn elapsed(result: &ReplayResult) -> Dur {
    result.finished.saturating_since(Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryTrace {
        let mut t = MemoryTrace::new();
        for i in 0..20u64 {
            t.push(TraceRecord {
                arrival: Time::from_ns(i * 50),
                kind: if i % 5 == 4 {
                    AccessKind::Write
                } else {
                    AccessKind::DemandRead
                },
                line: LineAddr::new(i * 7),
                core: CoreId((i % 2) as u32),
            });
        }
        t
    }

    #[test]
    fn csv_round_trips() {
        let t = sample();
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let back = MemoryTrace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn malformed_csv_reports_line() {
        let bad = "arrival_ps,kind,line,core\n123,X,4,0\n";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        assert!(err.to_string().contains("bad kind"));
    }

    #[test]
    fn truncated_row_reports_line_not_panics() {
        // A row cut off mid-record (e.g. a truncated download) must
        // surface as a parse error naming the offset, never a panic.
        let bad = "arrival_ps,kind,line,core\n100,R,7,0\n200,W";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("bad line"), "{err}");
        // Missing only the core field.
        let bad = "arrival_ps,kind,line,core\n100,R,7\n";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("bad core"), "{err}");
        // Binary garbage on the first data row.
        let mut bytes = b"arrival_ps,kind,line,core\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0x00, b'\n']);
        let err = MemoryTrace::from_csv(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn replay_reports_faults_only_when_injecting() {
        let t = sample();
        let clean = replay(&MemoryConfig::fbdimm_default(), &t);
        assert!(clean.faults.is_none());
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1e-4;
        let faulted = replay(&cfg, &t);
        let report = faulted.faults.expect("fault injection was on");
        assert!(report.counters.injected > 0, "{report:?}");
        assert_eq!(report.counters.detected, report.counters.injected);
    }

    #[test]
    fn replay_serves_every_transaction() {
        let t = sample();
        let result = replay(&MemoryConfig::fbdimm_default(), &t);
        assert_eq!(result.mem.demand_reads, 16);
        assert_eq!(result.mem.writes, 4);
        assert!(result.finished > Time::from_ns(950));
        assert!(result.bandwidth_gbps() > 0.0);
    }

    #[test]
    fn replay_is_deterministic_and_config_sensitive() {
        let t = sample();
        let a = replay(&MemoryConfig::fbdimm_default(), &t);
        let b = replay(&MemoryConfig::fbdimm_default(), &t);
        assert_eq!(a.finished, b.finished);
        // Prefetching changes the DRAM operation mix on the same trace.
        let ap = replay(&MemoryConfig::fbdimm_with_prefetch(), &t);
        assert!(ap.mem.lines_prefetched > 0);
    }
}

//! Latency-attribution invariants (ISSUE 3 + ISSUE 4 acceptance
//! criteria).
//!
//! For deterministic seeds, every completed read's and write's stage
//! durations must sum exactly to its end-to-end latency on every system
//! variant, AMB-hit reads must record zero DRAM-bank time, AMB-buffered
//! writes must record zero DRAM-wait time (buffering is charged to the
//! AMB stage until the drain), and enabling AMB prefetching must
//! visibly shift demand-read time out of the DRAM-bank stage. Write
//! traffic must also conserve across counter levels: channel writes
//! equal the summed per-DIMM column writes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fbd_core::{Issued, MemorySystem, RunResult, RunSpec};
use fbd_telemetry::{LogHistogram, MetricValue, TelemetryConfig};
use fbd_types::request::{AccessKind, CoreId, MemRequest, ReqClass, Stage, REQ_CLASSES, STAGES};
use fbd_types::substrate::substrates;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, RequestId};

const BUDGET: u64 = 40_000;
const SEED: u64 = 42;

fn run(system: &str, workload: &str) -> RunResult {
    let mem = substrates().get(system).expect("known system").config();
    RunSpec::paper_default(fbd_workloads::find(workload).expect("workload").cores())
        .workload(workload)
        .memory(mem)
        .budget(BUDGET)
        .seed(SEED)
        .run()
}

#[test]
fn stage_sums_equal_end_to_end_latency_on_every_system() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let r = run(system, "1C-swim");
        let p = &r.profile;
        assert_eq!(
            p.mismatches(),
            0,
            "{system}: some reads' stage durations did not sum to their latency"
        );
        let total_reads = r.mem.demand_reads + r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads;
        assert_eq!(
            p.reads(),
            total_reads,
            "{system}: profile must cover every completed read"
        );
        assert!(p.reads() > 0, "{system}: workload must issue reads");
        // The same identity holds on the write path: every retired
        // write is stamped, and its stage durations sum to its
        // accept-to-drain latency.
        assert_eq!(
            p.write_mismatches(),
            0,
            "{system}: some writes' stage durations did not sum to their latency"
        );
        assert_eq!(
            p.writes(),
            r.mem.writes,
            "{system}: profile must cover every retired write"
        );
        assert!(p.writes() > 0, "{system}: workload must issue writebacks");
        // Per class, every stage histogram carries one sample per read.
        for class in REQ_CLASSES {
            let n = p.end_to_end(class).count();
            for stage in STAGES {
                assert_eq!(
                    p.stage(class, stage).count(),
                    n,
                    "{system}: {}/{} sample count",
                    class.label(),
                    stage.label()
                );
            }
        }
    }
}

#[test]
fn amb_hits_record_zero_dram_bank_time() {
    let r = run("fbd-ap", "1C-swim");
    let p = &r.profile;
    assert_eq!(
        p.end_to_end(ReqClass::AmbHit).count(),
        r.mem.amb_hits,
        "every AMB hit lands in the AmbHit class"
    );
    assert!(r.mem.amb_hits > 0, "swim must hit the AMB prefetch buffer");
    for stage in STAGES.iter().filter(|s| s.is_dram()) {
        let h = p.stage(ReqClass::AmbHit, *stage);
        assert_eq!(
            h.max(),
            Dur::ZERO,
            "AMB hits must spend zero time in {}",
            stage.label()
        );
    }
    assert_eq!(p.dram_bank(ReqClass::AmbHit).max(), Dur::ZERO);
    // The full-latency ablation also bypasses the bank: its charge goes
    // to AMB processing, not to the DRAM stages.
    let fl = run("fbd-apfl", "1C-swim");
    let hits = fl.profile.stage(ReqClass::AmbHit, Stage::AmbProc);
    assert!(fl.mem.amb_hits > 0);
    assert!(
        hits.mean_ns() > 0.0,
        "FBD-APFL charges tRCD+tCL as AMB processing time"
    );
    assert_eq!(fl.profile.dram_bank(ReqClass::AmbHit).max(), Dur::ZERO);
}

#[test]
fn amb_prefetch_shifts_demand_p50_out_of_the_dram_stage() {
    // Paper-default FB-DIMM, 1C-swim: without prefetching the typical
    // demand read pays the DRAM bank pipeline; with AMB prefetching the
    // typical demand-class read (demand + AMB hit) pays none of it.
    let base = run("fbd", "1C-swim");
    let ap = run("fbd-ap", "1C-swim");

    let base_p50 = base.profile.dram_bank(ReqClass::Demand).percentile(0.50);
    assert!(
        base_p50 > Dur::ZERO,
        "without prefetching the median demand read must touch the bank"
    );

    let mut ap_demand = LogHistogram::new();
    ap_demand.merge(ap.profile.dram_bank(ReqClass::Demand));
    ap_demand.merge(ap.profile.dram_bank(ReqClass::AmbHit));
    let ap_p50 = ap_demand.percentile(0.50);
    assert!(
        ap_p50 < base_p50,
        "AMB prefetching must shift p50 demand-read DRAM-bank time down \
         (base {:.1} ns vs ap {:.1} ns)",
        base_p50.as_ns_f64(),
        ap_p50.as_ns_f64()
    );
    // And the shift shows up end-to-end, not only in the decomposition.
    assert!(ap.mem.amb_hits > 0);
    let base_e2e = base.profile.end_to_end(ReqClass::Demand).mean_ns();
    let mut ap_e2e = LogHistogram::new();
    ap_e2e.merge(ap.profile.end_to_end(ReqClass::Demand));
    ap_e2e.merge(ap.profile.end_to_end(ReqClass::AmbHit));
    assert!(
        ap_e2e.mean_ns() < base_e2e,
        "prefetching must lower mean demand latency ({:.1} vs {:.1} ns)",
        base_e2e,
        ap_e2e.mean_ns()
    );
}

#[test]
fn amb_buffered_writes_record_zero_dram_wait_until_drain() {
    // On FB-DIMM systems the AMB buffers the posted write until its
    // bank can take the drain: bank-availability wait is charged to the
    // AMB stage, so writes record zero DRAM-wait time, and (writes being
    // posted) zero northbound time.
    for system in ["fbd", "fbd-ap", "fbd-apfl"] {
        let r = run(system, "1C-swim");
        let p = &r.profile;
        assert!(p.writes() > 0, "{system}: workload must issue writebacks");
        for stage in [Stage::DramWait, Stage::NorthQueue, Stage::NorthLink] {
            assert_eq!(
                p.stage(ReqClass::Write, stage).max(),
                Dur::ZERO,
                "{system}: buffered writes must spend zero time in {}",
                stage.label()
            );
        }
    }
    // The DDR2 baseline has no AMB: a write into a busy bank does pay a
    // DRAM-wait (precharge/turnaround) window on the shared bus.
    let ddr2 = run("ddr2", "1C-swim");
    assert!(ddr2.profile.writes() > 0);
}

#[test]
fn channel_writes_equal_summed_dimm_col_writes() {
    // Write-counter conservation on a write-only stream: the channel
    // write counters must agree with the per-DIMM column-write counters
    // on every system — including the DDR2 batch-drain path, which this
    // stream trips (all-write queue, drain threshold exceeded).
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let cfg = substrates().get(system).expect("known system").config();
        let mut mem = MemorySystem::new(&cfg);
        mem.enable_telemetry(&TelemetryConfig::default());

        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Done(u32),
            Decide(u32),
        }
        let mut events: BinaryHeap<Reverse<(Time, Ev)>> = BinaryHeap::new();
        let total: u64 = 300;
        for i in 0..total {
            // Strided lines spread the stream over channels, DIMMs and
            // banks; the tight arrival pitch keeps the queue deep enough
            // to engage the DDR2 write-drain batch.
            let req = MemRequest::new(
                RequestId(i),
                CoreId(0),
                AccessKind::Write,
                LineAddr::new(i * 7),
                Time::from_ns(i * 4),
            );
            let (ch, ready) = mem.submit(req);
            events.push(Reverse((ready, Ev::Decide(ch))));
        }
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

        let reg = &mem.telemetry().expect("telemetry enabled").registry;
        let counter = |path: &str| -> u64 {
            let id = reg
                .lookup(path)
                .unwrap_or_else(|| panic!("{path} registered"));
            match reg.value(id) {
                MetricValue::Counter(n) => n,
                other => panic!("{path} is not a counter: {other:?}"),
            }
        };
        let mut chan_total = 0;
        for c in 0..cfg.logical_channels {
            let chan_writes = counter(&format!("chan{c}.writes"));
            let dimm_sum: u64 = (0..cfg.dimms_per_channel)
                .map(|d| counter(&format!("chan{c}.dimm{d}.col_writes")))
                .sum();
            assert_eq!(
                chan_writes, dimm_sum,
                "{system}: chan{c}.writes must equal its summed per-DIMM col_writes"
            );
            chan_total += chan_writes;
        }
        assert_eq!(
            chan_total, total,
            "{system}: every submitted write must retire exactly once"
        );
        // The always-on counters and the stats roll-up agree too.
        let counted: u64 = mem.channel_counters().iter().map(|c| c.writes).sum();
        assert_eq!(counted, total);
        assert_eq!(mem.stats().dram_ops.col_writes, total);
        assert_eq!(mem.stats().misrouted_writes, 0);
        // And the profile stamped every one of them consistently.
        assert_eq!(mem.latency_profile().writes(), total);
        assert_eq!(mem.latency_profile().write_mismatches(), 0);
    }
}

#[test]
fn profile_is_deterministic_and_folded_export_is_well_formed() {
    let a = run("fbd-ap", "1C-swim");
    let b = run("fbd-ap", "1C-swim");
    assert_eq!(a.profile.to_folded(), b.profile.to_folded());
    assert_eq!(a.profile.reads(), b.profile.reads());
    assert_eq!(a.profile.writes(), b.profile.writes());

    let folded = a.profile.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("frame + weight");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "<root>;<class>;<stage>: {line}");
        assert!(
            frames[0] == "read" || frames[0] == "write",
            "bad root frame: {line}"
        );
        assert!(weight.parse::<u64>().expect("integer weight") > 0);
    }
    // AMB hits never produce DRAM frames.
    assert!(!folded.contains("amb_hit;dram"));
    assert!(folded.contains("read;amb_hit;north"));
    // Write frames are present and carry the write root.
    assert!(
        folded.contains("write;write;"),
        "write frames missing:\n{folded}"
    );
}

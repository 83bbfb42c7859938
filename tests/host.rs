//! Integration tests for host-side observability: the profiler's
//! phase-partition invariant on a real run, build provenance, the
//! `LogHistogram` merge algebra and fast-fidelity sampler monotonicity
//! that the live dashboard and throughput bench depend on.

use std::sync::Arc;

use fbd_core::{calibrate, RunSpec};
use fbd_telemetry::host::{Counter, HostProfiler, Phase};
use fbd_telemetry::{json, Json, LogHistogram, TelemetryConfig};
use fbd_types::time::Dur;

fn spec() -> RunSpec {
    RunSpec::paper_default(1).workload("1C-swim").budget(20_000)
}

#[test]
fn profiled_run_partitions_wall_time_and_counts_the_hot_loop() {
    let profiler = Arc::new(HostProfiler::enabled());
    let r = spec().host_profiler(Arc::clone(&profiler)).run();
    let h = &r.host;
    assert!(h.enabled);
    assert!(!h.wall.is_zero());
    // The acceptance invariant: the per-phase breakdown explains at
    // least 95% of measured wall time (by construction it is ~100%).
    let sum = h.phase_fraction_sum();
    assert!((0.95..=1.05).contains(&sum), "phase fractions sum to {sum}");
    assert!(h.cycles_per_sec() > 0.0 && h.cycles_per_sec().is_finite());
    assert!(h.instr_per_sec() > 0.0);
    assert_eq!(h.instructions, 20_000);
    assert!(h.sim_cycles > 0);
    // Hot-loop counters moved: events, scheduling decisions, retired
    // requests, DRAM commands and FBD link frames all fired; no faults
    // were injected, so no link retries.
    // 1C-swim leaves the controller idle most of the time, so idle
    // same-instant decision reruns were folded.
    for c in [
        Counter::Events,
        Counter::Decisions,
        Counter::RequestsRetired,
        Counter::DramCommands,
        Counter::FramesSent,
        Counter::DecisionsCollapsed,
    ] {
        assert!(profiler.counter(c) > 0, "counter {c:?} never moved");
    }
    assert_eq!(profiler.counter(Counter::Retries), 0);
    // DRAM commands reconcile with the device statistics.
    assert_eq!(
        profiler.counter(Counter::DramCommands),
        r.mem.dram_ops.act_pre * 2 + r.mem.dram_ops.col_total() + r.mem.dram_ops.refreshes
    );
    // The simulation phases dominate; setup/harness are overhead.
    let hot: f64 = [
        Phase::Cpu,
        Phase::Controller,
        Phase::Datapath,
        Phase::Warmup,
    ]
    .iter()
    .map(|&p| profiler.phase(p).as_secs_f64())
    .sum();
    assert!(
        hot > 0.5 * h.wall.as_secs_f64(),
        "simulation phases cover only {:.0}% of wall time",
        100.0 * hot / h.wall.as_secs_f64()
    );
}

/// Host counters of `fbdsim run` on 1C-swim/fbd-ap with the event
/// queue selected by `FBD_EVENT_QUEUE` and any `extra` options.
fn cli_counters(queue: &str, extra: &[&str]) -> Json {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(["run", "--workload", "1C-swim", "--system", "fbd-ap"])
        .args(["--budget", "20000", "--json"])
        .args(extra)
        .env("FBD_EVENT_QUEUE", queue)
        .output()
        .expect("fbdsim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("well-formed stats JSON");
    doc.get("host")
        .and_then(|h| h.get("counters"))
        .expect("host counters")
        .clone()
}

/// One counter of a [`cli_counters`] object.
fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("counter {key} missing")) as u64
}

#[test]
fn events_count_pops_and_folded_decisions_are_accounted_for() {
    let wheel = cli_counters("wheel", &[]);
    let heap = cli_counters("heap", &[]);
    // The heap pops every same-instant duplicate separately, so each
    // pop runs one decision and nothing is ever folded.
    assert_eq!(count(&heap, "decisions_collapsed"), 0);
    // The wheel runs fewer decisions; the folded ones make up the
    // difference exactly.
    let (ran, folded) = (
        count(&wheel, "decisions"),
        count(&wheel, "decisions_collapsed"),
    );
    assert!(folded > 0, "no decision was folded on 1C-swim");
    assert_eq!(ran + folded, count(&heap, "decisions"));
    // `events` counts pops: a merged wheel entry is one event however
    // many runs it stands for.
    assert!(count(&wheel, "events") < count(&heap, "events"));
    assert_eq!(
        count(&wheel, "requests_retired"),
        count(&heap, "requests_retired")
    );
}

#[test]
fn candidates_classified_counts_the_hit_first_classify_calls() {
    // Hit-first classifies every candidate of the phase it serves
    // (AMB-tag lookup, then bank state), so each issued request cost
    // at least one classification.
    let hit_first = cli_counters("wheel", &[]);
    let classified = count(&hit_first, "candidates_classified");
    assert!(classified > 0, "hit-first classified nothing on fbd-ap");
    assert!(classified >= count(&hit_first, "requests_retired"));
    // FCFS orders by age alone and never calls the callback.
    let fcfs = cli_counters("wheel", &["--scheduler", "fcfs"]);
    assert_eq!(count(&fcfs, "candidates_classified"), 0);
    assert!(count(&fcfs, "decisions") > 0);
}

#[test]
fn unprofiled_run_still_carries_build_provenance() {
    let r = spec().run();
    assert!(!r.host.enabled);
    assert_eq!(r.host.wall, std::time::Duration::ZERO);
    // Build provenance is compiled in, not measured, so it is present
    // on every result.
    assert_eq!(r.host.build.version, env!("CARGO_PKG_VERSION"));
    assert!(!r.host.build.git_sha.is_empty());
    assert!(!r.host.build.rustc.is_empty());
    assert!(!r.host.build.profile.is_empty());
    let doc = r.host.to_json();
    assert_eq!(doc.get("enabled"), Some(&Json::Bool(false)));
    assert!(doc.get("build").is_some());
}

#[test]
fn build_info_matches_compile_time_environment() {
    let b = fbd_core::build_info();
    assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
    // `git_sha` is either a real short hash (12 hex chars, optional
    // `-dirty`) or the `unknown` fallback — never empty.
    assert!(
        b.git_sha == "unknown"
            || b.git_sha
                .trim_end_matches("-dirty")
                .chars()
                .all(|c| c.is_ascii_hexdigit()),
        "unexpected git sha {:?}",
        b.git_sha
    );
    assert!(b.rustc == "unknown" || b.rustc.starts_with("rustc"));
    assert!(["debug", "release", "unknown"].contains(&b.profile.as_str()));
}

/// `LogHistogram::merge` is associative (and commutative in effect):
/// the telemetry pipeline relies on this to fold per-epoch and
/// per-shard histograms in whatever order the runners finish.
#[test]
fn log_histogram_merge_is_associative() {
    let hist = |samples: &[u64]| {
        let mut h = LogHistogram::new();
        for &ns in samples {
            h.record(Dur::from_ns(ns));
        }
        h
    };
    let a = hist(&[3, 17, 17, 250]);
    let b = hist(&[1, 90_000, 4]);
    let c = hist(&[42, 42, 7_777_777]);

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);

    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(left, right);
    assert_eq!(left.count(), 10);

    // The empty histogram is the identity on both sides.
    let mut with_empty = a.clone();
    with_empty.merge(&LogHistogram::new());
    assert_eq!(with_empty, a);
    let mut from_empty = LogHistogram::new();
    from_empty.merge(&a);
    assert_eq!(from_empty, a);
}

/// Fast-fidelity runs synthesize epoch sampler rows so downstream
/// consumers (CSV export, the live dashboard's observer) see the same
/// shape as an accurate run: rows strictly increasing in time, ending
/// at the predicted end of the run.
#[test]
fn fast_fidelity_sampler_rows_are_monotonic() {
    let interval = Dur::from_ns(500);
    let spec = spec().telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        trace: false,
    });
    let cal = calibrate(&spec).unwrap();
    let r = spec.try_run_fast(&cal).unwrap();
    let tel = r.telemetry.as_ref().expect("telemetry attached");
    let sampler = tel.sampler.as_ref().expect("sampler attached");
    let rows = sampler.rows();
    assert!(
        rows.len() >= 2,
        "expected synthesized rows, got {}",
        rows.len()
    );
    for pair in rows.windows(2) {
        assert!(
            pair[0].at < pair[1].at,
            "sampler rows must be strictly increasing: {:?} then {:?}",
            pair[0].at,
            pair[1].at
        );
    }
    let last = rows.last().unwrap();
    assert!(
        last.at.as_ps() <= r.elapsed.as_ps(),
        "rows must not pass the end of the run"
    );
    // The fast path charges its wall time to the model phase.
    let profiled = Arc::new(HostProfiler::enabled());
    let r2 = spec
        .clone()
        .host_profiler(Arc::clone(&profiled))
        .try_run_fast(&cal)
        .unwrap();
    assert!(r2.host.enabled);
    assert!(!profiled.phase(Phase::Model).is_zero());
    assert!(r2.host.phase_fraction_sum() >= 0.95);
}

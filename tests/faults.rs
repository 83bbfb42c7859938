//! Fault-injection invariants (ISSUE 5 acceptance criteria).
//!
//! With a non-zero bit-error rate, every system variant must keep the
//! stage-sum attribution identity (retry slots are charged to the
//! `retry` stage, never silently absorbed); FBD runs must report the
//! injected/recovered error counters while DDR2 (no serial links)
//! reports none; fault runs must be deterministic in the seed — the
//! same `--fault-seed` produces bit-identical stats JSON, including
//! under `compare`'s parallel execution — and a zero-BER run must be
//! byte-identical to a run with no fault flags at all. Stuck-lane
//! exhaustion must fail the direction over to degraded width without
//! breaking attribution.

#[path = "support/mod.rs"]
mod support;

use std::path::PathBuf;

use fbd_core::{RunResult, RunSpec};
use fbd_faults::{FaultCounters, FaultReport, SilentErrorReport};
use fbd_telemetry::{json, Json};
use fbd_types::config::{FaultConfig, FaultMode, ScrubPolicyKind};
use fbd_types::request::{Stage, REQ_CLASSES};
use fbd_types::substrate::substrates;
use fbd_types::time::Dur;
use support::{fbdsim, strip_host};

const BUDGET: u64 = 20_000;

fn faulted(system: &str, ber: f64, mode: FaultMode) -> RunResult {
    let mem = substrates().get(system).expect("known system").config();
    let mut spec = RunSpec::paper_default(1)
        .workload("1C-swim")
        .memory(mem)
        .budget(BUDGET)
        .seed(42);
    spec.system_mut().mem.faults.ber = ber;
    spec.system_mut().mem.faults.seed = 7;
    spec.system_mut().mem.faults.mode = mode;
    spec.run()
}

/// A run with the whole recovery lifecycle armed (overriding the
/// preset's fault config with `faults` wholesale).
fn recovered(system: &str, faults: FaultConfig) -> RunResult {
    let mem = substrates().get(system).expect("known system").config();
    let mut spec = RunSpec::paper_default(1)
        .workload("1C-swim")
        .memory(mem)
        .budget(BUDGET)
        .seed(42);
    spec.system_mut().mem.faults = faults;
    spec.run()
}

fn retry_ns(r: &RunResult) -> f64 {
    REQ_CLASSES
        .iter()
        .map(|&c| r.profile.stage(c, Stage::Retry).total_ns())
        .sum()
}

#[test]
fn stage_sums_hold_under_injection_on_every_system() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let r = faulted(system, 1e-4, FaultMode::Ber);
        assert_eq!(
            r.profile.mismatches(),
            0,
            "{system}: read stage sums must survive fault injection"
        );
        assert_eq!(
            r.profile.write_mismatches(),
            0,
            "{system}: write stage sums must survive fault injection"
        );
        if system == "ddr2" {
            // No serial links: nothing to inject into, no report.
            assert!(r.faults.is_none(), "ddr2 must not report link faults");
        } else {
            let f = r.faults.as_ref().expect("FBD systems report faults");
            assert!(f.counters.injected > 0, "{system}: BER 1e-4 must inject");
            assert_eq!(
                f.counters.detected, f.counters.injected,
                "{system}: the CRC model is ideal — every corruption detected"
            );
            assert!(
                retry_ns(&r) > 0.0,
                "{system}: recovered transfers must charge the retry stage"
            );
        }
    }
}

#[test]
fn burst_mode_injects_and_recovers() {
    let r = faulted("fbd", 1e-5, FaultMode::Burst);
    let f = r.faults.as_ref().expect("fault report");
    assert!(f.counters.injected > 0);
    assert_eq!(f.counters.detected, f.counters.injected);
    assert_eq!(r.profile.mismatches(), 0);
    assert_eq!(r.profile.write_mismatches(), 0);
}

#[test]
fn stuck_lane_exhaustion_fails_over_to_degraded_width() {
    let r = faulted("fbd", 0.05, FaultMode::StuckLane);
    let f = r.faults.as_ref().expect("fault report");
    assert!(
        f.counters.retry_exhausted > 0,
        "a stuck lane corrupts every replay until retries run out"
    );
    assert!(
        f.counters.failovers > 0,
        "exhaustion must trigger fail-over"
    );
    assert!(
        f.degraded > Dur::ZERO,
        "failed-over directions accumulate degraded-width residency"
    );
    // Attribution survives even at degraded frame width.
    assert_eq!(r.profile.mismatches(), 0);
    assert_eq!(r.profile.write_mismatches(), 0);
}

#[test]
fn zero_ber_run_matches_no_fault_run_exactly() {
    let clean = faulted("fbd-ap", 0.0, FaultMode::Ber);
    assert!(
        clean.faults.is_none(),
        "an inactive fault config must not produce a report"
    );
    let baseline = {
        let mem = substrates().get("fbd-ap").unwrap().config();
        RunSpec::paper_default(1)
            .workload("1C-swim")
            .memory(mem)
            .budget(BUDGET)
            .seed(42)
            .run()
    };
    assert_eq!(clean.elapsed, baseline.elapsed);
    assert_eq!(clean.mem.demand_reads, baseline.mem.demand_reads);
    assert_eq!(retry_ns(&clean), 0.0);
    assert_eq!(retry_ns(&baseline), 0.0);
}

// ---------------------------------------------------------------------
// The closed recovery loop: escapes, scrubbing, re-issue (ISSUE 10).
// ---------------------------------------------------------------------

#[test]
fn crc_escape_accounting_is_exact() {
    // One CRC check bit makes escapes common enough to observe at this
    // budget while keeping detection the majority outcome.
    let mut fc = FaultConfig::off();
    fc.ber = 1e-4;
    fc.seed = 7;
    fc.crc_bits = 1;
    let r = recovered("fbd-ap", fc);
    let f = r.faults.as_ref().expect("fault report");
    assert!(f.counters.injected > 0, "BER 1e-4 must inject");
    assert!(
        f.counters.escaped > 0,
        "1 check bit must let escapes through"
    );
    assert_eq!(
        f.counters.detected + f.counters.escaped,
        f.counters.injected,
        "every injected corruption is either detected or escaped"
    );
    // Without scrubbing, nothing converts poisoned lines back to clean.
    assert_eq!(f.counters.scrub_reads, 0);
    assert_eq!(f.silent.scrubbed_clean, 0);
    // Attribution survives the escape path (escaped transfers complete
    // without retry slots, so their stamps must still balance).
    assert_eq!(r.profile.mismatches(), 0);
    assert_eq!(r.profile.write_mismatches(), 0);
}

#[test]
fn patrol_scrub_issues_traffic_and_repairs_poisoned_lines() {
    let mut fc = FaultConfig::off();
    fc.ber = 1e-4;
    fc.seed = 7;
    fc.crc_bits = 1;
    fc.scrub = ScrubPolicyKind::Patrol;
    fc.scrub_interval_ns = 100;
    let r = recovered("fbd-ap", fc);
    let f = r.faults.as_ref().expect("fault report");
    assert!(f.counters.scrub_reads > 0, "patrol must sweep idle slots");
    assert_eq!(
        f.counters.scrub_rewrites, f.silent.scrubbed_clean,
        "every scrub rewrite is a line converted back to clean"
    );
    // The scrub traffic is real stamped traffic: the stage-sum
    // invariant holds with sweeps and rewrites in flight.
    assert_eq!(r.profile.mismatches(), 0);
    assert_eq!(r.profile.write_mismatches(), 0);

    // Scrubbing on a clean channel is pure overhead but still reports:
    // the errors surface exists whenever the policy costs bandwidth.
    let mut clean = FaultConfig::off();
    clean.scrub = ScrubPolicyKind::Patrol;
    clean.scrub_interval_ns = 100;
    let r = recovered("fbd-ap", clean);
    let f = r.faults.as_ref().expect("scrub-only runs report");
    assert!(f.counters.scrub_reads > 0);
    assert_eq!(f.counters.injected, 0);
    assert_eq!(f.counters.scrub_rewrites, 0, "nothing to repair at BER 0");
}

#[test]
fn dropped_prefetch_returns_are_reissued_within_budget() {
    let mut fc = FaultConfig::off();
    fc.ber = 1e-4;
    fc.seed = 7;
    fc.reissue_budget = 8;
    let r = recovered("fbd-ap", fc);
    let f = r.faults.as_ref().expect("fault report");
    assert!(
        f.counters.dropped_prefetch > 0,
        "BER 1e-4 must drop returns"
    );
    assert!(f.counters.reissued > 0, "remembered drops must re-issue");
    assert!(
        f.counters.reissued <= f.counters.dropped_prefetch,
        "each re-issue answers a remembered drop"
    );
    assert_eq!(r.profile.mismatches(), 0);
    assert_eq!(r.profile.write_mismatches(), 0);
}

/// Regression for the `compare`-grid merge: a merged [`FaultReport`]
/// must not depend on the order workers hand their reports back.
#[test]
fn fault_report_merge_is_order_independent() {
    let reports: Vec<FaultReport> = (1..=4u64)
        .map(|i| FaultReport {
            counters: FaultCounters {
                injected: 10 * i,
                detected: 9 * i,
                escaped: i,
                retried: 7 * i,
                retry_exhausted: i / 2,
                failovers: i % 2,
                dropped_prefetch: 3 * i,
                probes: 2 * i,
                failbacks: i / 3,
                reissued: 2 * i,
                scrub_reads: 5 * i,
                scrub_rewrites: i,
            },
            degraded: Dur::from_ns(100 * i),
            silent: SilentErrorReport {
                poisoned_lines: i,
                demand_consumed: i / 2,
                scrubbed_clean: i * 2,
            },
        })
        .collect();
    let merge_in = |order: &[usize]| {
        let mut acc = FaultReport::default();
        for &i in order {
            acc.merge(&reports[i]);
        }
        acc
    };
    let reference = merge_in(&[0, 1, 2, 3]);
    for order in [
        [3, 2, 1, 0],
        [2, 0, 3, 1],
        [1, 3, 0, 2],
        [3, 0, 1, 2],
        [0, 2, 1, 3],
    ] {
        assert_eq!(
            merge_in(&order),
            reference,
            "merge order {order:?} changed the report"
        );
    }
}

// ---------------------------------------------------------------------
// Binary-level determinism: the exported stats JSON is the contract.
// ---------------------------------------------------------------------

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fbdsim-faults-{}-{name}", std::process::id()))
}

fn run_json(extra: &[&str]) -> String {
    let mut args = vec![
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd-ap",
        "--budget",
        "5000",
        "--json",
    ];
    args.extend_from_slice(extra);
    let out = fbdsim(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fbdsim {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    strip_host(&String::from_utf8(out.stdout).expect("utf-8 stats JSON"))
}

#[test]
fn identical_fault_seed_gives_bit_identical_stats_json() {
    let a = run_json(&["--fault-ber", "1e-5", "--fault-seed", "3"]);
    let b = run_json(&["--fault-ber", "1e-5", "--fault-seed", "3"]);
    assert_eq!(a, b, "same seed and BER must reproduce exactly");
    assert!(
        a.contains("\"errors\""),
        "faulted stats JSON must carry the errors object:\n{a}"
    );
    assert!(a.contains("\"retry\""), "stage list must include retry");
}

#[test]
fn zero_ber_stats_json_is_byte_identical_to_no_fault_path() {
    let clean = run_json(&[]);
    let zero = run_json(&["--fault-ber", "0"]);
    assert_eq!(
        clean, zero,
        "--fault-ber 0 must leave the export byte-identical"
    );
    assert!(
        !clean.contains("\"errors\""),
        "no-fault stats JSON must not grow an errors object"
    );
}

#[test]
fn full_lifecycle_stats_json_is_deterministic_and_schema_complete() {
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "3",
        "--crc-bits",
        "4",
        "--scrub",
        "patrol",
        "--scrub-interval-ns",
        "200",
        "--failback",
        "2000",
        "--reissue",
        "8",
    ];
    let a = run_json(&flags);
    let b = run_json(&flags);
    assert_eq!(a, b, "the armed lifecycle must reproduce exactly");
    let doc = json::parse(&a).expect("stats JSON");
    let errors = doc.get("errors").expect("errors object");
    for key in [
        "injected",
        "detected",
        "escaped",
        "retried",
        "retry_exhausted",
        "failovers",
        "dropped_prefetch",
        "degraded_ns",
        "probes",
        "failbacks",
        "reissued",
        "scrub_reads",
        "scrub_rewrites",
    ] {
        assert!(errors.get(key).is_some(), "errors.{key} must be present");
    }
    let silent = errors.get("silent").expect("errors.silent object");
    for key in ["poisoned_lines", "demand_consumed", "scrubbed_clean"] {
        assert!(silent.get(key).is_some(), "errors.silent.{key} missing");
    }
    let injected = errors.get("injected").and_then(Json::as_f64).unwrap();
    let detected = errors.get("detected").and_then(Json::as_f64).unwrap();
    let escaped = errors.get("escaped").and_then(Json::as_f64).unwrap();
    assert_eq!(detected + escaped, injected, "escape accounting in JSON");
    assert!(
        errors.get("scrub_reads").and_then(Json::as_f64).unwrap() > 0.0,
        "patrol scrubbing must surface in the export"
    );
}

#[test]
fn compare_is_deterministic_under_parallel_execution() {
    // `compare` runs the four systems through `parallel_map`; per-link
    // fault streams are keyed by (seed, channel, direction), so thread
    // scheduling must not leak into the results.
    let path_a = tmp_path("cmp-a.json");
    let path_b = tmp_path("cmp-b.json");
    for path in [&path_a, &path_b] {
        let out = fbdsim(&[
            "compare",
            "--workload",
            "1C-swim",
            "--budget",
            "5000",
            "--fault-ber",
            "1e-5",
            "--fault-seed",
            "9",
            "--crc-bits",
            "4",
            "--scrub",
            "patrol",
            "--reissue",
            "8",
            "--stats-json",
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "compare failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = strip_host(&std::fs::read_to_string(&path_a).expect("stats A"));
    let b = strip_host(&std::fs::read_to_string(&path_b).expect("stats B"));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    assert_eq!(a, b, "parallel compare must be deterministic");
    assert!(a.contains("\"errors\""));
}

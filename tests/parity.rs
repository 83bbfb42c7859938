//! Golden-parity suite for the composable substrate API (ISSUE 7
//! acceptance criteria) and the event-wheel hot loop (ISSUE 9).
//!
//! The registry path must be a pure re-plumbing: selecting a system
//! through `--substrate` (registry spelling) must produce stats JSON
//! byte-identical to the historical `--system` spelling on every paper
//! system, with and without fault injection, on `run` and `profile`;
//! the registry-selected FCFS scheduler must observably differ from
//! the default hit-first policy; and the extension entries
//! (`ddr3-1066`, `fcfs`) must be reachable by name only, with their
//! names echoed in the stats document's composition metadata.
//!
//! The event wheel must likewise be a pure re-plumbing of the event
//! queue: every run under the default calendar queue must produce
//! stats JSON byte-identical to the same run forced onto the seed
//! binary heap with `FBD_EVENT_QUEUE=heap` — across the four paper
//! systems, on the eight-core mix, under fault injection, with patrol
//! scrub and prefetch re-issue on four cores, and through the
//! fast-fidelity path. The heap pops every same-instant duplicate
//! decision separately, so it is also the unfolded reference for the
//! wheel's folding of idle reruns.

#[path = "support/mod.rs"]
mod support;

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use fbd_core::{RunResult, RunSpec};
use fbd_telemetry::{json, Json};
use fbd_types::substrate::substrates;
use support::{fbdsim, strip_host};

const BUDGET: &str = "5000";

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// A temp file path unique to this call: tests run on parallel threads
/// and several of them run the same workload and system with different
/// flags, so the name alone would let one test read another's output.
fn tmp_path(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fbdsim-parity-{}-{seq}-{name}", std::process::id()))
}

/// Runs `fbdsim <cmd>` (`run` or `profile`) on `workload` for `budget`
/// instructions, selecting `system` through `flag` (`--system` or
/// `--substrate`) with `envs` set, and returns the pretty-printed stats
/// JSON bytes with the wall-clock-bearing `host` object stripped.
fn stats_via_env(
    cmd: &str,
    workload: &str,
    budget: &str,
    flag: &str,
    system: &str,
    extra: &[&str],
    envs: &[(&str, &str)],
) -> String {
    let tag = envs.iter().map(|(_, v)| *v).collect::<Vec<_>>().join("-");
    let path = tmp_path(&format!(
        "{cmd}-{workload}-{}-{system}-{tag}.json",
        flag.trim_start_matches('-')
    ));
    let path_s = path.to_str().unwrap().to_string();
    let mut args = vec![
        cmd,
        "--workload",
        workload,
        flag,
        system,
        "--budget",
        budget,
        "--stats-json",
        &path_s,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(&args)
        .envs(envs.iter().copied())
        .output()
        .expect("fbdsim runs");
    assert_eq!(
        exit_code(&out),
        0,
        "fbdsim {args:?} (env {envs:?}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    strip_host(&text)
}

/// [`stats_via_env`] on `run` of 1C-swim with no environment overrides.
fn stats_via(flag: &str, system: &str, extra: &[&str]) -> String {
    stats_via_env("run", "1C-swim", BUDGET, flag, system, extra, &[])
}

#[test]
fn substrate_flag_is_byte_identical_to_system_flag_on_all_paper_systems() {
    let runs = ["ddr2", "fbd", "fbd-ap", "fbd-apfl"].map(|s| ("run", s));
    for (cmd, system) in runs.into_iter().chain([("profile", "fbd-ap")]) {
        let old = stats_via_env(cmd, "1C-swim", BUDGET, "--system", system, &[], &[]);
        let new = stats_via_env(cmd, "1C-swim", BUDGET, "--substrate", system, &[], &[]);
        assert_eq!(
            old, new,
            "`{cmd} --substrate {system}` diverged from `--system {system}`"
        );
        // The parity is not vacuous: the document names the substrate.
        let doc = json::parse(&old).expect("well-formed stats JSON");
        let comp = doc.get("composition").expect("composition metadata");
        assert_eq!(
            comp.get("substrate").and_then(Json::as_str),
            Some(system),
            "composition must echo the selected substrate"
        );
    }
}

#[test]
fn parity_holds_under_fault_injection() {
    // Fault flags mutate the config away from the registered preset;
    // the substrate label and the output bytes must both survive that.
    let faults = ["--fault-ber", "1e-5", "--fault-seed", "3"];
    for system in ["fbd", "fbd-ap"] {
        let old = stats_via("--system", system, &faults);
        let new = stats_via("--substrate", system, &faults);
        assert_eq!(old, new, "fault-injected `{system}` runs diverged");
        let doc = json::parse(&old).expect("well-formed stats JSON");
        assert!(doc.get("errors").is_some(), "faulted run reports errors");
        let comp = doc.get("composition").expect("composition metadata");
        assert_eq!(comp.get("substrate").and_then(Json::as_str), Some(system));
    }
}

#[test]
fn explicit_reliability_off_spellings_are_byte_identical_to_absent() {
    // Every off spelling of the recovery knobs must stay on the
    // zero-cost path: same bytes as a run with no flags at all, and no
    // `errors` object grown.
    let baseline = stats_via("--system", "fbd-ap", &[]);
    assert!(
        !baseline.contains("\"errors\""),
        "clean baseline must not carry an errors object"
    );
    for extra in [
        &["--scrub", "none"][..],
        &["--fault-ber", "0"],
        &["--fault-ber", "0", "--crc-bits", "0"],
        &["--fault-ber", "0", "--failback", "0"],
        &["--fault-ber", "0", "--reissue", "0"],
        &[
            "--fault-ber",
            "0",
            "--crc-bits",
            "0",
            "--scrub",
            "none",
            "--failback",
            "0",
            "--reissue",
            "0",
        ],
    ] {
        let off = stats_via("--system", "fbd-ap", extra);
        assert_eq!(
            baseline, off,
            "off spelling {extra:?} must not change a byte"
        );
    }
}

#[test]
fn parity_holds_with_the_full_reliability_lifecycle_armed() {
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "3",
        "--crc-bits",
        "4",
        "--scrub",
        "patrol",
        "--failback",
        "2000",
        "--reissue",
        "8",
    ];
    let old = stats_via("--system", "fbd-ap", &flags);
    let new = stats_via("--substrate", "fbd-ap", &flags);
    assert_eq!(old, new, "armed lifecycle diverged between spellings");
    let doc = json::parse(&old).expect("well-formed stats JSON");
    let errors = doc.get("errors").expect("armed run reports errors");
    assert!(
        errors.get("silent").is_some(),
        "silent-corruption accounting must be exported"
    );
}

#[test]
fn explicit_default_scheduler_is_byte_identical_to_none() {
    let implicit = stats_via("--system", "fbd-ap", &[]);
    let explicit = stats_via("--system", "fbd-ap", &["--scheduler", "hit-first"]);
    assert_eq!(
        implicit, explicit,
        "spelling out the default scheduler must not change a byte"
    );
}

/// The scalar results that tell two scheduling policies apart
/// (RunResult has no blanket equality).
fn fingerprint(r: &RunResult) -> (f64, Vec<f64>, u64, u64, u64, f64) {
    (
        r.elapsed.as_ns_f64(),
        r.ipcs(),
        r.mem.demand_reads,
        r.mem.writes,
        r.mem.dram_ops.act_pre,
        r.energy.total_nj(),
    )
}

#[test]
fn registry_fcfs_differs_from_hit_first() {
    // A four-core mix keeps the transaction queue deep enough that
    // hit-first actually reorders (a 1-core stream rarely gives the
    // scheduler more than one ready candidate).
    let base = || {
        RunSpec::paper_default(4)
            .workload("4C-1")
            .memory(substrates().get("fbd").unwrap().config())
            .budget(20_000)
            .seed(42)
    };
    let fcfs = base().try_scheduler("fcfs").expect("registered").run();
    let hit_first = base().run();
    assert_ne!(
        fingerprint(&hit_first),
        fingerprint(&fcfs),
        "fcfs and hit-first must be observably different policies"
    );
}

#[test]
fn extension_substrate_and_scheduler_compose_by_name_only() {
    // ddr3-1066 and fcfs exist only as registry entries — no enum
    // variant, no core edits. A run composed from both must work and
    // must echo both names in the stats metadata.
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--substrate",
        "ddr3-1066",
        "--scheduler",
        "fcfs",
        "--budget",
        BUDGET,
        "--json",
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "ddr3-1066 + fcfs run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("stats JSON");
    let comp = doc.get("composition").expect("composition metadata");
    assert_eq!(
        comp.get("substrate").and_then(Json::as_str),
        Some("ddr3-1066")
    );
    assert_eq!(comp.get("scheduler").and_then(Json::as_str), Some("fcfs"));
    assert!(
        doc.get("ipc_sum").and_then(Json::as_f64).unwrap() > 0.0,
        "the composed system must actually retire instructions"
    );
}

#[test]
fn unknown_registry_names_exit_2_with_the_available_list() {
    let out = fbdsim(&["run", "--workload", "1C-swim", "--substrate", "ddr9"]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown substrate `ddr9`"), "{err}");
    assert!(err.contains("available:"), "{err}");
    assert!(
        err.contains("ddr3-1066"),
        "listing names the entries: {err}"
    );

    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--scheduler",
        "elevator",
    ]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheduler `elevator`"), "{err}");
    assert!(err.contains("hit-first|fcfs"), "{err}");

    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--scrub",
        "demand",
    ]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scrub policy `demand`"), "{err}");
    assert!(err.contains("none|patrol"), "{err}");
}

const WHEEL: &[(&str, &str)] = &[("FBD_EVENT_QUEUE", "wheel")];
const HEAP: &[(&str, &str)] = &[("FBD_EVENT_QUEUE", "heap")];

/// Asserts that `workload` on `system` for `budget` instructions with
/// `extra` flags produces the same stats bytes under the event wheel
/// (which merges same-instant decisions and folds their idle reruns)
/// and under the seed heap (which pops and runs every duplicate
/// separately); returns the stats document.
fn assert_queue_parity(workload: &str, budget: &str, system: &str, extra: &[&str]) -> Json {
    let wheel = stats_via_env("run", workload, budget, "--system", system, extra, WHEEL);
    let heap = stats_via_env("run", workload, budget, "--system", system, extra, HEAP);
    assert_eq!(
        wheel, heap,
        "event wheel diverged from the seed heap on {workload}/{system} {extra:?}"
    );
    json::parse(&wheel).expect("well-formed stats JSON")
}

#[test]
fn event_wheel_is_byte_identical_to_seed_heap_on_all_paper_systems() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        assert_queue_parity("1C-swim", BUDGET, system, &[]);
    }
}

#[test]
fn event_wheel_heap_parity_holds_on_eight_cores() {
    // A deep queue on every channel: many decisions per instant issue,
    // and folds happen only after the last issuing run.
    assert_queue_parity("8C-1", BUDGET, "fbd-ap", &[]);
}

#[test]
fn event_wheel_heap_parity_holds_under_fault_injection() {
    // Fault injection exercises the drop/retry event paths (extra
    // ReadDone orderings and redundant Decide wakeups — exactly where
    // the wheel's dedup could go wrong).
    let faults = ["--fault-ber", "1e-5", "--fault-seed", "3"];
    let doc = assert_queue_parity("1C-swim", BUDGET, "fbd-ap", &faults);
    assert!(doc.get("errors").is_some(), "faulted run reports errors");
}

#[test]
fn event_wheel_heap_parity_holds_with_recovery_traffic() {
    // Scrub sweeps and prefetch re-issue ride idle Decide events, so
    // they are exactly the traffic that would expose a queue-ordering
    // difference between the wheel and the seed heap.
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "3",
        "--crc-bits",
        "4",
        "--scrub",
        "patrol",
        "--reissue",
        "8",
    ];
    assert_queue_parity("1C-swim", BUDGET, "fbd-ap", &flags);
}

#[test]
fn event_wheel_heap_parity_holds_with_four_core_patrol_and_reissue() {
    // Recovery work claims idle slots; the reruns a fold carries
    // forward must reach it on the same decisions as the heap's
    // separately popped duplicates. At 20k instructions a fold that
    // dropped those reruns instead of carrying them changes the stats.
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "7",
        "--scrub",
        "patrol",
        "--reissue",
        "8",
    ];
    let doc = assert_queue_parity("4C-1", "20000", "fbd-ap", &flags);
    let errors = doc.get("errors").expect("armed run reports errors");
    for key in ["reissued", "scrub_reads"] {
        let n = errors.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        assert!(n > 0.0, "errors.{key} is {n}: recovery never ran");
    }
}

#[test]
fn event_wheel_heap_parity_holds_through_fast_fidelity() {
    // The fast path calibrates itself by running the accurate
    // simulator on anchor points; those anchor runs must land on the
    // same numbers under either queue.
    assert_queue_parity("1C-swim", BUDGET, "fbd", &["--fidelity", "fast"]);
}

#[test]
fn system_and_substrate_flags_are_mutually_exclusive() {
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--substrate",
        "fbd",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("aliases"));
}

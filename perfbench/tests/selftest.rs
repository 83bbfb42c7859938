//! Self-tests of the benchmark: the traced loop must reproduce
//! `System::run`, and the output check must catch a wrong result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use fbd_perfbench::digest::{Digest, References};
use fbd_perfbench::mirror;
use fbd_perfbench::spec::{self, Bench, WORKLOADS};
use fbd_telemetry::Json;

/// A budget small enough for a debug build: a twentieth of the
/// measured one (the traced-loop test runs in process).
fn small(def: spec::WorkloadDef) -> u64 {
    def.budget / 20
}

fn untraced(bench: &Bench) -> fbd_core::RunResult {
    let mut sys = bench.compose().expect("composes");
    sys.warm(bench.warm_ops);
    sys.run()
}

#[test]
fn traced_loop_reproduces_system_run_on_every_workload() {
    for def in WORKLOADS {
        let bench = Bench::new(def, 7, 7, small(def)).expect("resolves");
        let want = untraced(&bench);
        let got = mirror::run(&bench).expect("traced run");
        assert_eq!(
            Digest::of(&got.result).diff(&Digest::of(&want)),
            Vec::<&str>::new(),
            "{}: traced outputs differ",
            def.name
        );
        let l = &got.layers;
        assert!(l.decide_issue.calls > 0 && l.tx_issued >= l.decide_issue.calls);
        // Same-instant decisions collapse into one wheel entry, so a pop
        // can run several handlers.
        assert!(l.pop.calls <= l.push.calls && l.handler_runs >= l.pop.calls);
        assert!(l.decide_idle.calls + l.decide_issue.calls <= l.handler_runs);
        assert!(
            l.timed_ns() <= l.hot_ns,
            "{}: timed calls exceed the loop",
            def.name
        );
        if def.faults {
            assert!(want.faults.is_some_and(|f| f.counters.injected > 0));
        }
    }
}

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_fbd-perfbench"));
    for v in ["FBD_EVENT_QUEUE", "FBD_BUDGET", "FBD_PAPER_MODE"] {
        c.env_remove(v);
    }
    c
}

/// Runs the benchmark on `workload` at its own budget and seed 3
/// against `refs`; returns the parsed result line.
fn run_against(refs: &References, workload: &str, trace: &str, extra: &[&str]) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("{workload}-{trace}.json"));
    refs.save(&path).expect("writes reference");
    let out = bin()
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.01"])
        .args(["--trace", trace])
        .args(extra)
        .arg("--reference")
        .arg(&path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    fbd_telemetry::json::parse(last).expect("JSON result")
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).expect("numeric key")
}

fn assert_all_failed(result: &Json, what: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{what}");
    assert!(num(result, "attempted") >= 3.0, "{what}");
    assert_eq!(num(result, "failed"), num(result, "attempted"), "{what}");
}

#[test]
fn perturbed_reference_is_reported_as_failed_runs() {
    let def = spec::find("parser-1c-ddr2").expect("workload");
    let bench = Bench::new(def, 3, 3, def.budget).expect("resolves");
    let digest = Digest::of(&untraced(&bench));
    let mut refs = References::default();
    refs.insert(def.name, 3, digest.clone());

    let ok = run_against(&refs, def.name, "0", &[]);
    assert_eq!(ok.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(num(&ok, "failed"), 0.0);
    // The raw and calibration figures stay in the detail line.
    let Some(Json::Obj(metrics)) = ok.get("metrics") else {
        panic!("a metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        [
            "peak_rss_mb",
            "setup_s",
            "sim_cycles_per_s",
            "sim_instr_per_s"
        ]
    );

    let mut wrong = digest;
    wrong.0[2] ^= 1; // the MemStats component
    refs.insert(def.name, 3, wrong.clone());
    for trace in ["0", "1"] {
        let bad = run_against(&refs, def.name, trace, &[]);
        assert_all_failed(&bad, &format!("trace {trace}"));
    }

    // On a faulted workload a reference is taken with the fault seed
    // equal to the seed: it applies there and nowhere else.
    refs.insert("mix4-faults", 3, wrong);
    let bad = run_against(&refs, "mix4-faults", "0", &[]);
    assert_all_failed(&bad, "mix4-faults, fault seed 3");
    let other = run_against(&refs, "mix4-faults", "0", &["--fault-seed", "4"]);
    assert_eq!(other.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(num(&other, "failed"), 0.0);
}

#[test]
fn environment_overrides_are_refused() {
    let out = bin()
        .env("FBD_BUDGET", "1000")
        .args([
            "--workload",
            "swim-1c-ap",
            "--seconds",
            "0.01",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

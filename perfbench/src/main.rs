//! Benchmark entry point: one workload, one seed, one mode per process.
//!
//! ```text
//! fbd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--fault-seed <n>] [--reference <file>]
//! fbd-perfbench --write-reference <file> --seeds <a>-<b> [--workload <name>]
//! ```
//!
//! `--trace 0` repeats cold set-up + `System::run` trials for
//! `--seconds`, each between two host-speed calibrations, and reports
//! the calibrated end-to-end metrics; `--trace 1`
//! alternates untraced and traced trials, then probes the datapath
//! components, and reports the per-layer metrics. The last stdout line
//! is the result object; the line before it carries provenance and
//! each metric's quartiles. Exit code 2 means the benchmark refused to
//! run (bad arguments or an environment override).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbd_core::RunResult;
use fbd_perfbench::calib;
use fbd_perfbench::digest::{self, Digest, References};
use fbd_perfbench::mirror::{self, Layers};
use fbd_perfbench::probes::{self, Counts, Shape};
use fbd_perfbench::spec::{self, Bench, WORKLOADS};
use fbd_perfbench::stats::summarize;
use fbd_telemetry::host::{Counter, HostProfiler};
use fbd_telemetry::Json;

/// Environment variables that silently change what the simulator runs
/// (event-queue implementation, default budgets); the benchmark refuses
/// to measure with any of them set.
const OVERRIDES: [&str; 3] = ["FBD_EVENT_QUEUE", "FBD_BUDGET", "FBD_PAPER_MODE"];

/// Fewest trials a run makes, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;

/// Share of `--seconds` a traced run spends on trial pairs; the rest
/// goes to the component probes.
const TRIAL_SHARE: f64 = 0.85;

struct Args {
    workload: Option<String>,
    seed: u64,
    fault_seed: Option<u64>,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    write_reference: Option<PathBuf>,
    seeds: (u64, u64),
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        fault_seed: None,
        seconds: 10.0,
        trace: false,
        reference: None,
        write_reference: None,
        seeds: (spec::DEFAULT_SEED, spec::DEFAULT_SEED),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(value()?)?,
            "--fault-seed" => a.fault_seed = Some(num(value()?)?),
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            "--write-reference" => a.write_reference = Some(PathBuf::from(value()?)),
            "--seeds" => {
                let v = value()?;
                let (lo, hi) = v.split_once('-').unwrap_or((&v, &v));
                a.seeds = (num(lo.to_string())?, num(hi.to_string())?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Cold set-ups timed per trial; the last one is run. A set-up takes
/// 3–7 ms against a ~0.3 s run, so repeating it costs little and gives
/// `setup_s` several samples per trial.
const SETUPS_PER_TRIAL: usize = 4;

/// One trial's set-up timings (`(compose_s, warm_s)` per set-up) and
/// outcome.
struct Trial {
    setups: Vec<(f64, f64)>,
    hot_s: f64,
    result: Result<RunResult, String>,
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Cold set-ups (`System::composed` + `System::warm`, as a fresh
/// process pays them) and an untraced `System::run` of the last one.
fn untraced_trial(bench: &Bench) -> Trial {
    let mut setups = Vec::with_capacity(SETUPS_PER_TRIAL);
    let mut sys = None;
    for _ in 0..SETUPS_PER_TRIAL {
        drop(sys.take());
        let t = Instant::now();
        let composed = bench.compose();
        let compose_s = t.elapsed().as_secs_f64();
        let mut s = match composed {
            Ok(s) => s,
            Err(e) => {
                return Trial {
                    setups,
                    hot_s: 0.0,
                    result: Err(e),
                }
            }
        };
        let t = Instant::now();
        s.warm(bench.warm_ops);
        setups.push((compose_s, t.elapsed().as_secs_f64()));
        sys = Some(s);
    }
    let sys = sys.expect("at least one set-up");
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(move || sys.run()));
    let hot_s = t.elapsed().as_secs_f64();
    Trial {
        setups,
        hot_s,
        result: result.map_err(|p| format!("panicked: {}", panic_message(&*p))),
    }
}

/// Output checks shared by every trial of a run. The first trial is
/// always an untraced `System::run`, so "differs from the first trial"
/// on a traced trial means the traced loop diverged from the engine.
struct Checker<'a> {
    bench: &'a Bench,
    reference: Option<Digest>,
    first: Option<Digest>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<'a> Checker<'a> {
    /// References are stored with the fault seed equal to the generator
    /// seed, so on a faulted workload one applies only when they are
    /// equal.
    fn new(bench: &'a Bench, refs: &References) -> Checker<'a> {
        let applies = !bench.def.faults || bench.fault_seed == bench.seed;
        Checker {
            bench,
            reference: applies
                .then(|| refs.get(bench.def.name, bench.seed).cloned())
                .flatten(),
            first: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts a trial that passed [`check`](Self::check) as failed after
    /// all (a check that needs more than the result).
    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }

    /// Checks one trial outcome; returns its digest when it passed.
    fn check(&mut self, what: &str, outcome: &Result<RunResult, String>) -> Option<Digest> {
        self.attempted += 1;
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                self.fail(what, e.clone());
                return None;
            }
        };
        let d = Digest::of(r);
        let mut bad = digest::identity_failures(r, self.bench.def.faults);
        if let Some(reference) = &self.reference {
            let diff = d.diff(reference);
            if !diff.is_empty() {
                bad.push(format!("outputs differ from the reference in {diff:?}"));
            }
        }
        match &self.first {
            None => self.first = Some(d.clone()),
            Some(first) => {
                let diff = d.diff(first);
                if !diff.is_empty() {
                    bad.push(format!("outputs differ from the first trial in {diff:?}"));
                }
            }
        }
        if bad.is_empty() {
            Some(d)
        } else {
            self.fail(what, bad.join("; "));
            None
        }
    }
}

/// One metric's trial samples and, when it is not their median, the
/// value it reports.
struct Metric {
    unit: &'static str,
    samples: Vec<f64>,
    value: Option<f64>,
    /// Shown in the detail line only, not on the result line.
    detail_only: bool,
}

/// Collected metrics by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    fn entry(&mut self, name: impl Into<String>, unit: &'static str) -> &mut Metric {
        self.0.entry(name.into()).or_insert(Metric {
            unit,
            samples: Vec::new(),
            value: None,
            detail_only: false,
        })
    }

    /// Adds a trial sample; the metric reports their median.
    fn add(&mut self, name: impl Into<String>, unit: &'static str, sample: f64) {
        self.entry(name, unit).samples.push(sample);
    }

    /// Adds a sample of a metric the detail line shows but the result
    /// line does not.
    fn add_detail(&mut self, name: impl Into<String>, unit: &'static str, sample: f64) {
        let e = self.entry(name, unit);
        e.detail_only = true;
        e.samples.push(sample);
    }

    /// Sets the reported value (the samples still give the quartiles).
    fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.entry(name, unit).value = Some(value);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts the peak-RSS high-water mark, so the reported peak covers
/// this workload's trials only. Best effort: without `clear_refs`
/// support the peak covers the whole process, which runs this one
/// workload anyway.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn instructions(r: &RunResult) -> f64 {
    r.cores.iter().map(|c| c.instructions as f64).sum()
}

fn cycles(bench: &Bench, r: &RunResult) -> f64 {
    r.elapsed.as_ps() as f64 / bench.clock().as_ps() as f64
}

/// `--trace 0`: untraced trials for `seconds`.
///
/// A first, untimed trial warms the process and alone gives the peak
/// RSS: the calibration kernels allocate too. Every timed trial sits
/// between two calibrations ([`calib::slowdown`]), and its set-up and
/// run times are divided by their mean raised to [`calib::SENSITIVITY`],
/// so they are host seconds at the reference speed.
///
/// The rates are the run's totals: simulated instructions (cycles) of
/// every passing trial over their summed calibrated `System::run` time.
/// Per-trial rates give the quartiles in the detail line, which also
/// shows the raw (uncalibrated) rates and set-up times and the slowdown.
fn end_to_end(bench: &Bench, seconds: f64, checker: &mut Checker) -> Metrics {
    let mut m = Metrics::default();
    reset_peak_rss();
    let warm_up = untraced_trial(bench);
    checker.check("warm-up trial", &warm_up.result);
    m.add("peak_rss_mb", "MiB", peak_rss_mib());
    let start = Instant::now();
    let mut trials = 0;
    let (mut instr, mut cyc, mut hot_s) = (0.0, 0.0, 0.0);
    let mut before = calib::slowdown();
    while trials < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        trials += 1;
        let t = untraced_trial(bench);
        let after = calib::slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        m.add_detail("host.slowdown", "ratio", slowdown);
        let factor = slowdown.powf(calib::SENSITIVITY);
        for (compose_s, warm_s) in &t.setups {
            m.add("setup_s", "s", (compose_s + warm_s) / factor);
            m.add_detail("raw.setup_s", "s", compose_s + warm_s);
        }
        if checker.check("untraced trial", &t.result).is_some() {
            let r = t.result.as_ref().expect("checked");
            let calibrated_s = t.hot_s / factor;
            m.add("sim_instr_per_s", "1/s", instructions(r) / calibrated_s);
            m.add("sim_cycles_per_s", "1/s", cycles(bench, r) / calibrated_s);
            m.add_detail("raw.sim_instr_per_s", "1/s", instructions(r) / t.hot_s);
            instr += instructions(r);
            cyc += cycles(bench, r);
            hot_s += calibrated_s;
        }
    }
    if hot_s > 0.0 {
        m.set("sim_instr_per_s", "1/s", instr / hot_s);
        m.set("sim_cycles_per_s", "1/s", cyc / hot_s);
    }
    m
}

/// Share of `part` in `whole` (0 for an empty whole).
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Name of a timed call's count metric.
fn calls_metric(prefix: &str) -> String {
    match prefix {
        "events.push" => "events.pushes".into(),
        "events.pop" => "events.pops".into(),
        p => format!("{p}_calls"),
    }
}

/// Records one traced trial's layer breakdown.
fn record_layers(m: &mut Metrics, l: &Layers, untraced_hot_s: f64) {
    let hot = l.hot_ns as f64;
    for (prefix, span) in l.spans() {
        m.add(format!("{prefix}_ns"), "ns", span.ns_per_call());
        m.add(calls_metric(prefix), "count", span.calls as f64);
        m.add(
            format!("{prefix}_share"),
            "ratio",
            share(span.ns as f64, hot),
        );
    }
    let decisions = l.decide_idle.calls + l.decide_issue.calls;
    m.add(
        "events.ns_per_event",
        "ns",
        share((l.push.ns + l.pop.ns) as f64, l.handler_runs as f64),
    );
    m.add(
        "cpu.l2_hit_ratio",
        "ratio",
        share(l.l2.0 as f64, (l.l2.0 + l.l2.1) as f64),
    );
    m.add(
        "memsys.idle_decision_ratio",
        "ratio",
        share(l.decide_idle.calls as f64, decisions as f64),
    );
    m.add("memsys.tx_issued", "count", l.tx_issued as f64);
    m.add(
        "memsys.ns_per_tx",
        "ns",
        share(l.decide_issue.ns as f64, l.tx_issued as f64),
    );
    m.add(
        "memsys.queue_depth",
        "entries",
        share(l.depth_sum as f64, l.queue_decisions as f64),
    );
    m.add("finish.collect_s", "s", l.finish_ns as f64 * 1e-9);
    m.add(
        "trace.untimed_share",
        "ratio",
        1.0 - share(l.timed_ns() as f64, hot),
    );
    m.add(
        "trace.overhead_ratio",
        "ratio",
        share((l.hot_ns + l.finish_ns) as f64 * 1e-9, untraced_hot_s),
    );
}

/// Records the modelled work counts of a result.
fn record_counts(m: &mut Metrics, r: &RunResult, frames: u64) {
    m.add("amb.prefetch_coverage", "ratio", r.mem.prefetch_coverage());
    m.add(
        "amb.prefetch_efficiency",
        "ratio",
        r.mem.prefetch_efficiency(),
    );
    m.add("dram.commands", "count", digest::dram_commands(r) as f64);
    m.add("link.frames", "count", frames as f64);
    let f = r.faults.map(|f| f.counters).unwrap_or_default();
    m.add("faults.injected", "count", f.injected as f64);
    m.add("faults.retries", "count", f.retried as f64);
    m.add("faults.reissued", "count", f.reissued as f64);
    m.add("scrub.reads", "count", f.scrub_reads as f64);
}

/// `--trace 1`: paired untraced/traced trials, a profiled counting run
/// and the component probes.
fn per_layer(bench: &Bench, seconds: f64, checker: &mut Checker) -> Metrics {
    let mut m = Metrics::default();
    let start = Instant::now();
    let mut last: Option<(Layers, RunResult)> = None;
    let mut pairs = 0;
    while pairs < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds * TRIAL_SHARE {
        pairs += 1;
        let u = untraced_trial(bench);
        for (compose_s, warm_s) in &u.setups {
            m.add("setup.compose_s", "s", *compose_s);
            m.add("setup.warm_s", "s", *warm_s);
        }
        checker.check("untraced trial", &u.result);
        let traced = catch_unwind(AssertUnwindSafe(|| mirror::run(bench)))
            .map_err(|p| format!("panicked: {}", panic_message(&*p)))
            .and_then(|r| r);
        let (layers, result) = match traced {
            Ok(t) => (Some(t.layers), Ok(t.result)),
            Err(e) => (None, Err(e)),
        };
        let traced_digest = checker.check("traced trial", &result);
        if let (Some(l), Ok(r), Some(_)) = (layers, result, traced_digest) {
            record_layers(&mut m, &l, u.hot_s);
            last = Some((l, r));
        }
    }

    // One profiled run for the counters only the engine keeps (link
    // frames) and the profiler's DRAM-command reconciliation.
    let profiler = Arc::new(HostProfiler::enabled());
    let spec = bench.run_spec().host_profiler(Arc::clone(&profiler));
    let profiled = catch_unwind(AssertUnwindSafe(|| spec.run()))
        .map_err(|p| format!("panicked: {}", panic_message(&*p)));
    let mut frames = 0;
    if checker.check("profiled trial", &profiled).is_some() {
        let r = profiled.as_ref().expect("checked");
        frames = profiler.counter(Counter::FramesSent);
        let counted = profiler.counter(Counter::DramCommands);
        let sum = digest::dram_commands(r);
        if counted != sum {
            checker.fail(
                "profiled trial",
                format!("profiler counted {counted} DRAM commands, dram_ops sum to {sum}"),
            );
        }
    }

    if let Some((l, r)) = &last {
        record_counts(&mut m, r, frames);
        let shape = Shape::of(bench, l, r);
        let counts = Counts::of(bench, l, r, frames);
        let left = (seconds - start.elapsed().as_secs_f64()).max(0.2);
        let slice = Duration::from_secs_f64((left / probes::NAMES.len() as f64).min(2.0));
        let all = probes::run(bench, &shape, &counts, slice);
        for p in probes::NAMES {
            let ns = all
                .iter()
                .find(|x| x.name == p)
                .map_or(0.0, |x| x.ns_per_op);
            m.add(format!("probe.{p}_ns"), "ns", ns);
        }
        m.add(
            "memsys.decide_issue_explained",
            "ratio",
            probes::explained(&all, l.decide_issue.ns),
        );
    }
    m
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Prints the provenance/quartile line and the result line.
fn report(bench: &Bench, args: &Args, checker: &Checker, m: &Metrics) {
    let failed = checker.failed;
    let attempted = checker.attempted.max(1);
    let correct = failed == 0 && !m.0.is_empty();
    let mut summaries = Vec::new();
    let mut metrics = Vec::new();
    for (metric, v) in &m.0 {
        let s = summarize(&v.samples);
        summaries.push((
            metric.clone(),
            Json::Obj(vec![
                ("q1".into(), Json::from(s.q1)),
                ("median".into(), Json::from(s.median)),
                ("q3".into(), Json::from(s.q3)),
                ("n".into(), Json::from(s.n)),
            ]),
        ));
        if v.detail_only {
            continue;
        }
        metrics.push((
            metric.clone(),
            Json::Obj(vec![
                ("value".into(), Json::from(v.value.unwrap_or(s.median))),
                ("unit".into(), Json::from(v.unit)),
            ]),
        ));
    }
    if args.trace {
        metrics.push((
            "failed_run_ratio".into(),
            Json::Obj(vec![
                ("value".into(), Json::from(failed as f64 / attempted as f64)),
                ("unit".into(), Json::from("ratio")),
            ]),
        ));
    }
    let detail = Json::Obj(vec![
        ("workload".into(), Json::from(bench.def.name)),
        (
            "paper_workload".into(),
            Json::from(bench.def.paper_workload),
        ),
        ("system".into(), Json::from(bench.def.system)),
        ("budget".into(), Json::from(bench.budget)),
        ("seed".into(), Json::from(bench.seed)),
        ("fault_seed".into(), Json::from(bench.fault_seed)),
        ("trace".into(), Json::from(args.trace)),
        ("nproc".into(), Json::from(nproc())),
        ("build".into(), fbd_core::build_info().to_json()),
        (
            "reference_checked".into(),
            Json::from(checker.reference.is_some()),
        ),
        (
            "failures".into(),
            Json::Arr(
                checker
                    .failures
                    .iter()
                    .take(8)
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("summaries".into(), Json::Obj(summaries)),
    ]);
    println!("{}", Json::Obj(vec![("detail".into(), detail)]).to_json());
    let result = Json::Obj(vec![
        ("correct".into(), Json::from(correct)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
}

/// `--write-reference`: stores the digest of one untraced run per seed
/// and workload, refusing results that fail an identity.
fn write_reference(path: &Path, args: &Args) -> Result<(), String> {
    if args.fault_seed.is_some() {
        return Err(
            "references are taken with the fault seed equal to the seed; \
                    drop --fault-seed"
                .into(),
        );
    }
    let mut refs = if path.exists() {
        References::load(path)?
    } else {
        References::default()
    };
    for def in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != def.name) {
            continue;
        }
        for seed in args.seeds.0..=args.seeds.1 {
            let bench = Bench::new(def, seed, seed, def.budget)?;
            let r = untraced_trial(&bench).result?;
            let bad = digest::identity_failures(&r, def.faults);
            if !bad.is_empty() {
                return Err(format!("{} seed {seed}: {bad:?}", def.name));
            }
            refs.insert(def.name, seed, Digest::of(&r));
            eprintln!("{} seed {seed}: stored", def.name);
        }
    }
    refs.save(path)
}

fn main() -> ExitCode {
    let set: Vec<&str> = OVERRIDES
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("refusing to run: {set:?} change what is measured; unset them");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_reference {
        return match write_reference(path, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(def) = args.workload.as_deref().and_then(spec::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("--workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    let refs = match &args.reference {
        Some(p) => match References::load(p) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => References::default(),
    };
    let bench = match Bench::new(
        def,
        args.seed,
        args.fault_seed.unwrap_or(args.seed),
        def.budget,
    ) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::new(&bench, &refs);
    if checker.reference.is_none() {
        eprintln!(
            "warning: no stored reference for {} at seed {} (fault seed {}); \
             only determinism, traced == untraced and the run identities are checked",
            def.name, bench.seed, bench.fault_seed
        );
    }
    let m = if args.trace {
        per_layer(&bench, args.seconds, &mut checker)
    } else {
        end_to_end(&bench, args.seconds, &mut checker)
    };
    report(&bench, &args, &checker, &m);
    ExitCode::SUCCESS
}

//! `fbdsim` — command-line experiment runner for the FB-DIMM AMB
//! prefetching simulator.
//!
//! ```text
//! fbdsim list
//! fbdsim list-substrates
//! fbdsim list-schedulers
//! fbdsim run     --workload 4C-1 --substrate fbd-ap [--scheduler fcfs] [--budget N] [--seed N]
//!                [--csv] [--json] [--stats-json stats.json] [--trace-out trace.json]
//! fbdsim profile --workload 1C-swim [--substrate fbd-ap] [--folded-out folded.txt]
//! fbdsim compare --workload 1C-swim [--substrate a,b,c] [--budget N] [--csv] [--fidelity auto]
//! fbdsim sweep   --workload 1C-mgrid --knob {k|entries|assoc|channels|rate|grid} [--csv]
//! ```
//!
//! Substrates come from the `fbd_types::substrate::substrates()`
//! registry (`fbdsim list-substrates` prints them); `--system` is an
//! exact alias of `--substrate` on every subcommand that selects one.
//! Workloads: the paper's Table 3 mixes (`2C-1` … `8C-3`) and the
//! single-program workloads (`1C-<benchmark>`).

use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fbd_core::experiment::{default_budget, ExperimentConfig};
use fbd_core::{calibrate, parallel_map, pareto_frontier, Calibration, Fidelity};
use fbd_core::{RunResult, RunSpec};
use fbd_ctrl::schedulers;
use fbd_telemetry::host::{Counter, HostProfiler, PHASES};
use fbd_telemetry::live::{bar, fmt_duration, si, sparkline};
use fbd_telemetry::{Json, LogHistogram, SampleObserver, TelemetryConfig};
use fbd_types::config::{
    Associativity, FaultConfig, FaultMode, Interleaving, ScrubPolicyKind, SystemConfig,
};
use fbd_types::request::{REQ_CLASSES, STAGES};
use fbd_types::substrate::substrates;
use fbd_types::time::DataRate;
use fbd_workloads::{paper_workloads, Workload};

fn usage_text() -> String {
    "usage:\n  fbdsim list\n  fbdsim list-substrates\n  fbdsim list-schedulers\n  fbdsim version\n  \
     fbdsim run --workload <name> --substrate <name> [--scheduler <name>] \
     [--budget N] [--seed N]\n             [--csv] [--json] [--timeline] [--live] \
     [--stats-json <file>] [--trace-out <file>] [--sample-interval <cycles>]\n  \
     fbdsim profile --workload <name> [--substrate <name>] [--budget N] [--seed N] [--json]\n             \
     [--folded-out <file>] [--stats-json <file>]\n  \
     fbdsim compare --workload <name> [--substrate <a,b,c>] [--scheduler <name>] [--budget N] \
     [--seed N] [--csv] [--json] [--live] [--stats-json <file>]\n  \
     fbdsim sweep --workload <name> --knob <k|entries|assoc|channels|rate|grid> \
     [--substrate <name>] [--scheduler <name>]\n             [--budget N] [--seed N] \
     [--csv] [--json] [--live] [--stats-json <file>]\n  \
     fbdsim record --workload <name> --substrate <name> --out <trace.csv> [--budget N] \
     [--seed N]\n  \
     fbdsim replay --trace <trace.csv> --substrate <name>\n\n\
     substrate options:\n  \
     --substrate <name>         registered memory substrate (see `fbdsim list-substrates`);\n                             \
     --system is an exact alias; on compare, a\n                             \
     comma-separated list replaces the default paper grid\n  \
     --scheduler <name>         registered scheduling policy (see `fbdsim list-schedulers`;\n                             \
     default hit-first)\n\n\
     statistics options:\n  \
     --stats-json <file>        write machine-readable statistics as JSON (run: one\n                             \
     document; compare/sweep: one document covering every grid point)\n  \
     --json                     print the same statistics JSON to stdout\n\n\
     telemetry options (run):\n  \
     --trace-out <file>         write a Chrome-trace (Perfetto-loadable) event trace\n  \
     --sample-interval <cycles> snapshot all metrics every N memory-clock cycles\n\n\
     display options (run/compare/sweep):\n  \
     --live                     live stderr dashboard while the simulation runs: host\n                             \
     throughput sparkline, per-phase wall-time bars, grid\n                             \
     progress and hot-loop counters (requires a terminal on\n                             \
     stderr, silently off otherwise; `q` + Enter detaches)\n\n\
     fault-injection options (run/profile/compare/sweep):\n  \
     --fault-ber <rate>         channel bit-error rate in [0,1] (0 = injection off)\n  \
     --fault-seed <n>           error-process seed (default 1)\n  \
     --fault-mode <mode>        ber|burst|stuck-lane (default ber)\n\n\
     reliability options (run/profile/compare/sweep):\n  \
     --crc-bits <n>             effective CRC strength in check bits; corrupted frames\n                             \
     escape detection with probability ~2^-n (0 = ideal CRC,\n                             \
     every corruption detected; requires --fault-ber)\n  \
     --scrub <policy>           background scrub policy: none|patrol (default none;\n                             \
     patrol costs bandwidth even on a clean channel)\n  \
     --scrub-interval-ns <n>    per-channel patrol rate limit in ns (default 600;\n                             \
     requires --scrub patrol)\n  \
     --failback <quiet-ns>      re-probe failed-over lanes after this quiet period with\n                             \
     bounded exponential backoff (0 = fail-over is permanent;\n                             \
     requires --fault-ber)\n  \
     --reissue <budget>         dropped prefetch returns remembered per channel and\n                             \
     re-issued in idle slots (0 = off; requires --fault-ber)\n\n\
     fidelity options (run/compare/sweep):\n  \
     --fidelity <mode>          accurate: cycle-stepped simulator (default)\n                             \
     fast: calibrated analytic queue model; output embeds the\n                             \
     calibration's held-out error bounds\n                             \
     auto (compare/sweep): fast for the whole grid, then accurate\n                             \
     re-runs of the IPC/energy Pareto frontier, points tagged\n\n\
     profile options:\n  \
     --folded-out <file>        write folded stacks (flamegraph.pl / speedscope input)"
        .to_string()
}

/// Subcommands that simulate a workload.
const SIMULATE: &[&str] = &["run", "profile", "compare", "sweep", "record"];
/// Subcommands that emit a stats document and take fault options.
const STATS: &[&str] = &["run", "profile", "compare", "sweep"];
/// Subcommands that pick a scheduler and fidelity.
const POLICY: &[&str] = &["run", "compare", "sweep"];
/// Subcommands that select a system.
const SYSTEM: &[&str] = &["run", "profile", "compare", "sweep", "record", "replay"];

/// Every option: its name, whether it takes a value, and the
/// subcommands that accept it.
const OPTIONS: &[(&str, bool, &[&str])] = &[
    ("workload", true, SIMULATE),
    ("substrate", true, SYSTEM),
    ("system", true, SYSTEM),
    ("scheduler", true, POLICY),
    ("knob", true, &["sweep"]),
    ("budget", true, SIMULATE),
    ("seed", true, SIMULATE),
    ("stats-json", true, STATS),
    ("trace-out", true, &["run"]),
    ("sample-interval", true, &["run"]),
    ("folded-out", true, &["profile"]),
    ("out", true, &["record"]),
    ("trace", true, &["replay"]),
    ("fault-ber", true, STATS),
    ("fault-seed", true, STATS),
    ("fault-mode", true, STATS),
    ("crc-bits", true, STATS),
    ("scrub", true, STATS),
    ("scrub-interval-ns", true, STATS),
    ("failback", true, STATS),
    ("reissue", true, STATS),
    ("fidelity", true, POLICY),
    ("csv", false, POLICY),
    ("json", false, STATS),
    ("timeline", false, &["run"]),
    ("live", false, POLICY),
];

/// Rejects options a subcommand does not understand (usage error 2,
/// like every other argument mistake), so a typo never silently runs
/// with defaults. Value-taking options missing their value and boolean
/// flags given a value are reported specifically.
fn validate_args(cmd: &str, args: &Args) -> Result<(), ExitCode> {
    let given = args.pairs.iter().map(|(k, _)| (k, true));
    for (key, has_value) in given.chain(args.flags.iter().map(|f| (f, false))) {
        let Some(&(_, takes_value, _)) = OPTIONS
            .iter()
            .find(|(name, _, cmds)| name == key && cmds.contains(&cmd))
        else {
            eprintln!("unknown option `--{key}` for `fbdsim {cmd}`");
            return Err(usage());
        };
        if has_value != takes_value {
            if takes_value {
                eprintln!("--{key} requires a value");
            } else {
                eprintln!("--{key} does not take a value");
            }
            return Err(usage());
        }
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

fn help() -> ExitCode {
    println!("{}", usage_text());
    ExitCode::SUCCESS
}

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--")?;
            if it.peek().is_some_and(|v| !v.starts_with("--")) {
                if let Some(v) = it.next() {
                    pairs.push((key.to_string(), v.clone()));
                }
            } else {
                flags.push(key.to_string());
            }
        }
        Some(Args { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn all_workloads() -> Vec<Workload> {
    let (c1, c2, c4, c8) = paper_workloads();
    c1.into_iter().chain(c2).chain(c4).chain(c8).collect()
}

fn find_workload(name: &str) -> Option<Workload> {
    fbd_workloads::find(name)
}

/// The `--substrate` value, or its exact alias `--system`, with the
/// spelling typed (diagnostics name it). `default` applies when neither
/// is given; without one the option is required (usage error).
fn substrate_arg<'a>(
    args: &'a Args,
    default: Option<&'a str>,
) -> Result<(&'a str, &'static str), ExitCode> {
    match (args.get("substrate"), args.get("system"), default) {
        (Some(_), Some(_), _) => {
            eprintln!("--system and --substrate are aliases; give only one");
            Err(ExitCode::from(2))
        }
        (Some(s), None, _) => Ok((s, "substrate")),
        (None, Some(s), _) => Ok((s, "system")),
        (None, None, Some(d)) => Ok((d, "substrate")),
        (None, None, None) => Err(usage()),
    }
}

/// The spec every subcommand runs: a `cores`-core system on the
/// registered substrate `name` (typed as `--{flag}`) under the
/// `--scheduler` policy (default `hit-first`). Its
/// [`RunSpec::composition`] is the stats document's composition: the
/// substrate label stays the selected name even after fault options
/// or a sweep knob edit the configuration. Unknown names are usage
/// errors listing the registry.
fn resolve(args: &Args, name: &str, flag: &str, cores: u32) -> Result<RunSpec, ExitCode> {
    RunSpec::paper_default(cores)
        .try_substrate(name)
        .map_err(|_| {
            eprintln!(
                "unknown {flag} `{name}` (available: {})",
                substrates().available()
            );
            ExitCode::from(2)
        })?
        .try_scheduler(args.get("scheduler").unwrap_or("hit-first"))
        .map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        })
}

fn experiment(args: &Args) -> Result<ExperimentConfig, ExitCode> {
    let mut exp = ExperimentConfig {
        budget: default_budget(),
        ..ExperimentConfig::default()
    };
    if let Some(v) = args.get("budget") {
        match v.parse::<u64>() {
            Ok(b) if b > 0 => exp.budget = b,
            _ => {
                eprintln!("--budget must be a positive instruction count, got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("seed") {
        match v.parse::<u64>() {
            Ok(s) => exp.seed = s,
            Err(_) => {
                eprintln!("--seed must be an unsigned integer, got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(exp)
}

/// Resolves the fault-injection and reliability flags shared by
/// `run`/`profile`/`compare`/`sweep`. `Ok(None)` means neither
/// injection nor any recovery policy was requested (the channel models
/// stay on the zero-cost no-fault path); `Err` is a usage error
/// already reported on stderr.
///
/// `--scrub` stands alone — patrol scrubbing costs bandwidth on a
/// clean channel too, so it is meaningful without an error process.
/// The other reliability knobs shape how errors are detected or
/// recovered from, so they require `--fault-ber`.
fn fault_options(args: &Args) -> Result<Option<FaultConfig>, ExitCode> {
    if args.get("fault-ber").is_none() {
        for key in [
            "fault-seed",
            "fault-mode",
            "crc-bits",
            "failback",
            "reissue",
        ] {
            if args.get(key).is_some() {
                eprintln!("--{key} requires --fault-ber");
                return Err(ExitCode::from(2));
            }
        }
    }
    if args.get("scrub-interval-ns").is_some() && args.get("scrub") != Some("patrol") {
        eprintln!("--scrub-interval-ns requires --scrub patrol");
        return Err(ExitCode::from(2));
    }
    if args.get("fault-ber").is_none() && args.get("scrub").is_none() {
        return Ok(None);
    }
    let mut fc = FaultConfig::off();
    if let Some(ber_s) = args.get("fault-ber") {
        match ber_s.parse::<f64>() {
            Ok(b) if b.is_finite() && (0.0..=1.0).contains(&b) => fc.ber = b,
            _ => {
                eprintln!("--fault-ber must be a bit-error rate in [0, 1], got `{ber_s}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("fault-seed") {
        match v.parse::<u64>() {
            Ok(s) => fc.seed = s,
            Err(_) => {
                eprintln!("--fault-seed must be an unsigned integer, got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("fault-mode") {
        match FaultMode::by_name(v) {
            Some(m) => fc.mode = m,
            None => {
                eprintln!("--fault-mode must be ber, burst or stuck-lane, got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("crc-bits") {
        match v.parse::<u32>() {
            Ok(b) if b <= 64 => fc.crc_bits = b,
            _ => {
                eprintln!("--crc-bits must be an integer in [0, 64], got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("scrub") {
        match ScrubPolicyKind::by_name(v) {
            Some(k) => fc.scrub = k,
            None => {
                eprintln!(
                    "unknown scrub policy `{v}` (available: {})",
                    ScrubPolicyKind::ALL.map(ScrubPolicyKind::name).join("|")
                );
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("scrub-interval-ns") {
        match v.parse::<u64>() {
            Ok(n) if n > 0 => fc.scrub_interval_ns = n,
            _ => {
                eprintln!("--scrub-interval-ns must be a positive nanosecond count, got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("failback") {
        match v.parse::<u64>() {
            Ok(n) => fc.failback_quiet_ns = n,
            Err(_) => {
                eprintln!("--failback must be a quiet period in ns (0 = off), got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(v) = args.get("reissue") {
        match v.parse::<u32>() {
            Ok(n) => fc.reissue_budget = n,
            Err(_) => {
                eprintln!("--reissue must be a per-channel line budget (0 = off), got `{v}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(Some(fc))
}

/// Resolves the `--fidelity` flag shared by `run`/`compare`/`sweep`.
/// Absent means accurate (the cycle simulator); `Err` is a usage error
/// already reported on stderr.
fn fidelity_options(args: &Args) -> Result<Fidelity, ExitCode> {
    match args.get("fidelity") {
        None => Ok(Fidelity::Accurate),
        Some(v) => match Fidelity::by_name(v) {
            Some(f) => Ok(f),
            None => {
                eprintln!("--fidelity must be accurate, fast or auto, got `{v}`");
                Err(ExitCode::from(2))
            }
        },
    }
}

/// Throttled `done/total/ETA` progress meter for grid commands. It
/// prints to stderr only when both stderr *and* stdout are terminals
/// (so piped and CI output stays byte-identical on either stream) and
/// never while the `--live` dashboard owns stderr.
struct Progress {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    start: Instant,
    last: Mutex<Option<Instant>>,
}

impl Progress {
    const THROTTLE_MS: u128 = 100;

    fn new(total: usize, live: bool) -> Progress {
        Progress {
            enabled: !live && std::io::stderr().is_terminal() && std::io::stdout().is_terminal(),
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            last: Mutex::new(None),
        }
    }

    /// Records one finished grid point; safe to call from worker
    /// threads. The final point always prints (then clears the line).
    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        {
            let mut last = self.last.lock().unwrap();
            let due = last.is_none_or(|t| now.duration_since(t).as_millis() >= Self::THROTTLE_MS);
            if !due && done != self.total {
                return;
            }
            *last = Some(now);
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = elapsed / done as f64 * (self.total - done) as f64;
        let mut err = std::io::stderr();
        if done == self.total {
            // Clear the meter so the report that follows starts clean.
            let _ = write!(err, "\r{:64}\r", "");
        } else {
            let _ = write!(
                err,
                "\r  {done}/{} points, {elapsed:.0}s elapsed, ETA {eta:.0}s ",
                self.total
            );
        }
        let _ = err.flush();
    }
}

/// Sample cadence driving the `--live` dashboard when the user gave no
/// `--sample-interval`: one telemetry snapshot (and one throughput
/// observation) every 1024 memory-clock cycles.
const LIVE_SAMPLE_CYCLES: u64 = 1024;

/// Shared state behind the `--live` dashboard: the simulation threads
/// write it (per-point [`HostProfiler`]s, sampler observers, the done
/// counter) and the render thread reads it a few times per second.
struct LiveState {
    workload: String,
    total: usize,
    done: AtomicUsize,
    /// Labeled per-point profilers, registered as grid points start.
    points: Mutex<Vec<(String, Arc<HostProfiler>)>>,
    /// Total simulated picoseconds advanced across all points, fed by
    /// the per-point sample observers.
    sim_ps: AtomicU64,
    /// Memory-clock period (ps) for converting simulated time to
    /// cycles; grids use the first point's clock.
    clock_ps: u64,
    /// Set by the stdin reader when the user types `q` + Enter: the
    /// dashboard erases itself and stops drawing, the run continues.
    detached: AtomicBool,
}

impl LiveState {
    fn new(workload: &str, total: usize, clock: fbd_types::time::Dur) -> Arc<LiveState> {
        Arc::new(LiveState {
            workload: workload.to_string(),
            total,
            done: AtomicUsize::new(0),
            points: Mutex::new(Vec::new()),
            sim_ps: AtomicU64::new(0),
            clock_ps: clock.as_ps().max(1),
            detached: AtomicBool::new(false),
        })
    }

    fn register(&self, label: &str, profiler: Arc<HostProfiler>) {
        self.points
            .lock()
            .expect("live points poisoned")
            .push((label.to_string(), profiler));
    }

    /// A sampler observer accumulating one point's simulated-time
    /// progress into the shared total (each point keeps its own
    /// last-seen instant, so concurrent points compose additively).
    fn observer(self: &Arc<Self>) -> SampleObserver {
        let state = Arc::clone(self);
        let last_ps = Mutex::new(0u64);
        SampleObserver::new(move |row, _| {
            let mut last = last_ps.lock().expect("observer state poisoned");
            let ps = row.at.as_ps();
            state
                .sim_ps
                .fetch_add(ps.saturating_sub(*last), Ordering::Relaxed);
            *last = ps;
        })
    }

    fn point_done(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// The `--live` dashboard: a render thread that redraws a small stderr
/// panel ~5×/second (throughput sparkline, per-phase wall-time bars,
/// grid progress, hot-loop counters) while the simulation runs, then
/// erases it so the report that follows starts clean. Callers only
/// construct one when stderr is a terminal; without one, a `--live`
/// run's output is byte-identical to a run without the flag.
struct LiveDashboard {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveDashboard {
    const FRAME_MS: u64 = 200;
    /// Sparkline history window (frames) kept for the throughput row.
    const HISTORY: usize = 32;

    fn start(state: Arc<LiveState>) -> LiveDashboard {
        // `q` + Enter detaches. The reader thread blocks on stdin, so
        // it is left detached (it dies with the process) and is only
        // spawned when stdin is interactive.
        if std::io::stdin().is_terminal() {
            let st = Arc::clone(&state);
            std::thread::spawn(move || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match std::io::stdin().read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) if line.trim() == "q" => {
                            st.detached.store(true, Ordering::Relaxed);
                            return;
                        }
                        Ok(_) => {}
                    }
                }
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || Self::render_loop(&state, &stop))
        };
        LiveDashboard {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the render thread and waits for it to erase the panel.
    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn render_loop(state: &LiveState, stop: &AtomicBool) {
        let start = Instant::now();
        let mut history: Vec<f64> = Vec::new();
        let mut last_ps = 0u64;
        let mut last_frame = start;
        let mut drawn = 0usize;
        loop {
            let stopping = stop.load(Ordering::Relaxed);
            if state.detached.load(Ordering::Relaxed) {
                Self::erase(&mut drawn);
                return;
            }
            let now = Instant::now();
            let ps = state.sim_ps.load(Ordering::Relaxed);
            let dt = now.duration_since(last_frame).as_secs_f64();
            if dt > 0.0 {
                let cycles = ps.saturating_sub(last_ps) as f64 / state.clock_ps as f64;
                history.push(cycles / dt);
                if history.len() > Self::HISTORY {
                    history.remove(0);
                }
            }
            last_ps = ps;
            last_frame = now;
            if stopping {
                Self::erase(&mut drawn);
                return;
            }
            Self::draw(state, start, &history, ps, &mut drawn);
            std::thread::sleep(Duration::from_millis(Self::FRAME_MS));
        }
    }

    /// Renders one frame: erases the previous panel (cursor-up + clear
    /// to end of screen), then prints the new one.
    fn draw(state: &LiveState, start: Instant, history: &[f64], sim_ps: u64, drawn: &mut usize) {
        let mut frame = String::new();
        if *drawn > 0 {
            frame.push_str(&format!("\x1b[{}A\x1b[J", *drawn));
        }
        let done = state.done.load(Ordering::Relaxed).min(state.total);
        let mut lines = vec![format!(
            "  {} live   {done}/{} point(s)   {} elapsed   (q⏎ detaches)",
            state.workload,
            state.total,
            fmt_duration(start.elapsed())
        )];
        let current = history.last().copied().unwrap_or(0.0);
        let total_cycles = sim_ps as f64 / state.clock_ps as f64;
        let avg = total_cycles / start.elapsed().as_secs_f64().max(1e-9);
        lines.push(format!(
            "  sim speed   {}  {}cyc/s now, {}cyc/s avg",
            sparkline(history, Self::HISTORY),
            si(current),
            si(avg)
        ));
        // Aggregate phases and counters across every registered point.
        let points = state.points.lock().expect("live points poisoned");
        let mut phases = [Duration::ZERO; PHASES.len()];
        let mut counts = [0u64; fbd_telemetry::host::COUNTERS.len()];
        for (_, prof) in points.iter() {
            for (slot, d) in phases.iter_mut().zip(prof.phase_snapshot()) {
                *slot += d;
            }
            for (slot, &(c, _)) in counts.iter_mut().zip(&fbd_telemetry::host::COUNTERS) {
                *slot += prof.counter(c);
            }
        }
        drop(points);
        let busy: Duration = phases.iter().sum();
        if !busy.is_zero() {
            for (&(_, label), d) in PHASES.iter().zip(&phases) {
                if d.is_zero() {
                    continue;
                }
                let frac = d.as_secs_f64() / busy.as_secs_f64();
                lines.push(format!(
                    "  {label:<11} {} {:>5.1}%",
                    bar(frac, 24),
                    frac * 100.0
                ));
            }
        }
        lines.push(format!(
            "  counters    {} events, {} retired, {} frames, {} retries",
            si(counts[Counter::Events as usize] as f64),
            si(counts[Counter::RequestsRetired as usize] as f64),
            si(counts[Counter::FramesSent as usize] as f64),
            si(counts[Counter::Retries as usize] as f64),
        ));
        for l in &lines {
            frame.push_str(l);
            // Clear to end of line so shrinking lines leave no residue.
            frame.push_str("\x1b[K\n");
        }
        *drawn = lines.len();
        let mut err = std::io::stderr();
        let _ = err.write_all(frame.as_bytes());
        let _ = err.flush();
    }

    fn erase(drawn: &mut usize) {
        if *drawn > 0 {
            let mut err = std::io::stderr();
            let _ = write!(err, "\x1b[{}A\x1b[J", *drawn);
            let _ = err.flush();
            *drawn = 0;
        }
    }
}

/// The `calibration` object embedded in every fast-fidelity stats
/// document: the fitted parameters plus the held-out error bounds.
fn calibration_json(cal: &Calibration) -> Json {
    let rep = &cal.report;
    let err = |e: &fbd_model::MetricError| {
        Json::Obj(vec![
            ("mean_rel".into(), Json::from(e.mean_rel)),
            ("max_rel".into(), Json::from(e.max_rel)),
        ])
    };
    Json::Obj(vec![
        ("substrate".into(), Json::from(rep.substrate)),
        (
            "params".into(),
            Json::Obj(vec![
                (
                    "service_inflation".into(),
                    Json::from(rep.params.service_inflation),
                ),
                ("hit_scaling".into(), Json::from(rep.params.hit_scaling)),
                ("contention".into(), Json::from(rep.params.contention)),
                ("demand_scale".into(), Json::from(rep.params.demand_scale)),
                ("swpf_scale".into(), Json::from(rep.params.swpf_scale)),
                ("write_scale".into(), Json::from(rep.params.write_scale)),
            ]),
        ),
        ("fit_points".into(), Json::from(rep.fit_points)),
        ("holdout_points".into(), Json::from(rep.holdout_points)),
        ("ipc".into(), err(&rep.ipc)),
        ("latency".into(), err(&rep.latency)),
        ("bandwidth".into(), err(&rep.bandwidth)),
        ("energy".into(), err(&rep.energy)),
    ])
}

/// Runs a labeled grid at the requested fidelity. Returns the per-point
/// results in grid order, the fidelity tag each point actually ran at,
/// and the calibration when the fast model was involved. `Err` carries
/// an exit code already reported on stderr.
///
/// Every point runs with its own enabled [`HostProfiler`] (created at
/// run time, so a point's wall clock starts when *it* starts), which is
/// where the `host` object in every grid stats document comes from.
/// With `live`, points also carry a sampler (at the dashboard's default
/// cadence) whose observer feeds the shared throughput meter.
#[allow(clippy::type_complexity)]
fn run_grid(
    grid: &[(String, RunSpec)],
    fidelity: Fidelity,
    live: Option<&Arc<LiveState>>,
) -> Result<(Vec<RunResult>, Vec<Fidelity>, Option<Arc<Calibration>>), ExitCode> {
    let point_spec = |i: usize| -> RunSpec {
        let (label, spec) = &grid[i];
        let profiler = Arc::new(HostProfiler::enabled());
        let mut spec = spec.clone().host_profiler(Arc::clone(&profiler));
        if let Some(state) = live {
            state.register(label, profiler);
            let clock = spec.system().mem.data_rate.clock_period();
            spec = spec
                .telemetry(TelemetryConfig {
                    sample_interval: Some(clock * LIVE_SAMPLE_CYCLES),
                    trace: false,
                })
                .sample_observer(state.observer());
        }
        spec
    };
    let indices: Vec<usize> = (0..grid.len()).collect();
    if fidelity == Fidelity::Accurate {
        let progress = Progress::new(grid.len(), live.is_some());
        let results = parallel_map(&indices, |&i| {
            let r = point_spec(i).run();
            progress.tick();
            if let Some(state) = live {
                state.point_done();
            }
            r
        });
        return Ok((results, vec![Fidelity::Accurate; grid.len()], None));
    }
    let Some((_, first)) = grid.first() else {
        return Ok((Vec::new(), Vec::new(), None));
    };
    if live.is_none() && std::io::stderr().is_terminal() {
        eprintln!("calibrating the fast model (accurate fit + holdout runs)...");
    }
    // The calibration is labelled with the preset its anchor
    // configuration matches (`custom` for a swept variant), not with
    // the substrate name the grid was selected by.
    let anchor = first.clone().with_system(*first.system());
    let cal = match calibrate(&anchor) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let mut results = Vec::with_capacity(grid.len());
    for &i in &indices {
        match point_spec(i).try_run_fast(&cal) {
            Ok(r) => {
                results.push(r);
                if let Some(state) = live {
                    state.point_done();
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", grid[i].0);
                return Err(ExitCode::FAILURE);
            }
        }
    }
    let mut tags = vec![Fidelity::Fast; grid.len()];
    if fidelity == Fidelity::Auto {
        // Re-run only the model's IPC/energy Pareto frontier through
        // the cycle simulator; dominated points keep their fast result.
        // Re-runs get fresh profilers (via `point_spec`), so a frontier
        // point's host report covers its accurate run only; the done
        // counter is not re-ticked (the point was already counted).
        let points: Vec<(f64, f64)> = results
            .iter()
            .map(|r| (r.ipcs().iter().sum::<f64>(), r.energy.total_nj()))
            .collect();
        let frontier = pareto_frontier(&points);
        let progress = Progress::new(frontier.len(), live.is_some());
        let accurate = parallel_map(&frontier, |&i| {
            let r = point_spec(i).run();
            progress.tick();
            r
        });
        for (&i, r) in frontier.iter().zip(accurate) {
            results[i] = r;
            tags[i] = Fidelity::Accurate;
        }
    }
    Ok((results, tags, Some(cal)))
}

/// Resolves the run subcommand's telemetry flags. `Ok(None)` means no
/// telemetry was requested (the run pays zero instrumentation cost);
/// `Err` is a usage error already reported on stderr.
fn telemetry_options(args: &Args, cfg: &SystemConfig) -> Result<Option<TelemetryConfig>, ExitCode> {
    let sample_interval = match args.get("sample-interval") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(cycles) if cycles > 0 => Some(cfg.mem.data_rate.clock_period() * cycles),
            _ => {
                eprintln!("--sample-interval must be a positive cycle count, got `{v}`");
                return Err(ExitCode::from(2));
            }
        },
    };
    let trace = args.get("trace-out").is_some();
    if sample_interval.is_none() && !trace {
        return Ok(None);
    }
    Ok(Some(TelemetryConfig {
        sample_interval,
        trace,
    }))
}

/// The machine-readable statistics document written by `--stats-json`
/// and printed by `--json`: everything the human report shows, plus the
/// full metric registry and epoch time-series when telemetry ran.
fn stats_document(workload: &Workload, system: &str, spec: &RunSpec, r: &RunResult) -> Json {
    let ipc_sum: f64 = r.ipcs().iter().sum();
    let bw = r.channel_bandwidth_gbps();
    let channels: Vec<Json> = r
        .channels
        .iter()
        .zip(&bw)
        .enumerate()
        .map(|(c, (counts, gbps))| {
            Json::Obj(vec![
                ("channel".into(), Json::from(c)),
                ("reads".into(), Json::from(counts.reads)),
                ("writes".into(), Json::from(counts.writes)),
                ("bytes".into(), Json::from(counts.bytes)),
                ("amb_hits".into(), Json::from(counts.amb_hits)),
                ("bandwidth_gbps".into(), Json::from(*gbps)),
            ])
        })
        .collect();
    let max_ns = r.mem.read_latency.max().map_or(0.0, |d| d.as_ns_f64());
    let mut fields = vec![
        ("workload".to_string(), Json::from(workload.name())),
        ("system".to_string(), Json::from(system)),
        (
            "composition".to_string(),
            spec.composition().to_json(&spec.system().mem),
        ),
        ("elapsed_ns".to_string(), Json::from(r.elapsed.as_ns_f64())),
        ("ipc_sum".to_string(), Json::from(ipc_sum)),
        (
            "ipc".to_string(),
            Json::Arr(r.ipcs().into_iter().map(Json::from).collect()),
        ),
        ("bandwidth_gbps".to_string(), Json::from(r.bandwidth_gbps())),
        (
            "traffic".to_string(),
            Json::Obj(vec![
                ("demand_reads".into(), Json::from(r.mem.demand_reads)),
                (
                    "sw_prefetch_reads".into(),
                    Json::from(r.mem.sw_prefetch_reads),
                ),
                (
                    "hw_prefetch_reads".into(),
                    Json::from(r.mem.hw_prefetch_reads),
                ),
                ("writes".into(), Json::from(r.mem.writes)),
                ("data_bytes".into(), Json::from(r.mem.data_bytes)),
            ]),
        ),
        ("channels".to_string(), Json::Arr(channels)),
        (
            "read_latency".to_string(),
            Json::Obj(vec![
                ("count".into(), Json::from(r.mem.read_latency.count())),
                ("mean_ns".into(), Json::from(r.avg_read_latency_ns())),
                ("max_ns".into(), Json::from(max_ns)),
                (
                    "p50_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.50)),
                ),
                (
                    "p95_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.95)),
                ),
                (
                    "p99_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.99)),
                ),
            ]),
        ),
        (
            "prefetch".to_string(),
            Json::Obj(vec![
                ("amb_hits".into(), Json::from(r.mem.amb_hits)),
                (
                    "lines_prefetched".into(),
                    Json::from(r.mem.lines_prefetched),
                ),
                ("coverage".into(), Json::from(r.mem.prefetch_coverage())),
                ("efficiency".into(), Json::from(r.mem.prefetch_efficiency())),
            ]),
        ),
        (
            "dram".to_string(),
            Json::Obj(vec![
                ("act_pre".into(), Json::from(r.mem.dram_ops.act_pre)),
                ("col_reads".into(), Json::from(r.mem.dram_ops.col_reads)),
                ("col_writes".into(), Json::from(r.mem.dram_ops.col_writes)),
                ("refreshes".into(), Json::from(r.mem.dram_ops.refreshes)),
            ]),
        ),
        (
            "energy".to_string(),
            Json::Obj(vec![
                (
                    "current_set".into(),
                    Json::from(r.energy.current_set.as_str()),
                ),
                ("activation_nj".into(), Json::from(r.energy.activation_nj)),
                ("burst_nj".into(), Json::from(r.energy.burst_nj)),
                ("refresh_nj".into(), Json::from(r.energy.refresh_nj)),
                ("background_nj".into(), Json::from(r.energy.background_nj)),
                ("amb_nj".into(), Json::from(r.energy.amb_nj)),
                ("total_nj".into(), Json::from(r.energy.total_nj())),
                ("total_j".into(), Json::from(r.energy.total_j())),
                ("avg_power_w".into(), Json::from(r.energy.avg_power_w())),
                (
                    "background_fraction".into(),
                    Json::from(r.energy.background_fraction()),
                ),
            ]),
        ),
    ];
    // Present only when fault injection ran, so a no-fault run's
    // document stays byte-identical to one from a build without the
    // fault flags.
    if let Some(fr) = &r.faults {
        fields.push((
            "errors".to_string(),
            Json::Obj(vec![
                ("injected".into(), Json::from(fr.counters.injected)),
                ("detected".into(), Json::from(fr.counters.detected)),
                ("retried".into(), Json::from(fr.counters.retried)),
                (
                    "retry_exhausted".into(),
                    Json::from(fr.counters.retry_exhausted),
                ),
                ("escaped".into(), Json::from(fr.counters.escaped)),
                ("failovers".into(), Json::from(fr.counters.failovers)),
                (
                    "dropped_prefetch".into(),
                    Json::from(fr.counters.dropped_prefetch),
                ),
                ("degraded_ns".into(), Json::from(fr.degraded.as_ns_f64())),
                ("probes".into(), Json::from(fr.counters.probes)),
                ("failbacks".into(), Json::from(fr.counters.failbacks)),
                ("reissued".into(), Json::from(fr.counters.reissued)),
                ("scrub_reads".into(), Json::from(fr.counters.scrub_reads)),
                (
                    "scrub_rewrites".into(),
                    Json::from(fr.counters.scrub_rewrites),
                ),
                (
                    "silent".into(),
                    Json::Obj(vec![
                        (
                            "poisoned_lines".into(),
                            Json::from(fr.silent.poisoned_lines),
                        ),
                        (
                            "demand_consumed".into(),
                            Json::from(fr.silent.demand_consumed),
                        ),
                        (
                            "scrubbed_clean".into(),
                            Json::from(fr.silent.scrubbed_clean),
                        ),
                    ]),
                ),
            ]),
        ));
    }
    fields.push(("latency_stages".to_string(), r.profile.to_json()));
    if let Some(tel) = &r.telemetry {
        fields.push(("metrics".to_string(), tel.registry.to_json()));
        if let Some(sampler) = &tel.sampler {
            fields.push(("series".to_string(), sampler.to_json(&tel.registry)));
        }
    }
    // Host-side observability: wall time, per-phase breakdown,
    // throughput and build provenance. Always present; wall-clock
    // fields are the one nondeterministic part of the document, so
    // byte-comparing consumers strip this key.
    fields.push(("host".to_string(), r.host.to_json()));
    Json::Obj(fields)
}

const CSV_HEADER: &str =
    "workload,system,ipc_sum,bandwidth_gbps,avg_latency_ns,p50_ns,p95_ns,p99_ns,\
     demand_reads,prefetch_reads,writes,amb_hits,coverage,efficiency,act_pre,col_accesses,\
     energy_total_nj,avg_power_w";

fn report(workload: &Workload, system: &str, r: &RunResult, csv: bool) {
    let ipc_sum: f64 = r.ipcs().iter().sum();
    if csv {
        println!(
            "{},{},{:.4},{:.3},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{:.4},{:.4},{},{},{:.1},{:.3}",
            workload.name(),
            system,
            ipc_sum,
            r.bandwidth_gbps(),
            r.avg_read_latency_ns(),
            r.read_latency_percentile_ns(0.50),
            r.read_latency_percentile_ns(0.95),
            r.read_latency_percentile_ns(0.99),
            r.mem.demand_reads,
            r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads,
            r.mem.writes,
            r.mem.amb_hits,
            r.mem.prefetch_coverage(),
            r.mem.prefetch_efficiency(),
            r.mem.dram_ops.act_pre,
            r.mem.dram_ops.col_total(),
            r.energy.total_nj(),
            r.energy.avg_power_w(),
        );
    } else {
        println!("{} on {}:", workload.name(), system);
        println!("  IPC sum            {ipc_sum:.3}");
        println!("  bandwidth          {:.2} GB/s", r.bandwidth_gbps());
        println!(
            "  read latency       avg {:.1} / p50 {:.0} / p95 {:.0} / p99 {:.0} ns",
            r.avg_read_latency_ns(),
            r.read_latency_percentile_ns(0.50),
            r.read_latency_percentile_ns(0.95),
            r.read_latency_percentile_ns(0.99)
        );
        println!(
            "  traffic            {} demand reads, {} prefetch reads, {} writes",
            r.mem.demand_reads,
            r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads,
            r.mem.writes
        );
        if r.mem.amb_hits > 0 || r.mem.lines_prefetched > 0 {
            println!(
                "  AMB prefetching    {} hits, coverage {:.1}%, efficiency {:.1}%",
                r.mem.amb_hits,
                r.mem.prefetch_coverage() * 100.0,
                r.mem.prefetch_efficiency() * 100.0
            );
        }
        println!(
            "  DRAM operations    {} ACT/PRE, {} column accesses",
            r.mem.dram_ops.act_pre,
            r.mem.dram_ops.col_total()
        );
        println!(
            "  energy             {:.2} µJ total ({:.2} W avg), {:.0}% DRAM background",
            r.energy.total_nj() / 1_000.0,
            r.energy.avg_power_w(),
            r.energy.background_fraction() * 100.0
        );
        if let Some(fr) = &r.faults {
            println!(
                "  channel faults     {} injected, {} retried, {} exhausted, {} failovers, \
                 {} prefetch drops",
                fr.counters.injected,
                fr.counters.retried,
                fr.counters.retry_exhausted,
                fr.counters.failovers,
                fr.counters.dropped_prefetch
            );
            if fr.counters.failovers > 0 {
                println!(
                    "                     degraded-width residency {:.1} µs",
                    fr.degraded.as_ns_f64() / 1_000.0
                );
            }
            if fr.counters.escaped > 0 || fr.silent.any() {
                println!(
                    "  silent errors      {} CRC escapes, {} poisoned lines at end, \
                     {} demand reads consumed one, {} scrubbed clean",
                    fr.counters.escaped,
                    fr.silent.poisoned_lines,
                    fr.silent.demand_consumed,
                    fr.silent.scrubbed_clean
                );
            }
            if fr.counters.scrub_reads > 0 {
                println!(
                    "  patrol scrubbing   {} verify reads, {} rewrites",
                    fr.counters.scrub_reads, fr.counters.scrub_rewrites
                );
            }
            if fr.counters.probes > 0 || fr.counters.failbacks > 0 {
                println!(
                    "  lane fail-back     {} probes, {} fail-backs",
                    fr.counters.probes, fr.counters.failbacks
                );
            }
            if fr.counters.reissued > 0 {
                println!(
                    "  prefetch re-issue  {} dropped returns re-fetched",
                    fr.counters.reissued
                );
            }
        }
        if r.host.enabled {
            let mut top: Vec<(&str, Duration)> = r
                .host
                .phases
                .iter()
                .filter(|(_, d)| !d.is_zero())
                .map(|&(l, d)| (l, d))
                .collect();
            top.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
            let top: Vec<String> = top
                .iter()
                .take(2)
                .map(|(l, d)| {
                    format!(
                        "{l} {:.0}%",
                        100.0 * d.as_secs_f64() / r.host.wall.as_secs_f64().max(1e-12)
                    )
                })
                .collect();
            println!(
                "  host               {} wall, {}cyc/s, {}instr/s ({})",
                fmt_duration(r.host.wall),
                si(r.host.cycles_per_sec()),
                si(r.host.instr_per_sec()),
                top.join(", ")
            );
        }
        println!();
    }
}

fn cmd_list() -> ExitCode {
    let names: Vec<&str> = substrates().names().collect();
    println!("systems: {}", names.join(" "));
    println!();
    println!("workloads:");
    for w in all_workloads() {
        let names: Vec<&str> = w.benchmarks().iter().map(|b| b.name).collect();
        println!(
            "  {:<12} {} core(s): {}",
            w.name(),
            w.cores(),
            names.join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// Prints every registered substrate with its timing spec and the key
/// Table-2 parameters, in registration order.
fn cmd_list_substrates() -> ExitCode {
    println!("substrates (select with --substrate or its alias --system):");
    for (name, sub) in substrates().iter() {
        let cfg = sub.config();
        let t = &cfg.timings;
        println!("  {:<10} {}", name, sub.description());
        println!(
            "             {} @ {:.0} MT/s, tCL {:.2} / tRCD {:.2} / tRP {:.2} ns, \
             {} channel(s) x {} DIMM(s)",
            sub.timing_spec(),
            cfg.data_rate.mega_transfers(),
            t.t_cl.as_ns_f64(),
            t.t_rcd.as_ns_f64(),
            t.t_rp.as_ns_f64(),
            cfg.logical_channels,
            cfg.dimms_per_channel,
        );
    }
    ExitCode::SUCCESS
}

/// Prints every registered scheduling policy, in registration order.
fn cmd_list_schedulers() -> ExitCode {
    println!("schedulers (select with --scheduler on run/compare/sweep):");
    for (name, spec) in schedulers().iter() {
        println!("  {:<10} {}", name, spec.description());
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("run", args) {
        return code;
    }
    let Some(wname) = args.get("workload") else {
        return usage();
    };
    let (sname, flag) = match substrate_arg(args, None) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Some(workload) = find_workload(wname) else {
        eprintln!("unknown workload `{wname}` (try `fbdsim list`)");
        return ExitCode::from(2);
    };
    let spec = match resolve(args, sname, flag, workload.cores()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (exp, faults) = match (experiment(args), fault_options(args)) {
        (Ok(e), Ok(f)) => (e, f),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let fidelity = match fidelity_options(args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    // `auto` degenerates to accurate for a single point: the point is
    // its own Pareto frontier, so it would be re-run accurately anyway.
    let fast = fidelity == Fidelity::Fast;
    if fast && faults.is_some() {
        eprintln!("--fault-* and reliability options require --fidelity accurate");
        return ExitCode::from(2);
    }
    if fast && args.get("trace-out").is_some() {
        eprintln!("--trace-out requires --fidelity accurate");
        return ExitCode::from(2);
    }
    let mut spec = spec.with_workload(workload.clone()).experiment(exp);
    if let Some(fc) = faults {
        spec.system_mut().mem.faults = fc;
    }
    let clock = spec.system().mem.data_rate.clock_period();
    let mut telemetry = match telemetry_options(args, spec.system()) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // `--live` needs a terminal on stderr; otherwise it is silently
    // inert, so piped output stays byte-identical to a run without it.
    // The dashboard's throughput meter rides on the epoch sampler, so
    // a live run without an explicit cadence gets the default one.
    let live = args.has_flag("live") && std::io::stderr().is_terminal();
    if live
        && telemetry
            .as_ref()
            .is_none_or(|t| t.sample_interval.is_none())
    {
        let t = telemetry.get_or_insert(TelemetryConfig {
            sample_interval: None,
            trace: false,
        });
        t.sample_interval = Some(clock * LIVE_SAMPLE_CYCLES);
    }
    let csv = args.has_flag("csv");
    let json_stdout = args.has_flag("json");
    if let Some(tc) = &telemetry {
        spec = spec.telemetry(*tc);
    }
    let profiler = Arc::new(HostProfiler::enabled());
    spec = spec.host_profiler(Arc::clone(&profiler));
    let live_state = live.then(|| LiveState::new(workload.name(), 1, clock));
    if let Some(state) = &live_state {
        state.register(sname, profiler);
        spec = spec.sample_observer(state.observer());
    }
    let dashboard = live_state
        .as_ref()
        .map(|s| LiveDashboard::start(Arc::clone(s)));
    let calibration = if fast {
        match calibrate(&spec) {
            Ok(c) => Some(c),
            Err(e) => {
                if let Some(d) = dashboard {
                    d.finish();
                }
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let run = match &calibration {
        Some(cal) => spec.try_run_fast(cal),
        None => spec.try_run(),
    };
    if let Some(d) = dashboard {
        d.finish();
    }
    let r = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The fast document carries its provenance: the fidelity tag and
    // the calibration's held-out error bounds. An accurate run's
    // document is identical whether the system was selected with
    // `--system` or `--substrate`.
    let doc = || {
        let Json::Obj(mut fields) = stats_document(&workload, sname, &spec, &r) else {
            unreachable!("stats_document always returns an object");
        };
        if let Some(cal) = &calibration {
            fields.push(("fidelity".into(), Json::from(Fidelity::Fast.label())));
            fields.push(("calibration".into(), calibration_json(cal)));
        }
        Json::Obj(fields)
    };
    if json_stdout {
        println!("{}", doc().to_json());
    } else {
        if csv {
            println!("{CSV_HEADER}");
        }
        if let Some(cal) = &calibration {
            println!(
                "fast fidelity: calibrated analytic model, held-out mean IPC error {:.1}% \
                 (max {:.1}%)",
                cal.report.ipc.mean_rel * 100.0,
                cal.report.ipc.max_rel * 100.0
            );
        }
        report(&workload, sname, &r, csv);
    }
    if let Some(path) = args.get("stats-json") {
        if let Err(e) = std::fs::write(path, doc().to_json_pretty(2)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = args.get("trace-out") {
        let Some(tracer) = r.telemetry.as_ref().and_then(|t| t.tracer.as_ref()) else {
            eprintln!("internal error: --trace-out ran without a tracer");
            return ExitCode::FAILURE;
        };
        let doc = tracer.to_chrome_trace().to_json_pretty(1);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.has_flag("timeline") {
        println!(
            "bandwidth over time ({} epochs):",
            r.mem.bandwidth_series.epoch()
        );
        for (i, gbps) in r.mem.bandwidth_series.series_gbps().iter().enumerate() {
            let bar = "#".repeat((gbps * 2.0).round() as usize);
            println!("  {:>5} µs  {gbps:>6.2} GB/s  {bar}", i);
        }
    }
    ExitCode::SUCCESS
}

/// One row of the per-stage attribution table.
fn stage_row(label: &str, h: &LogHistogram, e2e_total_ns: f64) -> String {
    let share = if e2e_total_ns > 0.0 {
        100.0 * h.total_ns() / e2e_total_ns
    } else {
        0.0
    };
    format!(
        "    {label:<12} {:>12.1} {:>9.2} {:>8.1} {:>8.1} {share:>6.1}%",
        h.total_ns(),
        h.mean_ns(),
        h.percentile(0.50).as_ns_f64(),
        h.percentile(0.99).as_ns_f64(),
    )
}

/// Runs one workload and prints the stage-resolved latency attribution:
/// per request class, where every nanosecond of read and write latency
/// went.
fn cmd_profile(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("profile", args) {
        return code;
    }
    let Some(wname) = args.get("workload") else {
        return usage();
    };
    let (sname, flag) = match substrate_arg(args, Some("fbd-ap")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Some(workload) = find_workload(wname) else {
        eprintln!("unknown workload `{wname}` (try `fbdsim list`)");
        return ExitCode::from(2);
    };
    let spec = match resolve(args, sname, flag, workload.cores()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (exp, faults) = match (experiment(args), fault_options(args)) {
        (Ok(e), Ok(f)) => (e, f),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let mut spec = spec
        .with_workload(workload.clone())
        .experiment(exp)
        .host_profiler(Arc::new(HostProfiler::enabled()));
    if let Some(fc) = faults {
        spec.system_mut().mem.faults = fc;
    }
    let r = match spec.try_run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let p = &r.profile;
    if args.has_flag("json") {
        println!("{}", stats_document(&workload, sname, &spec, &r).to_json());
    } else {
        println!("latency attribution for {} on {}:", workload.name(), sname);
        let reads = p.reads();
        let matched = reads - p.mismatches();
        let pct = if reads > 0 {
            100.0 * matched as f64 / reads as f64
        } else {
            100.0
        };
        println!(
            "  stage sums match end-to-end latency for {pct:.1}% of reads ({matched}/{reads})"
        );
        let writes = p.writes();
        let wmatched = writes - p.write_mismatches();
        let wpct = if writes > 0 {
            100.0 * wmatched as f64 / writes as f64
        } else {
            100.0
        };
        println!(
            "  stage sums match end-to-end latency for {wpct:.1}% of writes ({wmatched}/{writes})"
        );
        println!();
        for class in REQ_CLASSES {
            let e2e = p.end_to_end(class);
            if e2e.is_empty() {
                continue;
            }
            println!(
                "  {} ({} {})  e2e mean {:.1} / p50 {:.0} / p90 {:.0} / p99 {:.0} / max {:.0} ns",
                class.label(),
                e2e.count(),
                if class.is_write() { "writes" } else { "reads" },
                e2e.mean_ns(),
                e2e.percentile(0.50).as_ns_f64(),
                e2e.percentile(0.90).as_ns_f64(),
                e2e.percentile(0.99).as_ns_f64(),
                e2e.max().as_ns_f64(),
            );
            println!(
                "    {:<12} {:>12} {:>9} {:>8} {:>8} {:>7}",
                "stage", "total ns", "mean ns", "p50 ns", "p99 ns", "share"
            );
            // Skip only stages with no recorded events: a stage whose
            // share rounds to 0.0% (e.g. `retry` on a clean channel)
            // still prints when its event count is nonzero.
            for stage in STAGES {
                let h = p.stage(class, stage);
                if h.is_empty() {
                    continue;
                }
                println!("{}", stage_row(stage.label(), h, e2e.total_ns()));
            }
            println!();
        }
    }
    if let Some(path) = args.get("folded-out") {
        if let Err(e) = std::fs::write(path, p.to_folded()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = args.get("stats-json") {
        let doc = stats_document(&workload, sname, &spec, &r);
        if let Err(e) = std::fs::write(path, doc.to_json_pretty(2)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Emits the statistics a grid command (`compare`/`sweep`) collected:
/// one JSON document whose `points` array holds the full per-run stats
/// document (including the energy breakdown) for every grid point.
/// When the fast model ran, the top-level `calibration` object records
/// the fitted parameters and held-out error bounds.
fn emit_grid(
    args: &Args,
    cmd: &str,
    workload: &Workload,
    points: Vec<Json>,
    calibration: Option<&Calibration>,
    host: Json,
) -> ExitCode {
    let mut fields = vec![
        ("command".to_string(), Json::from(cmd)),
        ("workload".to_string(), Json::from(workload.name())),
    ];
    if let Some(cal) = calibration {
        fields.push(("calibration".to_string(), calibration_json(cal)));
    }
    fields.push(("host".to_string(), host));
    fields.push(("points".to_string(), Json::Arr(points)));
    let doc = Json::Obj(fields);
    if args.has_flag("json") {
        println!("{}", doc.to_json());
    }
    if let Some(path) = args.get("stats-json") {
        if let Err(e) = std::fs::write(path, doc.to_json_pretty(2)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The grid-level `host` object on `compare`/`sweep` documents: the
/// whole command's wall time and aggregate simulation throughput plus
/// build provenance. Per-point phase breakdowns live in each point's
/// own `host` object.
fn session_host_json(start: Instant, results: &[RunResult]) -> Json {
    let wall = start.elapsed().as_secs_f64();
    let cycles: u64 = results.iter().map(|r| r.host.sim_cycles).sum();
    let instructions: u64 = results.iter().map(|r| r.host.instructions).sum();
    let per_sec = |n: u64| {
        if wall > 0.0 {
            n as f64 / wall
        } else {
            0.0
        }
    };
    let mut fields = vec![
        ("wall_s".to_string(), Json::from(wall)),
        ("sim_cycles".to_string(), Json::from(cycles)),
        ("instructions".to_string(), Json::from(instructions)),
        ("cycles_per_sec".to_string(), Json::from(per_sec(cycles))),
        (
            "instr_per_sec".to_string(),
            Json::from(per_sec(instructions)),
        ),
    ];
    if let Some(rss) = fbd_telemetry::host::peak_rss_bytes() {
        fields.push(("peak_rss_bytes".to_string(), Json::from(rss)));
    }
    fields.push(("build".to_string(), fbd_core::build_info().to_json()));
    Json::Obj(fields)
}

/// Resolves `--live` for the grid commands: active only when stderr is
/// a terminal, otherwise silently inert (output byte-identical). The
/// dashboard converts simulated time to cycles with the first grid
/// point's memory clock.
fn live_state_for(
    args: &Args,
    workload: &Workload,
    grid: &[(String, RunSpec)],
) -> Option<Arc<LiveState>> {
    if !(args.has_flag("live") && std::io::stderr().is_terminal()) {
        return None;
    }
    let clock = grid
        .first()
        .map_or(DataRate::MTS667.clock_period(), |(_, spec)| {
            spec.system().mem.data_rate.clock_period()
        });
    Some(LiveState::new(workload.name(), grid.len(), clock))
}

fn cmd_compare(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("compare", args) {
        return code;
    }
    let session_start = Instant::now();
    let Some(wname) = args.get("workload") else {
        return usage();
    };
    let Some(workload) = find_workload(wname) else {
        eprintln!("unknown workload `{wname}` (try `fbdsim list`)");
        return ExitCode::from(2);
    };
    let (exp, faults) = match (experiment(args), fault_options(args)) {
        (Ok(e), Ok(f)) => (e, f),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let fidelity = match fidelity_options(args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if faults.is_some() && fidelity != Fidelity::Accurate {
        eprintln!("--fault-* and reliability options require --fidelity accurate");
        return ExitCode::from(2);
    }
    let csv = args.has_flag("csv");
    let want_stats = args.has_flag("json") || args.get("stats-json").is_some();
    let human = !args.has_flag("json");
    if csv && human {
        println!("{CSV_HEADER}");
    }
    // Every grid point is an independent simulation: run them across
    // all cores, then report strictly in grid order so the output stays
    // byte-for-byte deterministic. `--substrate a,b,c` replaces the
    // default paper grid.
    let (list, flag) = match substrate_arg(args, Some("ddr2,fbd,fbd-ap,fbd-apfl")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut grid = Vec::new();
    for sname in list.split(',').map(str::trim) {
        let mut spec = match resolve(args, sname, flag, workload.cores()) {
            Ok(s) => s.with_workload(workload.clone()).experiment(exp),
            Err(code) => return code,
        };
        if let Some(fc) = faults {
            spec.system_mut().mem.faults = fc;
        }
        grid.push((sname.to_string(), spec));
    }
    let live_state = live_state_for(args, &workload, &grid);
    let dashboard = live_state
        .as_ref()
        .map(|s| LiveDashboard::start(Arc::clone(s)));
    let run = run_grid(&grid, fidelity, live_state.as_ref());
    if let Some(d) = dashboard {
        d.finish();
    }
    let (results, tags, calibration) = match run {
        Ok(x) => x,
        Err(code) => return code,
    };
    let host = session_host_json(session_start, &results);
    let points = grid_points(
        &grid, &results, &tags, fidelity, &workload, human, csv, want_stats,
    );
    emit_grid(
        args,
        "compare",
        &workload,
        points,
        calibration.as_deref(),
        host,
    )
}

/// Reports every grid point in order and collects the per-point stats
/// documents (when requested). Points are tagged with the fidelity they
/// ran at whenever the fast model was involved; a plain accurate grid
/// stays byte-identical to previous releases.
#[allow(clippy::too_many_arguments)]
fn grid_points(
    grid: &[(String, RunSpec)],
    results: &[RunResult],
    tags: &[Fidelity],
    fidelity: Fidelity,
    workload: &Workload,
    human: bool,
    csv: bool,
    want_stats: bool,
) -> Vec<Json> {
    let mut points = Vec::new();
    for (((label, spec), r), tag) in grid.iter().zip(results).zip(tags) {
        if human {
            report(workload, label, r, csv);
        }
        if !want_stats {
            continue;
        }
        let Json::Obj(mut fields) = stats_document(workload, label, spec, r) else {
            unreachable!("stats_document always returns an object");
        };
        if fidelity != Fidelity::Accurate {
            fields.push(("fidelity".into(), Json::from(tag.label())));
        }
        points.push(Json::Obj(fields));
    }
    points
}

fn cmd_sweep(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("sweep", args) {
        return code;
    }
    let session_start = Instant::now();
    let (Some(wname), Some(knob)) = (args.get("workload"), args.get("knob")) else {
        return usage();
    };
    let Some(workload) = find_workload(wname) else {
        eprintln!("unknown workload `{wname}` (try `fbdsim list`)");
        return ExitCode::from(2);
    };
    let (exp, faults) = match (experiment(args), fault_options(args)) {
        (Ok(e), Ok(f)) => (e, f),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let fidelity = match fidelity_options(args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if faults.is_some() && fidelity != Fidelity::Accurate {
        eprintln!("--fault-* and reliability options require --fidelity accurate");
        return ExitCode::from(2);
    }
    let csv = args.has_flag("csv");
    let want_stats = args.has_flag("json") || args.get("stats-json").is_some();
    let human = !args.has_flag("json");
    if csv && human {
        println!("{CSV_HEADER}");
    }
    // `--substrate` re-bases the sweep on any registered preset; the
    // default is the paper's fbd-ap system.
    let (base_name, flag) = match substrate_arg(args, Some("fbd-ap")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut base = match resolve(args, base_name, flag, workload.cores()) {
        Ok(s) => s.with_workload(workload.clone()).experiment(exp),
        Err(code) => return code,
    };
    if let Some(fc) = faults {
        base.system_mut().mem.faults = fc;
    }
    let Some(points) = sweep_points(knob, base_name, *base.system()) else {
        eprintln!("unknown knob `{knob}` (k|entries|assoc|channels|rate|grid)");
        return ExitCode::from(2);
    };
    let grid: Vec<(String, RunSpec)> = points
        .into_iter()
        .map(|(label, cfg)| {
            let mut spec = base.clone();
            *spec.system_mut() = cfg;
            (label, spec)
        })
        .collect();
    let live_state = live_state_for(args, &workload, &grid);
    let dashboard = live_state
        .as_ref()
        .map(|s| LiveDashboard::start(Arc::clone(s)));
    let run = run_grid(&grid, fidelity, live_state.as_ref());
    if let Some(d) = dashboard {
        d.finish();
    }
    let (results, tags, calibration) = match run {
        Ok(x) => x,
        Err(code) => return code,
    };
    let host = session_host_json(session_start, &results);
    let docs = grid_points(
        &grid, &results, &tags, fidelity, &workload, human, csv, want_stats,
    );
    emit_grid(args, "sweep", &workload, docs, calibration.as_deref(), host)
}

/// The labeled configuration grid a `sweep` knob expands to, or `None`
/// for an unknown knob. Labels carry the base substrate's name. The
/// `grid` knob is the 64-point cross product (entries × channels × k ×
/// rate) the auto-fidelity Pareto search is built for.
fn sweep_points(knob: &str, name: &str, base: SystemConfig) -> Option<Vec<(String, SystemConfig)>> {
    let points: Vec<(String, SystemConfig)> = match knob {
        "k" => [2u32, 4, 8]
            .iter()
            .map(|&k| {
                let mut c = base;
                c.mem.amb.region_lines = k;
                c.mem.interleaving = Interleaving::MultiCacheline { lines: k };
                (format!("{name}/k={k}"), c)
            })
            .collect(),
        "entries" => [32u32, 64, 128]
            .iter()
            .map(|&e| {
                let mut c = base;
                c.mem.amb.cache_lines = e;
                (format!("{name}/entries={e}"), c)
            })
            .collect(),
        "assoc" => vec![
            ("direct", Associativity::Direct),
            ("2way", Associativity::Ways(2)),
            ("4way", Associativity::Ways(4)),
            ("full", Associativity::Full),
        ]
        .into_iter()
        .map(|(l, a)| {
            let mut c = base;
            c.mem.amb.associativity = a;
            (format!("{name}/{l}"), c)
        })
        .collect(),
        "channels" => [1u32, 2, 4]
            .iter()
            .map(|&n| {
                let mut c = base;
                c.mem.logical_channels = n;
                (format!("{name}/{n}ch"), c)
            })
            .collect(),
        "rate" => [
            ("533", DataRate::MTS533),
            ("667", DataRate::MTS667),
            ("800", DataRate::MTS800),
        ]
        .iter()
        .map(|&(l, r)| {
            let mut c = base;
            c.mem.data_rate = r;
            (format!("{name}/{l}MT"), c)
        })
        .collect(),
        "grid" => {
            let mut pts = Vec::new();
            for &entries in &[32u32, 64, 128, 256] {
                for &channels in &[1u32, 2, 4, 8] {
                    for &k in &[2u32, 4] {
                        for &(label, rate) in
                            &[("667", DataRate::MTS667), ("800", DataRate::MTS800)]
                        {
                            let mut c = base;
                            c.mem.amb.cache_lines = entries;
                            c.mem.amb.region_lines = k;
                            c.mem.interleaving = Interleaving::MultiCacheline { lines: k };
                            c.mem.logical_channels = channels;
                            c.mem.data_rate = rate;
                            pts.push((format!("{name}/e{entries}-{channels}ch-k{k}-{label}MT"), c));
                        }
                    }
                }
            }
            pts
        }
        _ => return None,
    };
    Some(points)
}

fn cmd_record(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("record", args) {
        return code;
    }
    let (Some(wname), Some(out)) = (args.get("workload"), args.get("out")) else {
        return usage();
    };
    let (sname, flag) = match substrate_arg(args, None) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Some(workload) = find_workload(wname) else {
        eprintln!("unknown workload `{wname}` (try `fbdsim list`)");
        return ExitCode::from(2);
    };
    let spec = match resolve(args, sname, flag, workload.cores()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // Record the raw access stream: no L2 warm-up, so the trace starts
    // at the first transaction (matching the historical behavior of
    // `System::new`).
    let mut exp = match experiment(args) {
        Ok(e) => e,
        Err(code) => return code,
    };
    exp.warmup = fbd_core::Warmup::Ops(0);
    let result = match spec
        .with_workload(workload.clone())
        .experiment(exp)
        .capture_trace()
        .try_run()
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(trace) = result.trace else {
        eprintln!("internal error: record ran without trace capture");
        return ExitCode::FAILURE;
    };
    let mut file = match std::fs::File::create(out) {
        Ok(f) => std::io::BufWriter::new(f),
        Err(e) => {
            eprintln!("cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = trace.to_csv(&mut file) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "recorded {} transactions from {} on {} to {}",
        trace.len(),
        workload.name(),
        sname,
        out
    );
    ExitCode::SUCCESS
}

fn cmd_replay(args: &Args) -> ExitCode {
    if let Err(code) = validate_args("replay", args) {
        return code;
    }
    let Some(path) = args.get("trace") else {
        return usage();
    };
    let (sname, flag) = match substrate_arg(args, None) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let spec = match resolve(args, sname, flag, 1) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => std::io::BufReader::new(f),
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Malformed input is the user's to fix, like any other bad
    // argument: report the offending line and exit 2.
    let trace = match fbd_core::MemoryTrace::from_csv(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let result = fbd_core::replay(&spec.system().mem, &trace);
    println!("replayed {} transactions on {}:", trace.len(), sname);
    println!(
        "  finished at        {:.2} µs",
        result.finished.as_ns_f64() / 1_000.0
    );
    println!("  bandwidth          {:.2} GB/s", result.bandwidth_gbps());
    println!(
        "  read latency       avg {:.1} ns",
        result
            .mem
            .read_latency
            .mean()
            .map_or(0.0, |d| d.as_ns_f64())
    );
    println!(
        "  DRAM operations    {} ACT/PRE, {} column accesses",
        result.mem.dram_ops.act_pre,
        result.mem.dram_ops.col_total()
    );
    if result.mem.amb_hits > 0 {
        println!(
            "  AMB prefetching    {} hits, coverage {:.1}%",
            result.mem.amb_hits,
            result.mem.prefetch_coverage() * 100.0
        );
    }
    println!(
        "  energy             {:.2} µJ total ({:.2} W avg)",
        result.energy.total_nj() / 1_000.0,
        result.energy.avg_power_w()
    );
    ExitCode::SUCCESS
}

/// Prints build provenance: crate version, git SHA, rustc and profile
/// (the same `build` object every stats JSON document embeds).
fn cmd_version() -> ExitCode {
    let b = fbd_core::build_info();
    println!(
        "fbdsim {} ({}, {}, {} profile)",
        b.version, b.git_sha, b.rustc, b.profile
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let Some(args) = Args::parse(&argv[1..]) else {
        return usage();
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => help(),
        "version" | "--version" | "-V" => cmd_version(),
        "list" => cmd_list(),
        "list-substrates" => cmd_list_substrates(),
        "list-schedulers" => cmd_list_schedulers(),
        "run" => cmd_run(&args),
        "profile" => cmd_profile(&args),
        "compare" => cmd_compare(&args),
        "sweep" => cmd_sweep(&args),
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Option<Args> {
        let v: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&v)
    }

    /// The spec `fbdsim` resolves for `args` on substrate `name`.
    fn spec(args: &[&str], name: &str) -> Result<RunSpec, ExitCode> {
        resolve(&parse(args).unwrap(), name, "substrate", 1)
    }

    fn fbd_ap() -> SystemConfig {
        *spec(&[], "fbd-ap").unwrap().system()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let args = parse(&["--workload", "1C-swim", "--csv", "--budget", "1000"]).unwrap();
        assert_eq!(args.get("workload"), Some("1C-swim"));
        assert_eq!(args.get("budget"), Some("1000"));
        assert!(args.has_flag("csv"));
        assert!(!args.has_flag("timeline"));
        assert_eq!(args.get("missing"), None);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(parse(&["stray"]).is_none());
        assert!(parse(&["--ok", "v", "stray"]).is_none());
    }

    #[test]
    fn trailing_flag_parses() {
        let args = parse(&["--csv"]).unwrap();
        assert!(args.has_flag("csv"));
    }

    #[test]
    fn workloads_and_systems_resolve() {
        assert!(find_workload("1C-swim").is_some());
        assert!(find_workload("4C-1").is_some());
        assert!(find_workload("9C-1").is_none());
        // Every registered substrate resolves, including the extension
        // entries that exist only in the registry.
        for s in ["ddr2", "fbd", "fbd-ap", "fbd-apfl", "fbd-ddr3", "ddr3-1066"] {
            spec(&[], s).unwrap().validate().unwrap();
        }
        assert!(spec(&[], "ddr5").is_err());
    }

    #[test]
    fn scheduler_flag_resolves_against_the_registry() {
        // Absent means the paper's hit-first policy.
        let comp = spec(&["--workload", "1C-swim"], "fbd")
            .unwrap()
            .composition();
        assert_eq!(comp.scheduler, "hit-first");
        for name in ["hit-first", "fcfs"] {
            let comp = spec(&["--scheduler", name], "fbd").unwrap().composition();
            assert_eq!(comp.scheduler, name);
        }
        // Unknown names and a bare flag are usage errors.
        assert!(spec(&["--scheduler", "round-robin"], "fbd").is_err());
        assert!(validate_args("run", &parse(&["--scheduler"]).unwrap()).is_err());
    }

    #[test]
    fn composition_metadata_reflects_the_selection() {
        let mut s = spec(&["--scheduler", "fcfs"], "fbd-ap").unwrap();
        let comp = s.composition();
        assert_eq!(comp.substrate, "fbd-ap");
        assert_eq!(comp.scheduler, "fcfs");
        // The substrate label survives a config edit (e.g. fault
        // injection) that makes the config diverge from the preset.
        s.system_mut().mem.faults.ber = 1e-6;
        assert_eq!(s.composition().substrate, "fbd-ap");
    }

    #[test]
    fn telemetry_flags_resolve() {
        let cfg = fbd_ap();
        // No telemetry flags: instrumentation stays off entirely.
        let args = parse(&["--workload", "1C-swim"]).unwrap();
        assert!(telemetry_options(&args, &cfg).unwrap().is_none());
        // `--trace-out` alone turns tracing on without sampling.
        let args = parse(&["--trace-out", "/tmp/t.json"]).unwrap();
        let tc = telemetry_options(&args, &cfg).unwrap().unwrap();
        assert!(tc.trace);
        assert!(tc.sample_interval.is_none());
        // `--sample-interval` is in memory-clock cycles.
        let args = parse(&["--sample-interval", "512"]).unwrap();
        let tc = telemetry_options(&args, &cfg).unwrap().unwrap();
        assert!(!tc.trace);
        assert_eq!(
            tc.sample_interval,
            Some(cfg.mem.data_rate.clock_period() * 512)
        );
    }

    #[test]
    fn telemetry_rejects_bad_sample_intervals() {
        let cfg = fbd_ap();
        for bad in ["0", "-5", "abc", "1.5"] {
            let args = parse(&["--sample-interval", bad]).unwrap();
            assert!(
                telemetry_options(&args, &cfg).is_err(),
                "interval `{bad}` must be rejected"
            );
        }
        // A value-taking telemetry flag with no value is a usage error,
        // not a silent no-op.
        for flag in ["--stats-json", "--trace-out", "--sample-interval"] {
            let args = parse(&[flag, "--csv"]).unwrap();
            assert!(
                validate_args("run", &args).is_err(),
                "bare {flag} must be rejected"
            );
        }
    }

    #[test]
    fn stats_document_matches_run_result() {
        let workload = find_workload("1C-swim").unwrap();
        let exp = ExperimentConfig {
            budget: 20_000,
            ..ExperimentConfig::default()
        };
        let base = spec(&[], "fbd-ap")
            .unwrap()
            .with_workload(workload.clone())
            .experiment(exp);
        let cfg = *base.system();
        let tc = TelemetryConfig {
            sample_interval: Some(cfg.mem.data_rate.clock_period() * 512),
            trace: true,
        };
        let r = base.clone().telemetry(tc).run();
        let doc = stats_document(&workload, "fbd-ap", &base, &r);
        // The document round-trips through its own writer and parser.
        let parsed = fbd_telemetry::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("1C-swim")
        );
        // The composition object names every pluggable part.
        let c = parsed.get("composition").expect("composition present");
        assert_eq!(c.get("substrate").and_then(Json::as_str), Some("fbd-ap"));
        assert_eq!(c.get("scheduler").and_then(Json::as_str), Some("hit-first"));
        assert_eq!(c.get("mapper").and_then(Json::as_str), Some("interleaved"));
        assert_eq!(c.get("refresh").and_then(Json::as_str), Some("none"));
        // Summed channel bandwidth agrees with the scalar headline.
        let chans = parsed.get("channels").and_then(Json::as_array).unwrap();
        assert_eq!(chans.len(), cfg.mem.logical_channels as usize);
        let reads: f64 = chans
            .iter()
            .map(|c| c.get("reads").and_then(Json::as_f64).unwrap())
            .sum();
        let all_reads = r.mem.demand_reads + r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads;
        assert_eq!(reads as u64, all_reads);
        // Latency, prefetch, and DRAM operation fields mirror MemStats.
        let lat = parsed.get("read_latency").unwrap();
        assert_eq!(
            lat.get("count").and_then(Json::as_f64),
            Some(r.mem.demand_reads as f64)
        );
        let mean = lat.get("mean_ns").and_then(Json::as_f64).unwrap();
        assert!((mean - r.avg_read_latency_ns()).abs() < 1e-6);
        let pf = parsed.get("prefetch").unwrap();
        assert_eq!(
            pf.get("amb_hits").and_then(Json::as_f64),
            Some(r.mem.amb_hits as f64)
        );
        let dram = parsed.get("dram").unwrap();
        assert_eq!(
            dram.get("act_pre").and_then(Json::as_f64),
            Some(r.mem.dram_ops.act_pre as f64)
        );
        // The energy object is always present and internally consistent:
        // the five components sum to the reported total.
        let energy = parsed.get("energy").unwrap();
        let component_sum: f64 = [
            "activation_nj",
            "burst_nj",
            "refresh_nj",
            "background_nj",
            "amb_nj",
        ]
        .iter()
        .map(|k| energy.get(k).and_then(Json::as_f64).unwrap())
        .sum();
        let total = energy.get("total_nj").and_then(Json::as_f64).unwrap();
        assert!((component_sum - total).abs() < 1e-6 * total.max(1.0));
        assert!(total > 0.0);
        assert!(energy.get("avg_power_w").and_then(Json::as_f64).unwrap() > 0.0);
        // The active IDD current set is named (fbd-ap runs DDR2-667).
        assert_eq!(
            energy.get("current_set").and_then(Json::as_str),
            Some("micron_ddr2_667")
        );
        // The latency attribution is always present: its read count
        // covers every read class and no read violated the stage-sum
        // invariant.
        let stages = parsed.get("latency_stages").unwrap();
        assert_eq!(
            stages.get("reads").and_then(Json::as_f64),
            Some(all_reads as f64)
        );
        assert_eq!(stages.get("mismatches").and_then(Json::as_f64), Some(0.0));
        // The write attribution mirrors the read side: every retired
        // write is stamped and none violated the stage-sum invariant.
        let writes = stages.get("writes").expect("writes object present");
        assert_eq!(
            writes.get("count").and_then(Json::as_f64),
            Some(r.mem.writes as f64)
        );
        assert_eq!(writes.get("mismatches").and_then(Json::as_f64), Some(0.0));
        // Telemetry ran, so the registry and time-series are attached.
        assert!(parsed.get("metrics").is_some());
        assert!(parsed.get("series").is_some());
        // Without telemetry those sections are absent.
        let bare = base.run();
        let doc = stats_document(&workload, "fbd-ap", &base, &bare);
        assert!(doc.get("metrics").is_none());
        assert!(doc.get("series").is_none());
    }

    #[test]
    fn unknown_options_are_usage_errors_on_every_subcommand() {
        let bogus = parse(&["--workload", "1C-swim", "--bogus", "x"]).unwrap();
        for cmd in SYSTEM {
            assert!(validate_args(cmd, &bogus).is_err(), "{cmd}");
        }
        let stray_flag = parse(&["--workload", "1C-swim", "--timeline"]).unwrap();
        assert!(validate_args("compare", &stray_flag).is_err());
        // A value-taking option with no value, and a boolean flag given
        // a value, are both rejected.
        let bare = parse(&["--workload"]).unwrap();
        assert!(validate_args("compare", &bare).is_err());
        let flag_with_value = parse(&["--csv", "yes"]).unwrap();
        assert!(validate_args("compare", &flag_with_value).is_err());
        // The happy path stays accepted.
        let ok = parse(&["--workload", "1C-swim", "--csv", "--stats-json", "s.json"]).unwrap();
        assert!(validate_args("compare", &ok).is_ok());
        // Both spellings of the system option are accepted wherever a
        // system is selected.
        for flag in ["--substrate", "--system"] {
            let args = parse(&[flag, "fbd"]).unwrap();
            for cmd in SYSTEM {
                assert!(validate_args(cmd, &args).is_ok(), "{cmd} {flag}");
            }
        }
    }

    #[test]
    fn experiment_flags_override_defaults() {
        let args = parse(&["--budget", "123", "--seed", "9"]).unwrap();
        let exp = experiment(&args).unwrap();
        assert_eq!(exp.budget, 123);
        assert_eq!(exp.seed, 9);
        // Bad numbers are usage errors, not silent defaults.
        for bad in [
            &["--budget", "abc"][..],
            &["--budget", "0"],
            &["--budget", "-5"],
            &["--seed", "x"],
        ] {
            assert!(experiment(&parse(bad).unwrap()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fault_flags_resolve() {
        // No fault flags: injection stays off entirely.
        let args = parse(&["--workload", "1C-swim"]).unwrap();
        assert!(fault_options(&args).unwrap().is_none());
        // --fault-ber alone uses the seed/mode defaults.
        let args = parse(&["--fault-ber", "1e-6"]).unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc.ber, 1e-6);
        assert_eq!(fc.seed, FaultConfig::off().seed);
        assert_eq!(fc.mode, FaultMode::Ber);
        assert!(fc.is_active());
        // All three spelled out.
        let args = parse(&[
            "--fault-ber",
            "0.001",
            "--fault-seed",
            "7",
            "--fault-mode",
            "stuck-lane",
        ])
        .unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!((fc.ber, fc.seed, fc.mode), (0.001, 7, FaultMode::StuckLane));
        // `--fault-ber 0` explicitly disables injection (still Some so
        // it overrides a preset, but inactive).
        let args = parse(&["--fault-ber", "0"]).unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert!(!fc.is_active());
    }

    #[test]
    fn reliability_flags_resolve() {
        // `--scrub patrol` stands alone: clean-channel scrubbing needs
        // no error process.
        let args = parse(&["--scrub", "patrol"]).unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc.scrub, ScrubPolicyKind::Patrol);
        assert!(!fc.is_active());
        assert!(fc.recovery_active());
        assert_eq!(fc.scrub_interval_ns, FaultConfig::off().scrub_interval_ns);
        // `--scrub none` is an explicit off: Some so it overrides a
        // preset, but the zero-cost path stays selected.
        let args = parse(&["--scrub", "none"]).unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc, FaultConfig::off());
        assert!(!fc.recovery_active());
        // The interval rides on patrol.
        let args = parse(&["--scrub", "patrol", "--scrub-interval-ns", "250"]).unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc.scrub_interval_ns, 250);
        // The full lifecycle spelled out on one error process.
        let args = parse(&[
            "--fault-ber",
            "1e-5",
            "--crc-bits",
            "8",
            "--scrub",
            "patrol",
            "--failback",
            "2000",
            "--reissue",
            "8",
        ])
        .unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc.crc_bits, 8);
        assert_eq!(fc.scrub, ScrubPolicyKind::Patrol);
        assert_eq!(fc.failback_quiet_ns, 2000);
        assert!(fc.failback_enabled());
        assert_eq!(fc.reissue_budget, 8);
        assert!(fc.recovery_active());
        fc.validate().unwrap();
        // Explicit zeros keep the configuration byte-identical to the
        // defaults (the parity contract for the off spellings).
        let args = parse(&[
            "--fault-ber",
            "0",
            "--crc-bits",
            "0",
            "--failback",
            "0",
            "--reissue",
            "0",
        ])
        .unwrap();
        let fc = fault_options(&args).unwrap().unwrap();
        assert_eq!(fc, FaultConfig::off());
    }

    #[test]
    fn reliability_flags_reject_bad_values() {
        for bad in [
            // Unknown or malformed values.
            &["--fault-ber", "1e-6", "--crc-bits", "65"][..],
            &["--fault-ber", "1e-6", "--crc-bits", "-1"],
            &["--fault-ber", "1e-6", "--crc-bits", "x"],
            &["--scrub", "demand"],
            &["--scrub", "patrol", "--scrub-interval-ns", "0"],
            &["--scrub", "patrol", "--scrub-interval-ns", "abc"],
            &["--fault-ber", "1e-6", "--failback", "-3"],
            &["--fault-ber", "1e-6", "--reissue", "many"],
            // Detection/recovery shaping without an error process.
            &["--crc-bits", "8"],
            &["--failback", "2000"],
            &["--reissue", "8"],
            // The patrol rate limit without patrol.
            &["--scrub-interval-ns", "250"],
            &["--scrub", "none", "--scrub-interval-ns", "250"],
        ] {
            let args = parse(bad).unwrap();
            assert!(fault_options(&args).is_err(), "{bad:?} must be rejected");
        }
        // Bare value-taking reliability flags are usage errors.
        for flag in [
            "--crc-bits",
            "--scrub",
            "--scrub-interval-ns",
            "--failback",
            "--reissue",
        ] {
            let args = parse(&[flag]).unwrap();
            assert!(
                validate_args("run", &args).is_err(),
                "bare {flag} must be rejected"
            );
        }
    }

    #[test]
    fn fidelity_flags_resolve() {
        // Absent means the cycle-accurate default.
        let args = parse(&["--workload", "1C-swim"]).unwrap();
        assert_eq!(fidelity_options(&args).unwrap(), Fidelity::Accurate);
        for (v, f) in [
            ("accurate", Fidelity::Accurate),
            ("fast", Fidelity::Fast),
            ("auto", Fidelity::Auto),
        ] {
            let args = parse(&["--fidelity", v]).unwrap();
            assert_eq!(fidelity_options(&args).unwrap(), f, "{v}");
        }
        // Unknown modes and a bare flag are usage errors.
        let args = parse(&["--fidelity", "quick"]).unwrap();
        assert!(fidelity_options(&args).is_err());
        let args = parse(&["--fidelity"]).unwrap();
        assert!(validate_args("run", &args).is_err());
    }

    #[test]
    fn sweep_grid_knob_expands_to_64_valid_points() {
        let base = fbd_ap();
        let points = sweep_points("grid", "fbd-ap", base).unwrap();
        assert_eq!(points.len(), 64);
        let labels: std::collections::HashSet<&str> =
            points.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), 64, "labels must be unique");
        for (label, cfg) in &points {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(label.starts_with("fbd-ap/"), "{label}");
        }
        // The single-knob sweeps still expand, and typos stay rejected.
        assert_eq!(sweep_points("k", "fbd-ap", base).unwrap().len(), 3);
        assert!(sweep_points("voltage", "fbd-ap", base).is_none());
    }

    #[test]
    fn fault_flags_reject_bad_values() {
        for bad in [
            &["--fault-ber", "nope"][..],
            &["--fault-ber", "-0.1"],
            &["--fault-ber", "1.5"],
            &["--fault-ber", "inf"],
            &["--fault-ber", "nan"],
            &["--fault-ber", "1e-6", "--fault-seed", "x"],
            &["--fault-ber", "1e-6", "--fault-mode", "cosmic"],
            // Dependent flags without the rate are a usage error.
            &["--fault-seed", "7"],
            &["--fault-mode", "burst"],
        ] {
            let args = parse(bad).unwrap();
            assert!(fault_options(&args).is_err(), "{bad:?} must be rejected");
        }
        // A bare value-taking fault flag is a usage error.
        let args = parse(&["--fault-ber"]).unwrap();
        assert!(validate_args("run", &args).is_err());
    }
}

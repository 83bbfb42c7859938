//! Experiment helpers: the [`RunSpec`] builder, reference IPCs and the
//! SMT speedup metric (paper §4.2).
//!
//! A run is described by one [`RunSpec`] — system configuration,
//! workload and run-control parameters — built fluently and executed
//! with [`RunSpec::run`]:
//!
//! ```
//! use fbd_core::RunSpec;
//!
//! let result = RunSpec::paper_default(1)
//!     .workload("1C-swim")
//!     .budget(20_000)
//!     .seed(7)
//!     .run();
//! assert!(result.elapsed.as_ns_f64() > 0.0);
//! ```
//!
//! `SMT speedup = Σ IPC_cmp[i] / IPC_single[i]`, where the reference
//! `IPC_single[i]` is the program's IPC alone on a single-core reference
//! system. The bench harness computes one reference set per figure, as
//! the paper does (Figure 4 references single-core DDR2 at the default
//! channel count; Figure 7 references two-channel DDR2).

use std::collections::HashMap;
use std::sync::Arc;

use fbd_telemetry::host::{HostHandle, HostProfiler, Phase};
use fbd_telemetry::{SampleObserver, TelemetryConfig};
use fbd_types::config::{AmbPrefetchConfig, Interleaving, MemoryConfig, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_types::ConfigError;
use fbd_workloads::Workload;

use crate::compose::Composition;
use crate::system::{RunResult, System};

/// Warm-up snapshots computed earlier in this process, keyed by every
/// input `warm_l2` depends on (trace identity and position, L2
/// geometry, software-prefetch replay). Warm-up is a pure function of
/// that key, so restoring a snapshot is byte-identical to replaying
/// it — and sweeps, benches and overhead trials re-warm the same CPU
/// dozens of times otherwise. Bounded: each entry holds an L2 image
/// (~1–4 MiB), and a linear scan over ≤ [`WARM_CACHE_CAP`] entries is
/// cheaper than hashing setup.
static WARM_CACHE: std::sync::Mutex<Vec<(u64, fbd_cpu::WarmState)>> =
    std::sync::Mutex::new(Vec::new());

/// At most this many cached warm-ups; later distinct configurations
/// simply run their warm-up uncached.
const WARM_CACHE_CAP: usize = 8;

fn warm_key(workload: &str, seed: u64, ops: u64, cpu: &fbd_types::config::CpuConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (
        workload,
        seed,
        ops,
        cpu.l2_bytes,
        cpu.l2_ways,
        cpu.cores,
        cpu.software_prefetch,
    )
        .hash(&mut h);
    h.finish()
}

/// L2 warm-up policy for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Warmup {
    /// No warm-up (cold caches).
    None,
    /// Fast-forward enough trace operations to fill the shared L2
    /// roughly twice over (split across cores).
    #[default]
    Auto,
    /// Exactly this many operations per core.
    Ops(u64),
}

/// Run-control parameters shared by every experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Seed for the deterministic workload generators.
    pub seed: u64,
    /// Instructions each core must commit (the run stops when the first
    /// core gets there).
    pub budget: u64,
    /// L2 warm-up before measurement.
    pub warmup: Warmup,
}

impl ExperimentConfig {
    /// Defaults: seed 42, automatic L2 warm-up and the instruction
    /// budget from [`default_budget`] (internal; [`RunSpec`]'s
    /// constructors use this).
    fn env_default() -> ExperimentConfig {
        ExperimentConfig {
            budget: default_budget(),
            ..ExperimentConfig::default()
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            budget: 300_000,
            warmup: Warmup::Auto,
        }
    }
}

/// The per-core instruction budget benches run with.
///
/// The paper simulates 100 M-instruction SimPoints; that is hours of
/// wall-clock across 27 workloads × many configurations, so benches
/// default to 300k instructions (results are stable well before that).
/// Set `FBD_BUDGET=<n>` to override, or `FBD_PAPER_MODE=1` for 2M.
pub fn default_budget() -> u64 {
    if let Ok(v) = std::env::var("FBD_BUDGET") {
        if let Ok(n) = v.parse::<u64>() {
            return n.max(1);
        }
    }
    match std::env::var("FBD_PAPER_MODE") {
        Ok(v) if v == "1" => 2_000_000,
        _ => 300_000,
    }
}

/// Complete specification of one simulation run: the system
/// configuration, the workload, run-control parameters and optional
/// instrumentation, built fluently and executed with [`run`](Self::run).
///
/// Replaces the ad-hoc `(SystemConfig, Workload, ExperimentConfig)`
/// triple that used to travel through `run_workload`.
#[derive(Clone, Debug)]
pub struct RunSpec {
    system: SystemConfig,
    workload: Option<Workload>,
    exp: ExperimentConfig,
    telemetry: Option<TelemetryConfig>,
    capture_trace: bool,
    overrides: CompositionOverrides,
    host: Option<Arc<HostProfiler>>,
    observer: SampleObserver,
}

/// Registry names explicitly selected on a [`RunSpec`], overriding
/// whatever [`Composition::from_config`] would infer from the system
/// configuration. Names are validated when set, so resolution at run
/// time cannot fail.
#[derive(Clone, Debug, Default)]
struct CompositionOverrides {
    substrate: Option<String>,
    scheduler: Option<String>,
}

impl RunSpec {
    /// A spec for an explicit system configuration, with environment
    /// defaults for run control (seed 42, [`default_budget`], automatic
    /// L2 warm-up) and no workload yet.
    pub fn new(system: SystemConfig) -> RunSpec {
        RunSpec {
            system,
            workload: None,
            exp: ExperimentConfig::env_default(),
            telemetry: None,
            capture_trace: false,
            overrides: CompositionOverrides::default(),
            host: None,
            observer: SampleObserver::none(),
        }
    }

    /// The paper's default FB-DIMM system with `cores` cores (see
    /// [`SystemConfig::paper_default`]), environment-default run
    /// control.
    pub fn paper_default(cores: u32) -> RunSpec {
        RunSpec::new(SystemConfig::paper_default(cores))
    }

    /// Selects one of the paper's workloads by name (`1C-swim`, `4C-2`,
    /// …) and adjusts the system's core count to match it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name; use
    /// [`try_workload`](Self::try_workload) for fallible resolution.
    pub fn workload(self, name: &str) -> RunSpec {
        self.try_workload(name)
            .unwrap_or_else(|e| panic!("{e} (see `fbd_workloads::paper_workloads`)"))
    }

    /// Like [`workload`](Self::workload), but returns an error message
    /// instead of panicking on an unknown name (for CLI front-ends).
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown name.
    pub fn try_workload(mut self, name: &str) -> Result<RunSpec, String> {
        let w = fbd_workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        self.system.cpu.cores = w.cores();
        self.workload = Some(w);
        Ok(self)
    }

    /// Uses an explicit [`Workload`]. Unlike [`workload`](Self::workload)
    /// this does *not* touch the system's core count; [`run`](Self::run)
    /// asserts that they match.
    pub fn with_workload(mut self, workload: Workload) -> RunSpec {
        self.workload = Some(workload);
        self
    }

    /// Replaces the system configuration (core count and all). Clears
    /// any substrate selected earlier — the new configuration speaks
    /// for itself.
    pub fn with_system(mut self, system: SystemConfig) -> RunSpec {
        self.system = system;
        self.overrides.substrate = None;
        self
    }

    /// Replaces just the memory subsystem, keeping the processor side.
    /// Clears any substrate selected earlier.
    pub fn memory(mut self, mem: MemoryConfig) -> RunSpec {
        self.system.mem = mem;
        self.overrides.substrate = None;
        self
    }

    /// Selects a registered substrate by name: replaces the memory
    /// configuration with the substrate's preset and records the name
    /// for the run's composition metadata.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name; use
    /// [`try_substrate`](Self::try_substrate) for fallible resolution.
    pub fn substrate(self, name: &str) -> RunSpec {
        self.try_substrate(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`substrate`](Self::substrate), but returns an error
    /// message instead of panicking (for CLI front-ends).
    ///
    /// # Errors
    ///
    /// Returns a description listing the registered names.
    pub fn try_substrate(mut self, name: &str) -> Result<RunSpec, String> {
        let s = substrates().get(name).ok_or_else(|| {
            format!(
                "unknown substrate `{name}` (available: {})",
                substrates().available()
            )
        })?;
        self.system.mem = s.config();
        self.overrides.substrate = Some(name.to_owned());
        Ok(self)
    }

    /// Selects a registered scheduling policy by name for every
    /// channel (the default is `hit-first`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name; use
    /// [`try_scheduler`](Self::try_scheduler) for fallible resolution.
    pub fn scheduler(self, name: &str) -> RunSpec {
        self.try_scheduler(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`scheduler`](Self::scheduler), but returns an error
    /// message instead of panicking (for CLI front-ends).
    ///
    /// # Errors
    ///
    /// Returns a description listing the registered names.
    pub fn try_scheduler(mut self, name: &str) -> Result<RunSpec, String> {
        if fbd_ctrl::schedulers().get(name).is_none() {
            return Err(format!(
                "unknown scheduler `{name}` (available: {})",
                fbd_ctrl::schedulers().available()
            ));
        }
        self.overrides.scheduler = Some(name.to_owned());
        Ok(self)
    }

    /// The composition this spec would run: inferred from the system
    /// configuration ([`Composition::from_config`]), with any names
    /// selected via [`substrate`](Self::substrate) /
    /// [`scheduler`](Self::scheduler) taking precedence.
    pub fn composition(&self) -> Composition {
        let mut comp = Composition::from_config(&self.system.mem);
        if let Some(s) = &self.overrides.substrate {
            comp.substrate.clone_from(s);
        }
        if let Some(s) = &self.overrides.scheduler {
            comp.scheduler.clone_from(s);
        }
        comp
    }

    /// Turns AMB prefetching on (the paper's default prefetcher with
    /// the matching 4-line interleaving) or off (plain FB-DIMM,
    /// cacheline interleaving) without touching the rest of the memory
    /// configuration.
    pub fn with_prefetch(mut self, enabled: bool) -> RunSpec {
        if enabled {
            self.system.mem.amb = AmbPrefetchConfig::paper_default();
            self.system.mem.interleaving = Interleaving::MultiCacheline { lines: 4 };
        } else {
            self.system.mem.amb = AmbPrefetchConfig::off();
            self.system.mem.interleaving = Interleaving::Cacheline;
        }
        // The modified config may no longer match the selected preset;
        // let from_config re-derive the substrate name by equality.
        self.overrides.substrate = None;
        self
    }

    /// Sets the per-core instruction budget.
    pub fn budget(mut self, budget: u64) -> RunSpec {
        self.exp.budget = budget;
        self
    }

    /// Sets the workload-generator seed.
    pub fn seed(mut self, seed: u64) -> RunSpec {
        self.exp.seed = seed;
        self
    }

    /// Sets the L2 warm-up policy.
    pub fn warmup(mut self, warmup: Warmup) -> RunSpec {
        self.exp.warmup = warmup;
        self
    }

    /// Replaces the whole run-control block (budget, seed, warm-up).
    pub fn experiment(mut self, exp: ExperimentConfig) -> RunSpec {
        self.exp = exp;
        self
    }

    /// Enables telemetry collection (metric registry, optional epoch
    /// sampling and event tracing) for the run.
    pub fn telemetry(mut self, config: TelemetryConfig) -> RunSpec {
        self.telemetry = Some(config);
        self
    }

    /// Records every transaction handed to the memory controller; the
    /// trace comes back in [`RunResult::trace`].
    pub fn capture_trace(mut self) -> RunSpec {
        self.capture_trace = true;
        self
    }

    /// Attaches a host-side profiler: the run marks its wall-clock
    /// phases and hot-loop counters into it and
    /// [`RunResult::host`](crate::RunResult) carries the report.
    /// The profiler is shared so a live dashboard can read it mid-run.
    /// Like telemetry, this observes the run without changing its
    /// simulated result (it is excluded from
    /// [`canonical_key`](Self::canonical_key)).
    pub fn host_profiler(mut self, profiler: Arc<HostProfiler>) -> RunSpec {
        self.host = Some(profiler);
        self
    }

    /// Attaches a [`SampleObserver`] notified with every epoch-sampler
    /// row; only meaningful when [`telemetry`](Self::telemetry) enables
    /// sampling. Excluded from the canonical key like all
    /// instrumentation.
    pub fn sample_observer(mut self, observer: SampleObserver) -> RunSpec {
        self.observer = observer;
        self
    }

    /// The system configuration this spec would run.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Mutable access to the system configuration, for knob sweeps that
    /// tweak one field between runs.
    pub fn system_mut(&mut self) -> &mut SystemConfig {
        &mut self.system
    }

    /// The run-control parameters this spec would run with.
    pub fn exp(&self) -> &ExperimentConfig {
        &self.exp
    }

    /// The selected workload, if one has been set.
    pub fn workload_ref(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// The instrumentation this spec would run with (crate-internal;
    /// the fast fidelity mirrors it onto synthesized results).
    pub(crate) fn telemetry_config(&self) -> Option<&TelemetryConfig> {
        self.telemetry.as_ref()
    }

    /// The attached host profiler, if any (crate-internal; the fast
    /// fidelity charges its model time into it).
    pub(crate) fn host_profiler_ref(&self) -> Option<&Arc<HostProfiler>> {
        self.host.as_ref()
    }

    /// Canonical text serialization of the spec's *semantic* fields —
    /// the system configuration, workload and run control that
    /// determine the simulation result. Instrumentation (telemetry,
    /// trace capture) is excluded: it observes a run without changing
    /// it. Field order is fixed by the type definitions, so two specs
    /// describing the same run serialize identically no matter in
    /// which order their builders were called.
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(1024);
        let _ = write!(key, "system={:?};", self.system);
        match &self.workload {
            Some(w) => {
                let names: Vec<&str> = w.benchmarks().iter().map(|b| b.name).collect();
                let _ = write!(key, "workload={}[{}];", w.name(), names.join(","));
            }
            None => key.push_str("workload=none;"),
        }
        let _ = write!(
            key,
            "seed={};budget={};warmup={:?}",
            self.exp.seed, self.exp.budget, self.exp.warmup
        );
        // The scheduler name is semantic: a different policy is a
        // different run. The substrate label is not — the system
        // configuration above already pins everything a substrate
        // selects, refresh included.
        let _ = write!(key, ";scheduler={}", self.composition().scheduler);
        key
    }

    /// FNV-1a hash of [`canonical_key`](Self::canonical_key) — keys
    /// the calibration cache (and the future result cache): any
    /// semantic field change produces a different hash, while
    /// builder-call order and instrumentation do not.
    pub fn canonical_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut h = OFFSET;
        for b in self.canonical_key().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Validates the spec's system configuration (timings, geometry,
    /// prefetch parameters, fault-injection parameters).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration trips.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate()
    }

    /// Like [`run`](Self::run), but returns a diagnostic instead of
    /// panicking on a missing workload, a core-count mismatch or an
    /// invalid configuration — the form CLI front-ends consume.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn try_run(&self) -> Result<RunResult, String> {
        self.validate().map_err(|e| e.to_string())?;
        let workload = self
            .workload
            .as_ref()
            .ok_or("no workload selected; call .workload()/.with_workload() first")?;
        if self.system.cpu.cores != workload.cores() {
            return Err(format!(
                "system has {} cores but workload {} needs {}",
                self.system.cpu.cores,
                workload.name(),
                workload.cores()
            ));
        }
        Ok(self.run())
    }

    /// Runs the L2 warm-up, restoring it from [`WARM_CACHE`] when an
    /// identical warm-up already ran in this process (see the cache's
    /// doc comment for why restoring is byte-identical to replaying).
    fn run_warmup(&self, sys: &mut System, ops: u64, workload: &str) {
        if ops == 0 {
            sys.warm(0);
            return;
        }
        let key = warm_key(workload, self.exp.seed, ops, &self.system.cpu);
        {
            let cache = WARM_CACHE.lock().unwrap();
            if let Some((_, state)) = cache.iter().find(|(k, _)| *k == key) {
                if sys.warm_restore(state) {
                    return;
                }
            }
        }
        sys.warm(ops);
        if let Some(snap) = sys.warm_snapshot() {
            let mut cache = WARM_CACHE.lock().unwrap();
            if cache.len() < WARM_CACHE_CAP && !cache.iter().any(|(k, _)| *k == key) {
                cache.push((key, snap));
            }
        }
    }

    /// Executes the run.
    ///
    /// # Panics
    ///
    /// Panics if no workload was selected, if the system's core count
    /// does not match the workload's, or if the configuration is
    /// invalid.
    pub fn run(&self) -> RunResult {
        let workload = self
            .workload
            .as_ref()
            .expect("RunSpec has no workload; call .workload()/.with_workload() first");
        assert_eq!(
            self.system.cpu.cores,
            workload.cores(),
            "core count must match workload {}",
            workload.name()
        );
        let traces = workload.traces(self.exp.seed);
        let warmup_ops = match self.exp.warmup {
            Warmup::None => 0,
            Warmup::Auto => {
                let l2_lines = u64::from(self.system.cpu.l2_bytes) / fbd_types::CACHE_LINE_BYTES;
                2 * l2_lines / u64::from(self.system.cpu.cores)
            }
            Warmup::Ops(n) => n,
        };
        let comp = self.composition();
        let host = self
            .host
            .as_ref()
            .map_or_else(HostHandle::off, |p| HostHandle::new(Arc::clone(p)));
        let mut sys = System::composed(&self.system, traces, self.exp.budget, &comp)
            .unwrap_or_else(|e| panic!("{e}"));
        host.mark(Phase::Setup);
        self.run_warmup(&mut sys, warmup_ops, workload.name());
        host.mark(Phase::Warmup);
        sys.set_host_profiler(host);
        if let Some(tc) = &self.telemetry {
            sys.enable_telemetry(tc);
        }
        if self.observer.is_attached() {
            sys.set_sample_observer(self.observer.clone());
        }
        if self.capture_trace {
            sys.enable_trace_capture();
        }
        sys.run()
    }
}

/// Computes each benchmark's single-core reference IPC on `ref_cfg`
/// (which must be a 1-core configuration). Returns name → IPC.
///
/// # Panics
///
/// Panics if `ref_cfg` is not single-core.
pub fn reference_ipcs(
    ref_cfg: &SystemConfig,
    benchmarks: &[&str],
    exp: &ExperimentConfig,
) -> HashMap<String, f64> {
    assert_eq!(ref_cfg.cpu.cores, 1, "reference runs are single-core");
    benchmarks
        .iter()
        .map(|name| {
            let w = Workload::new(format!("1C-{name}"), &[name]);
            let result = RunSpec::new(*ref_cfg)
                .with_workload(w)
                .experiment(*exp)
                .run();
            (name.to_string(), result.cores[0].ipc())
        })
        .collect()
}

/// The paper's SMT-speedup metric for one run.
///
/// # Panics
///
/// Panics if a benchmark of the workload has no reference IPC.
pub fn smt_speedup(
    workload: &Workload,
    result: &RunResult,
    references: &HashMap<String, f64>,
) -> f64 {
    workload
        .benchmarks()
        .iter()
        .zip(&result.cores)
        .map(|(bench, stats)| {
            let reference = references
                .get(bench.name)
                .unwrap_or_else(|| panic!("no reference IPC for {}", bench.name));
            stats.ipc() / reference
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::stats::{CoreStats, MemStats};
    use fbd_types::time::Dur;

    fn fake_result(ipcs: &[f64]) -> RunResult {
        RunResult {
            elapsed: Dur::from_ns(1_000),
            cores: ipcs
                .iter()
                .map(|&ipc| CoreStats {
                    instructions: (ipc * 1000.0) as u64,
                    cycles: 1000,
                    l2_misses: 0,
                    l2_accesses: 0,
                })
                .collect(),
            mem: MemStats::default(),
            channels: Vec::new(),
            energy: fbd_power::EnergyReport::default(),
            profile: Default::default(),
            faults: None,
            trace: None,
            telemetry: None,
            host: Default::default(),
        }
    }

    #[test]
    fn smt_speedup_sums_per_core_ratios() {
        let w = Workload::new("2C-x", &["swim", "parser"]);
        let refs: HashMap<String, f64> = [("swim".to_string(), 0.5), ("parser".to_string(), 1.0)]
            .into_iter()
            .collect();
        let r = fake_result(&[1.0, 0.5]);
        // 1.0/0.5 + 0.5/1.0 = 2.5.
        let s = smt_speedup(&w, &r, &refs);
        assert!((s - 2.5).abs() < 1e-9, "{s}");
    }

    #[test]
    #[should_panic(expected = "no reference IPC")]
    fn smt_speedup_requires_references() {
        let w = Workload::new("1C-swim", &["swim"]);
        let r = fake_result(&[1.0]);
        let _ = smt_speedup(&w, &r, &HashMap::new());
    }

    #[test]
    #[should_panic(expected = "single-core")]
    fn reference_ipcs_rejects_multicore_config() {
        let cfg = fbd_types::config::SystemConfig::paper_default(2);
        let _ = reference_ipcs(&cfg, &["swim"], &ExperimentConfig::default());
    }

    #[test]
    #[should_panic(expected = "core count must match")]
    fn run_spec_rejects_core_mismatch() {
        let cfg = fbd_types::config::SystemConfig::paper_default(2);
        let w = Workload::new("1C-swim", &["swim"]);
        let _ = RunSpec::new(cfg).with_workload(w).run();
    }

    #[test]
    #[should_panic(expected = "no workload")]
    fn run_spec_requires_a_workload() {
        let _ = RunSpec::paper_default(1).run();
    }

    #[test]
    fn run_spec_workload_syncs_core_count() {
        let spec = RunSpec::paper_default(1).workload("4C-1");
        assert_eq!(spec.system().cpu.cores, 4);
        assert_eq!(spec.workload_ref().unwrap().name(), "4C-1");
        assert!(RunSpec::paper_default(1).try_workload("nope").is_err());
    }

    #[test]
    fn run_spec_prefetch_toggle_mirrors_presets() {
        use fbd_types::config::MemoryConfig;
        let on = RunSpec::paper_default(1).with_prefetch(true);
        assert_eq!(on.system().mem, MemoryConfig::fbdimm_with_prefetch());
        let off = on.with_prefetch(false);
        assert_eq!(off.system().mem, MemoryConfig::fbdimm_default());
    }

    #[test]
    fn try_run_reports_problems_instead_of_panicking() {
        let err = RunSpec::paper_default(1).try_run().unwrap_err();
        assert!(err.contains("no workload"), "{err}");
        let cfg = fbd_types::config::SystemConfig::paper_default(2);
        let w = Workload::new("1C-swim", &["swim"]);
        let err = RunSpec::new(cfg).with_workload(w).try_run().unwrap_err();
        assert!(err.contains("cores"), "{err}");
        let mut spec = RunSpec::paper_default(1).workload("1C-swim");
        spec.system_mut().mem.faults.ber = 2.0;
        let err = spec.try_run().unwrap_err();
        assert!(err.contains("faults.ber"), "{err}");
        assert!(spec.validate().is_err());
    }

    #[test]
    fn budget_env_parsing() {
        // No env manipulation (tests run in parallel): just check the
        // default path returns something positive.
        assert!(default_budget() >= 1);
    }
}

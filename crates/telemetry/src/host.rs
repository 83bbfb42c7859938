//! Host-side self-profiling: where the *simulator process* spends its
//! wall-clock time, how fast the hot loop runs, and what it allocates.
//!
//! Everything else in this crate observes the *simulated* hardware;
//! this module observes the host. A [`HostProfiler`] accumulates
//! wall-clock time into a small fixed set of [`Phase`]s, counts hot-loop
//! events ([`Counter`]), and is summarized into a [`HostReport`] —
//! the `host` object every stats JSON document carries (wall time,
//! simulated-cycles/sec, per-phase breakdown, peak RSS, build
//! provenance).
//!
//! # Attribution model
//!
//! The event loop calls [`HostProfiler::mark`] at phase boundaries; the
//! wall time since the previous mark is charged to the phase that just
//! *completed*. Because every instant since construction is between two
//! marks, the per-phase durations partition the run's wall time by
//! construction — the phase fractions sum to ~1.0, which is what lets
//! downstream tooling assert "the breakdown explains ≥95% of wall
//! time" instead of trusting it.
//!
//! # Cost model
//!
//! A disabled profiler (the default for library users; see
//! [`HostProfiler::disabled`]) reduces every `mark`/`bump` to one
//! relaxed atomic load and a predictable branch — no timestamps are
//! taken. An enabled profiler takes one monotonic-clock read per mark.
//! Accumulators are relaxed [`AtomicU64`]s so the profiler is `Sync`
//! and a live dashboard on another thread can read it mid-run.
//!
//! # Examples
//!
//! ```
//! use fbd_telemetry::host::{HostProfiler, Phase};
//! use fbd_types::time::{DataRate, Dur};
//!
//! let prof = HostProfiler::enabled();
//! // ... do setup work ...
//! prof.mark(Phase::Setup);
//! // ... run the hot loop, marking phases ...
//! prof.mark(Phase::Controller);
//! let report = prof.report(Dur::from_ns(1_000_000), DataRate::MTS667.clock_period(), 300_000);
//! assert!(report.enabled);
//! assert!(report.phase_fraction_sum() > 0.95);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbd_types::time::Dur;

use crate::json::Json;

/// A wall-clock attribution bucket. The set is closed and small so the
/// accumulators are a fixed array of atomics (no allocation, no map
/// lookup on the hot path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Trace generation, system construction and instrumentation setup.
    Setup = 0,
    /// L2 warm-up (fast-forwarding traces through the cache model).
    Warmup = 1,
    /// Processor complex: trace advance, ROB/MSHR bookkeeping, fills.
    Cpu = 2,
    /// Memory-controller work: refresh management, queue scan and
    /// scheduling policy, event bookkeeping.
    Controller = 3,
    /// The issued transaction's datapath: FBD link frames, AMB cache
    /// and prefetch engine, and DRAM bank timing (these interleave per
    /// transaction, so they share one bucket; see DESIGN.md §15).
    Datapath = 4,
    /// Telemetry epoch snapshots.
    Telemetry = 5,
    /// The analytic fast-fidelity model (prediction + result
    /// synthesis); accurate runs never charge this phase.
    Model = 6,
    /// End-of-run collection: stats, energy report, final telemetry.
    Finish = 7,
    /// Everything outside the simulator itself: report formatting,
    /// JSON serialization, file I/O (charged by [`HostProfiler::report`]).
    Harness = 8,
}

/// All phases, in accumulator order; labels are the JSON keys.
pub const PHASES: [(Phase, &str); 9] = [
    (Phase::Setup, "setup"),
    (Phase::Warmup, "warmup"),
    (Phase::Cpu, "cpu"),
    (Phase::Controller, "controller"),
    (Phase::Datapath, "datapath"),
    (Phase::Telemetry, "telemetry"),
    (Phase::Model, "model"),
    (Phase::Finish, "finish"),
    (Phase::Harness, "harness"),
];

/// A monotonic hot-loop event counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Event-queue pops (loop iterations).
    Events = 0,
    /// Channel scheduling decisions executed.
    Decisions = 1,
    /// Requests retired at the controller (read + write completions).
    RequestsRetired = 2,
    /// DRAM device commands (ACT/PRE, column accesses, refreshes);
    /// collected from the device counters at run end.
    DramCommands = 3,
    /// Link frame transfers initiated (southbound commands + write
    /// data, northbound data returns), including retries.
    FramesSent = 4,
    /// Frames re-sent after a CRC-detected channel error (the retry
    /// subset of [`Counter::FramesSent`]); nonzero only under fault
    /// injection.
    Retries = 5,
    /// Same-instant reruns of a decision that were folded away instead
    /// of executed, because an earlier run at that instant issued
    /// nothing (see `System::run`); `decisions + decisions_collapsed`
    /// is the number of decision runs the event queue asked for.
    DecisionsCollapsed = 6,
    /// Queued transactions the scheduling policy classified (calls of
    /// its classify callback: AMB-tag lookup, then bank state). Added
    /// once per policy run; zero under a policy that ignores the
    /// classification, such as `fcfs`.
    CandidatesClassified = 7,
}

/// All counters, in accumulator order; labels are the JSON keys.
pub const COUNTERS: [(Counter, &str); 8] = [
    (Counter::Events, "events"),
    (Counter::Decisions, "decisions"),
    (Counter::RequestsRetired, "requests_retired"),
    (Counter::DramCommands, "dram_commands"),
    (Counter::FramesSent, "frames_sent"),
    (Counter::Retries, "link_retries"),
    (Counter::DecisionsCollapsed, "decisions_collapsed"),
    (Counter::CandidatesClassified, "candidates_classified"),
];

/// Low-overhead wall-clock phase timer + event counters for one run.
///
/// See the [module docs](self) for the attribution and cost model.
#[derive(Debug)]
pub struct HostProfiler {
    on: bool,
    origin: Instant,
    /// Nanoseconds since `origin` of the most recent mark.
    last_ns: AtomicU64,
    /// Calls into [`mark_sampled`](Self::mark_sampled) so far; only
    /// every [`MARK_STRIDE`]th takes a timestamp.
    mark_seq: AtomicU64,
    phases: [AtomicU64; PHASES.len()],
    counters: [AtomicU64; COUNTERS.len()],
    /// Global allocation count at construction (`alloc-count` builds).
    #[cfg(feature = "alloc-count")]
    alloc_base: u64,
    /// Allocation count when the run entered steady state
    /// (`u64::MAX` until [`note_steady_start`](Self::note_steady_start)).
    #[cfg(feature = "alloc-count")]
    steady_alloc_base: AtomicU64,
    /// Allocation count when the hot loop ended (`u64::MAX` until
    /// [`note_steady_end`](Self::note_steady_end)).
    #[cfg(feature = "alloc-count")]
    steady_alloc_end: AtomicU64,
}

/// Every `MARK_STRIDE`th [`HostProfiler::mark_sampled`] call takes a
/// real timestamp; the rest are one relaxed load + store. The whole
/// stride's wall time is charged to the phase of the sampling call, so
/// the per-phase attribution error is bounded by the duration of one
/// stride (~64 events, microseconds), while totals stay exact because
/// marks still partition the wall clock.
pub const MARK_STRIDE: u64 = 64;

impl HostProfiler {
    fn new(on: bool) -> HostProfiler {
        HostProfiler {
            on,
            origin: Instant::now(),
            last_ns: AtomicU64::new(0),
            mark_seq: AtomicU64::new(0),
            phases: Default::default(),
            counters: Default::default(),
            #[cfg(feature = "alloc-count")]
            alloc_base: alloc::allocations(),
            #[cfg(feature = "alloc-count")]
            steady_alloc_base: AtomicU64::new(u64::MAX),
            #[cfg(feature = "alloc-count")]
            steady_alloc_end: AtomicU64::new(u64::MAX),
        }
    }

    /// A profiler that records. Wall time is measured from this call.
    pub fn enabled() -> HostProfiler {
        HostProfiler::new(true)
    }

    /// A profiler whose `mark`/`bump` calls are a load-and-branch no-op
    /// — the "no subscriber attached" state the overhead bench
    /// certifies as free.
    pub fn disabled() -> HostProfiler {
        HostProfiler::new(false)
    }

    /// True when marks are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Charges the wall time since the previous mark (or construction)
    /// to `phase`.
    #[inline]
    pub fn mark(&self, phase: Phase) {
        if !self.on {
            return;
        }
        let now_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let prev = self.last_ns.swap(now_ns, Ordering::Relaxed);
        self.phases[phase as usize].fetch_add(now_ns.saturating_sub(prev), Ordering::Relaxed);
    }

    /// Stride-sampled [`mark`](Self::mark) for per-event hot paths:
    /// takes a real timestamp only every [`MARK_STRIDE`]th call, so an
    /// *enabled* profiler stops double-digit-percent-slowing the event
    /// loop. Marks are written by the single simulation thread, so the
    /// sequence counter is a relaxed load + store, not an RMW.
    #[inline]
    pub fn mark_sampled(&self, phase: Phase) {
        if !self.on {
            return;
        }
        let seq = self.mark_seq.load(Ordering::Relaxed).wrapping_add(1);
        self.mark_seq.store(seq, Ordering::Relaxed);
        if seq & (MARK_STRIDE - 1) == 0 {
            self.mark(phase);
        }
    }

    /// Opens a scoped span: when the returned guard drops, the wall
    /// time since the previous mark is charged to `phase`. Sugar over
    /// [`mark`](Self::mark) for straight-line code (setup, warmup,
    /// benches); the event loop calls `mark` directly to sidestep
    /// borrow interactions with `&mut self` methods.
    pub fn span(&self, phase: Phase) -> PhaseSpan<'_> {
        PhaseSpan {
            profiler: self,
            phase,
        }
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `n`. Counters are written by the single
    /// simulation thread (readers elsewhere only load), so this is a
    /// relaxed load + store rather than an atomic RMW.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if !self.on {
            return;
        }
        let c = &self.counters[counter as usize];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Overwrites `counter` with an externally collected total (used
    /// for counts the devices maintain themselves).
    pub fn set(&self, counter: Counter, value: u64) {
        if !self.on {
            return;
        }
        self.counters[counter as usize].store(value, Ordering::Relaxed);
    }

    /// Wall time since construction.
    pub fn wall(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Current value of `counter` (a live dashboard reads this mid-run).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Current accumulated time of `phase` (live-readable mid-run).
    pub fn phase(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.phases[phase as usize].load(Ordering::Relaxed))
    }

    /// Snapshot of every phase accumulator, in [`PHASES`] order.
    pub fn phase_snapshot(&self) -> [Duration; PHASES.len()] {
        let mut out = [Duration::ZERO; PHASES.len()];
        for (slot, acc) in out.iter_mut().zip(&self.phases) {
            *slot = Duration::from_nanos(acc.load(Ordering::Relaxed));
        }
        out
    }

    /// Closes the run: charges the tail since the last mark to
    /// [`Phase::Harness`] and summarizes everything into a
    /// [`HostReport`]. `sim_elapsed` is the run's simulated time,
    /// `clock_period` the memory-clock period (for simulated cycles),
    /// `instructions` the total instructions committed.
    pub fn report(&self, sim_elapsed: Dur, clock_period: Dur, instructions: u64) -> HostReport {
        self.mark(Phase::Harness);
        // Wall time is read back from the closing mark itself, so the
        // phase durations sum to the reported wall exactly.
        let wall = if self.on {
            Duration::from_nanos(self.last_ns.load(Ordering::Relaxed))
        } else {
            self.wall()
        };
        let phases = PHASES
            .iter()
            .map(|&(p, label)| (label, self.phase(p)))
            .collect();
        let counters = COUNTERS
            .iter()
            .map(|&(c, label)| (label, self.counter(c)))
            .collect();
        let sim_cycles = if clock_period.is_zero() {
            0
        } else {
            sim_elapsed.as_ps() / clock_period.as_ps()
        };
        HostReport {
            enabled: self.on,
            wall,
            phases,
            counters,
            sim_time: sim_elapsed,
            sim_cycles,
            instructions,
            peak_rss_bytes: peak_rss_bytes(),
            allocations: self.allocation_delta(),
            steady_allocations: self.steady_allocation_delta(),
            build: BuildInfo::default(),
        }
    }

    /// Marks the start of allocation steady state (called by the event
    /// loop once enough requests have retired that every pool and
    /// scratch buffer has reached its high-water mark). Idempotent; a
    /// no-op without the `alloc-count` feature.
    pub fn note_steady_start(&self) {
        #[cfg(feature = "alloc-count")]
        #[cfg(feature = "alloc-count")]
        let _ = self.steady_alloc_base.compare_exchange(
            u64::MAX,
            alloc::allocations(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Marks the end of the hot loop (before end-of-run stats
    /// collection, which legitimately allocates). Idempotent; a no-op
    /// without the `alloc-count` feature.
    pub fn note_steady_end(&self) {
        #[cfg(feature = "alloc-count")]
        #[cfg(feature = "alloc-count")]
        let _ = self.steady_alloc_end.compare_exchange(
            u64::MAX,
            alloc::allocations(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    #[cfg(feature = "alloc-count")]
    fn allocation_delta(&self) -> Option<u64> {
        Some(alloc::allocations().saturating_sub(self.alloc_base))
    }

    #[cfg(not(feature = "alloc-count"))]
    fn allocation_delta(&self) -> Option<u64> {
        None
    }

    #[cfg(feature = "alloc-count")]
    fn steady_allocation_delta(&self) -> Option<u64> {
        let base = self.steady_alloc_base.load(Ordering::Relaxed);
        if base == u64::MAX {
            return None;
        }
        let end = self.steady_alloc_end.load(Ordering::Relaxed);
        let end = if end == u64::MAX {
            alloc::allocations()
        } else {
            end
        };
        Some(end.saturating_sub(base))
    }

    #[cfg(not(feature = "alloc-count"))]
    fn steady_allocation_delta(&self) -> Option<u64> {
        None
    }
}

/// RAII guard from [`HostProfiler::span`]: charges the enclosed scope's
/// wall time to its phase on drop.
#[derive(Debug)]
pub struct PhaseSpan<'a> {
    profiler: &'a HostProfiler,
    phase: Phase,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        self.profiler.mark(self.phase);
    }
}

/// An optional shared [`HostProfiler`]: the simulator components hold
/// one of these and call straight through; when empty every call is a
/// branch on `None`.
#[derive(Clone, Debug, Default)]
pub struct HostHandle(Option<Arc<HostProfiler>>);

impl HostHandle {
    /// Wraps a shared profiler.
    pub fn new(profiler: Arc<HostProfiler>) -> HostHandle {
        HostHandle(Some(profiler))
    }

    /// A handle with no profiler attached (all calls no-ops).
    pub fn off() -> HostHandle {
        HostHandle(None)
    }

    /// The wrapped profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<HostProfiler>> {
        self.0.as_ref()
    }

    /// See [`HostProfiler::mark`].
    #[inline]
    pub fn mark(&self, phase: Phase) {
        if let Some(p) = &self.0 {
            p.mark(phase);
        }
    }

    /// See [`HostProfiler::mark_sampled`].
    #[inline]
    pub fn mark_sampled(&self, phase: Phase) {
        if let Some(p) = &self.0 {
            p.mark_sampled(phase);
        }
    }

    /// See [`HostProfiler::note_steady_start`].
    pub fn note_steady_start(&self) {
        if let Some(p) = &self.0 {
            p.note_steady_start();
        }
    }

    /// See [`HostProfiler::note_steady_end`].
    pub fn note_steady_end(&self) {
        if let Some(p) = &self.0 {
            p.note_steady_end();
        }
    }

    /// See [`HostProfiler::bump`].
    #[inline]
    pub fn bump(&self, counter: Counter) {
        if let Some(p) = &self.0 {
            p.bump(counter);
        }
    }

    /// See [`HostProfiler::add`].
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(p) = &self.0 {
            p.add(counter, n);
        }
    }

    /// See [`HostProfiler::set`].
    pub fn set(&self, counter: Counter, value: u64) {
        if let Some(p) = &self.0 {
            p.set(counter, value);
        }
    }

    /// Builds the run's [`HostReport`]; a default (disabled) report
    /// when no profiler is attached.
    pub fn finish_report(
        &self,
        sim_elapsed: Dur,
        clock_period: Dur,
        instructions: u64,
    ) -> HostReport {
        match &self.0 {
            Some(p) => p.report(sim_elapsed, clock_period, instructions),
            None => HostReport::default(),
        }
    }
}

/// Build provenance baked into the binary: what produced a number, so
/// `BENCH_throughput.json` rows stay comparable PR-over-PR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Short git commit hash, `-dirty` suffixed; `unknown` outside a
    /// work tree.
    pub git_sha: String,
    /// `rustc --version` of the building toolchain.
    pub rustc: String,
    /// Cargo build profile (`debug`/`release`).
    pub profile: String,
}

impl Default for BuildInfo {
    fn default() -> Self {
        BuildInfo {
            version: "unknown".into(),
            git_sha: "unknown".into(),
            rustc: "unknown".into(),
            profile: "unknown".into(),
        }
    }
}

impl BuildInfo {
    /// The provenance as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::from(self.version.as_str())),
            ("git_sha".into(), Json::from(self.git_sha.as_str())),
            ("rustc".into(), Json::from(self.rustc.as_str())),
            ("profile".into(), Json::from(self.profile.as_str())),
        ])
    }
}

/// One run's host-side summary: wall time, phase breakdown, event
/// counters, throughput inputs and build provenance. Returned in
/// `RunResult.host` and serialized as the `host` object of every stats
/// JSON document.
#[derive(Clone, Debug)]
pub struct HostReport {
    /// False when the run carried no profiler (all timings zero).
    pub enabled: bool,
    /// Wall-clock duration from profiler construction to report.
    pub wall: Duration,
    /// Per-phase wall time, in [`PHASES`] order.
    pub phases: Vec<(&'static str, Duration)>,
    /// Monotonic event counters, in [`COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Simulated time the run covered.
    pub sim_time: Dur,
    /// Simulated memory-clock cycles (`sim_time / clock_period`).
    pub sim_cycles: u64,
    /// Total instructions committed across cores.
    pub instructions: u64,
    /// Peak resident set size (`VmHWM`), when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Global allocation count over the run (`alloc-count` builds only).
    pub allocations: Option<u64>,
    /// Allocations between the steady-state mark (~1k retired requests
    /// into the run) and the end of the hot loop — the number the
    /// "allocation-free steady state" gate asserts is zero
    /// (`alloc-count` builds only; `None` for runs too short to reach
    /// steady state).
    pub steady_allocations: Option<u64>,
    /// Build provenance (filled in by the embedding crate's
    /// `build_info()`; `unknown` fields otherwise).
    pub build: BuildInfo,
}

impl Default for HostReport {
    fn default() -> Self {
        HostReport {
            enabled: false,
            wall: Duration::ZERO,
            phases: PHASES.iter().map(|&(_, l)| (l, Duration::ZERO)).collect(),
            counters: COUNTERS.iter().map(|&(_, l)| (l, 0)).collect(),
            sim_time: Dur::ZERO,
            sim_cycles: 0,
            instructions: 0,
            peak_rss_bytes: None,
            allocations: None,
            steady_allocations: None,
            build: BuildInfo::default(),
        }
    }
}

impl HostReport {
    /// Simulated memory-clock cycles per wall-clock second (0 when no
    /// wall time was measured).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Committed instructions per wall-clock second.
    pub fn instr_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.instructions as f64 / secs
        } else {
            0.0
        }
    }

    /// Sum of the per-phase wall-time fractions — ~1.0 by construction
    /// on a profiled run (the acceptance gate asserts ≥ 0.95).
    pub fn phase_fraction_sum(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|(_, d)| d.as_secs_f64() / wall)
            .sum()
    }

    /// The `host` stats-JSON object: throughput, phase breakdown
    /// (seconds + fraction per phase), counters, peak RSS and build
    /// provenance.
    pub fn to_json(&self) -> Json {
        let wall = self.wall.as_secs_f64();
        let phases = self
            .phases
            .iter()
            .map(|(label, d)| {
                let secs = d.as_secs_f64();
                let frac = if wall > 0.0 { secs / wall } else { 0.0 };
                (
                    (*label).to_string(),
                    Json::Obj(vec![
                        ("seconds".into(), Json::from(secs)),
                        ("fraction".into(), Json::from(frac)),
                    ]),
                )
            })
            .collect();
        let mut counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|(label, n)| ((*label).to_string(), Json::from(*n)))
            .collect();
        if let Some(n) = self.allocations {
            counters.push(("allocations".into(), Json::from(n)));
        }
        if let Some(n) = self.steady_allocations {
            counters.push(("steady_allocations".into(), Json::from(n)));
        }
        let mut fields = vec![
            ("enabled".to_string(), Json::Bool(self.enabled)),
            ("wall_s".to_string(), Json::from(wall)),
            (
                "sim_time_ns".to_string(),
                Json::from(self.sim_time.as_ns_f64()),
            ),
            ("sim_cycles".to_string(), Json::from(self.sim_cycles)),
            ("instructions".to_string(), Json::from(self.instructions)),
            (
                "cycles_per_sec".to_string(),
                Json::from(self.cycles_per_sec()),
            ),
            (
                "instr_per_sec".to_string(),
                Json::from(self.instr_per_sec()),
            ),
            (
                "phase_fraction_sum".to_string(),
                Json::from(self.phase_fraction_sum()),
            ),
            ("phases".to_string(), Json::Obj(phases)),
            ("counters".to_string(), Json::Obj(counters)),
        ];
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".to_string(), Json::from(rss)));
        }
        fields.push(("build".to_string(), self.build.to_json()));
        Json::Obj(fields)
    }
}

/// Peak resident set size in bytes from `/proc/self/status` (`VmHWM`);
/// `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Counting global allocator (behind the `alloc-count` feature): every
/// heap allocation on the request path — and everywhere else — bumps a
/// relaxed global counter the [`HostReport`] snapshots, which is how
/// the "allocation-free steady state" claim of the future event-driven
/// core becomes measurable.
///
/// Install it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: fbd_telemetry::host::alloc::CountingAlloc =
///     fbd_telemetry::host::alloc::CountingAlloc;
/// ```
#[cfg(feature = "alloc-count")]
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// Process-wide allocation count since start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// A [`System`]-backed allocator that counts allocations.
    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System`; the counter has no
    // effect on the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::time::DataRate;

    #[test]
    fn marks_partition_wall_time() {
        let prof = HostProfiler::enabled();
        std::thread::sleep(Duration::from_millis(2));
        prof.mark(Phase::Setup);
        std::thread::sleep(Duration::from_millis(2));
        prof.mark(Phase::Controller);
        let report = prof.report(Dur::from_ns(1000), DataRate::MTS667.clock_period(), 500);
        assert!(report.enabled);
        assert!(report.wall >= Duration::from_millis(4));
        // The deltas cover the whole run (report closes the tail).
        let sum = report.phase_fraction_sum();
        assert!(sum > 0.99 && sum < 1.01, "fractions sum to {sum}");
        assert!(report
            .phases
            .iter()
            .any(|(l, d)| *l == "setup" && !d.is_zero()));
        assert!(report.cycles_per_sec() > 0.0);
        assert!(report.instr_per_sec() > 0.0);
    }

    #[test]
    fn sampled_marks_keep_partition_invariant() {
        let prof = HostProfiler::enabled();
        prof.mark(Phase::Setup);
        // Far more calls than one stride: only every 64th takes a
        // timestamp, but the deltas must still partition wall time.
        for _ in 0..1000 {
            prof.mark_sampled(Phase::Cpu);
            prof.mark_sampled(Phase::Controller);
        }
        assert_eq!(prof.mark_seq.load(Ordering::Relaxed), 2000);
        let report = prof.report(Dur::from_ns(1000), DataRate::MTS667.clock_period(), 1);
        let sum = report.phase_fraction_sum();
        assert!(sum > 0.99 && sum < 1.01, "fractions sum to {sum}");
    }

    #[test]
    fn sampled_marks_on_disabled_profiler_are_inert() {
        let prof = HostProfiler::disabled();
        for _ in 0..(MARK_STRIDE * 2) {
            prof.mark_sampled(Phase::Cpu);
        }
        assert_eq!(prof.mark_seq.load(Ordering::Relaxed), 0);
        assert_eq!(prof.phase(Phase::Cpu), Duration::ZERO);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = HostProfiler::disabled();
        prof.mark(Phase::Cpu);
        prof.bump(Counter::Events);
        prof.set(Counter::DramCommands, 99);
        assert_eq!(prof.phase(Phase::Cpu), Duration::ZERO);
        assert_eq!(prof.counter(Counter::Events), 0);
        assert_eq!(prof.counter(Counter::DramCommands), 0);
        let report = prof.report(Dur::from_ns(1000), DataRate::MTS667.clock_period(), 500);
        assert!(!report.enabled);
        assert_eq!(report.phase_fraction_sum(), 0.0);
    }

    #[test]
    fn counters_accumulate_and_export() {
        let prof = HostProfiler::enabled();
        prof.bump(Counter::Events);
        prof.add(Counter::FramesSent, 3);
        prof.set(Counter::DramCommands, 42);
        assert_eq!(prof.counter(Counter::Events), 1);
        assert_eq!(prof.counter(Counter::FramesSent), 3);
        assert_eq!(prof.counter(Counter::DramCommands), 42);
        let report = prof.report(Dur::from_ns(2_000), DataRate::MTS667.clock_period(), 100);
        let doc = report.to_json();
        let counters = doc.get("counters").expect("counters object");
        assert_eq!(
            counters.get("frames_sent").and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(doc.get("build").is_some());
        assert!(doc.get("phases").is_some());
        // MTS667 clock period is 3 ns -> 2000 ns is 666 full cycles.
        assert_eq!(doc.get("sim_cycles").and_then(Json::as_f64), Some(666.0));
    }

    #[test]
    fn handle_without_profiler_is_inert() {
        let h = HostHandle::off();
        h.mark(Phase::Cpu);
        h.bump(Counter::Events);
        let report = h.finish_report(Dur::from_ns(10), DataRate::MTS667.clock_period(), 1);
        assert!(!report.enabled);
        assert!(h.profiler().is_none());
        let h = HostHandle::new(Arc::new(HostProfiler::enabled()));
        h.bump(Counter::Events);
        assert_eq!(h.profiler().unwrap().counter(Counter::Events), 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0);
        }
    }
}

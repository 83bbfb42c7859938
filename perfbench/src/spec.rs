//! The benchmark's workloads: which paper workload runs on which
//! system, with which reliability options, at which instruction budget.

use fbd_core::{Composition, RunSpec, System};
use fbd_cpu::TraceSource;
use fbd_types::config::{ScrubPolicyKind, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_workloads::Workload;

/// Default `--seed`: `ExperimentConfig`'s default generator seed.
pub const DEFAULT_SEED: u64 = 42;

/// One benchmark workload, as the command line names it.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Benchmark workload name (`--workload`).
    pub name: &'static str,
    /// Paper workload (`fbdsim list`).
    pub paper_workload: &'static str,
    /// Registered substrate.
    pub system: &'static str,
    /// Instruction budget of one trial: sized so the hot loop takes
    /// ~0.3 s on a 2-core x86-64 host and dominates set-up.
    pub budget: u64,
    /// Arms the reliability lifecycle of `fig_scrub_sweep`:
    /// `--fault-ber 1e-5 --crc-bits 8 --failback 2000 --reissue 8
    /// --scrub patrol` (default 600 ns patrol interval).
    pub faults: bool,
}

/// Every benchmark workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "swim-1c-ap",
        paper_workload: "1C-swim",
        system: "fbd-ap",
        budget: 2_000_000,
        faults: false,
    },
    WorkloadDef {
        name: "mix8-ap",
        paper_workload: "8C-1",
        system: "fbd-ap",
        budget: 300_000,
        faults: false,
    },
    WorkloadDef {
        name: "parser-1c-ddr2",
        paper_workload: "1C-parser",
        system: "ddr2",
        budget: 20_000_000,
        faults: false,
    },
    WorkloadDef {
        name: "mix4-faults",
        paper_workload: "4C-1",
        system: "fbd-ap",
        budget: 500_000,
        faults: true,
    },
];

/// Looks a benchmark workload up by name.
pub fn find(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload resolved against the simulator: configuration,
/// composition, traces and run control for one seed pair.
#[derive(Clone, Debug)]
pub struct Bench {
    /// The definition this was resolved from.
    pub def: WorkloadDef,
    /// Full system configuration (faults armed when the workload says
    /// so).
    pub cfg: SystemConfig,
    /// The registry composition `RunSpec` would run.
    pub comp: Composition,
    /// The paper workload.
    pub workload: Workload,
    /// Workload-generator seed.
    pub seed: u64,
    /// Fault-process seed (only used when faults are armed).
    pub fault_seed: u64,
    /// Instruction budget.
    pub budget: u64,
    /// L2 warm-up operations per core (`Warmup::Auto`).
    pub warm_ops: u64,
}

impl Bench {
    /// Resolves `def` for the given seeds at an instruction budget
    /// (`def.budget` for a measured run; the self-tests use smaller
    /// ones).
    ///
    /// # Errors
    ///
    /// Returns a message when the paper workload or substrate is not
    /// registered or the configuration does not validate.
    pub fn new(def: WorkloadDef, seed: u64, fault_seed: u64, budget: u64) -> Result<Bench, String> {
        let workload = fbd_workloads::find(def.paper_workload)
            .ok_or_else(|| format!("unknown paper workload `{}`", def.paper_workload))?;
        let mut cfg = SystemConfig::paper_default(workload.cores());
        cfg.mem = substrates()
            .get(def.system)
            .ok_or_else(|| format!("unknown substrate `{}`", def.system))?
            .config();
        if def.faults {
            let f = &mut cfg.mem.faults;
            f.ber = 1e-5;
            f.seed = fault_seed;
            f.crc_bits = 8;
            f.failback_quiet_ns = 2000;
            f.reissue_budget = 8;
            f.scrub = ScrubPolicyKind::Patrol;
        }
        cfg.validate().map_err(|e| e.to_string())?;
        let spec = RunSpec::new(cfg).with_workload(workload.clone());
        let l2_lines = u64::from(cfg.cpu.l2_bytes) / fbd_types::CACHE_LINE_BYTES;
        Ok(Bench {
            def,
            comp: spec.composition(),
            cfg,
            workload,
            seed,
            fault_seed,
            budget,
            warm_ops: 2 * l2_lines / u64::from(cfg.cpu.cores),
        })
    }

    /// Fresh per-core traces for this seed.
    pub fn traces(&self) -> Vec<Box<dyn TraceSource>> {
        self.workload.traces(self.seed)
    }

    /// Composes a cold system, as a fresh process would (no warm-up
    /// yet).
    ///
    /// # Errors
    ///
    /// Returns the composition error.
    pub fn compose(&self) -> Result<System, String> {
        System::composed(&self.cfg, self.traces(), self.budget, &self.comp)
    }

    /// The same run as a `RunSpec` (used for the profiled counting run).
    pub fn run_spec(&self) -> RunSpec {
        RunSpec::new(self.cfg)
            .with_workload(self.workload.clone())
            .seed(self.seed)
            .budget(self.budget)
    }

    /// Memory-clock period of the configured substrate.
    pub fn clock(&self) -> fbd_types::time::Dur {
        self.cfg.mem.data_rate.clock_period()
    }
}

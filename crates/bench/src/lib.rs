//! Shared harness for the figure-regeneration benches.
//!
//! Each bench target under `benches/` regenerates one figure of the
//! paper's evaluation section (Figures 4–13): it sweeps the same
//! workloads and configurations and prints the same rows/series the
//! paper plots. This crate holds the common pieces: system-configuration
//! builders for every evaluated variant, a parallel run executor, and
//! plain-text table formatting.
//!
//! Budgets: benches default to 300k instructions per core (the paper
//! uses 100M-instruction SimPoints, which is hours of wall-clock per
//! figure). Set `FBD_BUDGET=<n>` or `FBD_PAPER_MODE=1` to lengthen runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use fbd_core::experiment::{default_budget, reference_ipcs, smt_speedup, ExperimentConfig};
pub use fbd_core::parallel_map;
use fbd_core::{RunResult, RunSpec};
use fbd_types::config::{Associativity, Interleaving, MemoryTech, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_types::time::DataRate;
use fbd_workloads::{paper_workloads, Workload, PROFILES};

/// Run-control parameters for benches: seed 42, automatic L2 warm-up,
/// and the instruction budget from [`default_budget`] (so `FBD_BUDGET`
/// and `FBD_PAPER_MODE=1` keep working).
pub fn experiment() -> ExperimentConfig {
    ExperimentConfig {
        budget: default_budget(),
        ..ExperimentConfig::default()
    }
}

/// A system variant evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Conventional DDR2 (baseline).
    Ddr2,
    /// FB-DIMM without prefetching.
    Fbd,
    /// FB-DIMM with AMB prefetching.
    FbdAp,
    /// FB-DIMM with the full-latency prefetching ablation.
    FbdApfl,
}

impl Variant {
    /// Short display label, matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Ddr2 => "DDR2",
            Variant::Fbd => "FBD",
            Variant::FbdAp => "FBD-AP",
            Variant::FbdApfl => "FBD-APFL",
        }
    }
}

/// Builds a system configuration for `variant` with `cores` cores, on
/// the substrate preset of the same name (the paper's legend labels
/// are the preset names in upper case).
pub fn system(variant: Variant, cores: u32) -> SystemConfig {
    let name = variant.label().to_ascii_lowercase();
    SystemConfig {
        mem: substrates().get(&name).expect("paper preset").config(),
        ..SystemConfig::paper_default(cores)
    }
}

/// AMB-prefetching system with explicit region size, buffer entries and
/// associativity (the Figure 8/11/13 sensitivity grid).
pub fn ap_system(
    cores: u32,
    region_lines: u32,
    entries: u32,
    assoc: Associativity,
) -> SystemConfig {
    let mut cfg = system(Variant::FbdAp, cores);
    cfg.mem.amb.region_lines = region_lines;
    cfg.mem.amb.cache_lines = entries;
    cfg.mem.amb.associativity = assoc;
    cfg.mem.interleaving = Interleaving::MultiCacheline {
        lines: region_lines,
    };
    cfg
}

/// Applies a channel-count / data-rate sweep point (Figure 6).
pub fn with_channels_and_rate(
    mut cfg: SystemConfig,
    logical_channels: u32,
    rate: DataRate,
) -> SystemConfig {
    cfg.mem.logical_channels = logical_channels;
    cfg.mem.data_rate = rate;
    cfg
}

/// True for FB-DIMM variants (used when a sweep applies to both).
pub fn is_fbd(cfg: &SystemConfig) -> bool {
    matches!(cfg.mem.tech, MemoryTech::FbDimm { .. })
}

/// The paper's workload groups: (label, workloads).
pub fn workload_groups() -> Vec<(&'static str, Vec<Workload>)> {
    let (c1, c2, c4, c8) = paper_workloads();
    vec![
        ("1-core", c1),
        ("2-core", c2),
        ("4-core", c4),
        ("8-core", c8),
    ]
}

/// All twelve benchmark names.
pub fn benchmark_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

/// Runs `workload` on every (label, config) pair in parallel; returns
/// results in the same order.
pub fn run_matrix(
    configs: &[(String, SystemConfig)],
    workloads: &[Workload],
    exp: &ExperimentConfig,
) -> Vec<((String, String), RunResult)> {
    let jobs: Vec<(String, SystemConfig, Workload)> = configs
        .iter()
        .flat_map(|(label, cfg)| {
            workloads
                .iter()
                .map(move |w| (label.clone(), *cfg, w.clone()))
        })
        .collect();
    let results = parallel_map(&jobs, |(_, cfg, w)| {
        RunSpec::new(*cfg)
            .with_workload(w.clone())
            .experiment(*exp)
            .run()
    });
    jobs.into_iter()
        .zip(results)
        .map(|((label, _, w), r)| ((label, w.name().to_string()), r))
        .collect()
}

/// One workload group's finished runs: the group label, its workloads,
/// and the `(config label, workload name) → result` pairs in the same
/// order [`run_matrix`] would produce.
pub type GroupResults = (
    &'static str,
    Vec<Workload>,
    Vec<((String, String), RunResult)>,
);

/// Runs every workload group's (config × workload) matrix as one flat
/// parallel batch instead of one barrier per group, so a slow 8-core
/// run can overlap the 1-core tail. `configs_for` builds the per-group
/// configuration list from the group's core count. Output order is
/// deterministic: groups in [`workload_groups`] order, each group's
/// results in the same order a per-group [`run_matrix`] call returns.
pub fn run_grouped(
    configs_for: impl Fn(u32) -> Vec<(String, SystemConfig)>,
    exp: &ExperimentConfig,
) -> Vec<GroupResults> {
    run_grouped_specs(
        |cores| {
            configs_for(cores)
                .into_iter()
                .map(|(label, cfg)| (label, RunSpec::new(cfg)))
                .collect()
        },
        exp,
    )
}

/// [`run_grouped`] over prepared run specs, for rows that select a
/// registry policy by name (e.g. [`RunSpec::scheduler`]). Each spec
/// runs every workload of its group under `exp`.
pub fn run_grouped_specs(
    specs_for: impl Fn(u32) -> Vec<(String, RunSpec)>,
    exp: &ExperimentConfig,
) -> Vec<GroupResults> {
    let groups = workload_groups();
    let mut jobs: Vec<(usize, String, RunSpec, Workload)> = Vec::new();
    for (gi, (_, workloads)) in groups.iter().enumerate() {
        let cores = workloads[0].cores();
        for (label, spec) in specs_for(cores) {
            for w in workloads {
                jobs.push((gi, label.clone(), spec.clone(), w.clone()));
            }
        }
    }
    let results = parallel_map(&jobs, |(_, _, spec, w)| {
        spec.clone().with_workload(w.clone()).experiment(*exp).run()
    });
    let mut out: Vec<GroupResults> = groups
        .into_iter()
        .map(|(g, ws)| (g, ws, Vec::new()))
        .collect();
    for ((gi, label, _, w), r) in jobs.into_iter().zip(results) {
        out[gi].2.push(((label, w.name().to_string()), r));
    }
    out
}

/// Computes per-benchmark reference IPCs on the single-core variant of
/// `reference` (the denominator of the SMT-speedup metric), in parallel.
pub fn references(reference: Variant, exp: &ExperimentConfig) -> HashMap<String, f64> {
    let names = benchmark_names();
    let cfg = system(reference, 1);
    let ipcs = parallel_map(&names, |name| {
        reference_ipcs(&cfg, &[name], exp)
            .remove(*name)
            .expect("reference computed")
    });
    names.into_iter().map(String::from).zip(ipcs).collect()
}

/// SMT speedup of a finished run.
pub fn speedup(workload: &Workload, result: &RunResult, refs: &HashMap<String, f64>) -> f64 {
    smt_speedup(workload, result, refs)
}

/// Prints a fixed-width table; the first row is the header.
pub fn print_table(rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..cols)
        .map(|c| {
            rows.iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .max()
                .unwrap_or(0)
        })
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        println!("{}", line.join("  "));
        if i == 0 {
            let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            println!("{}", sep.join("  "));
        }
    }
}

/// Converts a table (first row = header) to CSV. Blank separator rows
/// are dropped; cells containing commas, quotes, or newlines are quoted
/// per RFC 4180.
pub fn table_to_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows.iter().filter(|r| !r.is_empty()) {
        let line: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains([',', '"', '\n']) {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Writes `rows` as `<dir>/<name>.csv`, creating the directory first.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_table_csv(dir: &Path, name: &str, rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table_to_csv(rows))?;
    Ok(path)
}

/// Prints `rows` as a fixed-width table and, when `FBD_OUT_DIR` is set,
/// also writes them to `$FBD_OUT_DIR/<name>.csv` so figure data lands
/// as structured files instead of stdout text only.
pub fn emit_table(name: &str, rows: &[Vec<String>]) {
    print_table(rows);
    if let Ok(dir) = std::env::var("FBD_OUT_DIR") {
        match write_table_csv(Path::new(&dir), name, rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {name}.csv under {dir}: {e}"),
        }
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a signed percentage delta (1.16 → "+16.0%").
pub fn pct(v: f64) -> String {
    format!("{:+.1}%", (v - 1.0) * 100.0)
}

/// Prints the standard bench banner with run parameters.
pub fn banner(figure: &str, what: &str, exp: &ExperimentConfig) {
    println!();
    println!("=== {figure}: {what} ===");
    println!(
        "budget: {} instructions/core, seed {} (FBD_BUDGET / FBD_PAPER_MODE=1 to lengthen)",
        exp.budget, exp.seed
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn variant_configs_validate() {
        for v in [
            Variant::Ddr2,
            Variant::Fbd,
            Variant::FbdAp,
            Variant::FbdApfl,
        ] {
            for cores in [1, 2, 4, 8] {
                system(v, cores).validate().unwrap();
            }
        }
        ap_system(4, 8, 128, Associativity::Ways(4))
            .validate()
            .unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(1.16), "+16.0%");
        assert_eq!(pct(0.9), "-10.0%");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_to_csv_quotes_and_drops_separators() {
        let rows = vec![
            vec!["workload".to_string(), "note".to_string()],
            vec!["4C-1".to_string(), "a,b".to_string()],
            Vec::new(),
            vec!["8C-2".to_string(), "say \"hi\"".to_string()],
        ];
        assert_eq!(
            table_to_csv(&rows),
            "workload,note\n4C-1,\"a,b\"\n8C-2,\"say \"\"hi\"\"\"\n"
        );
    }

    #[test]
    fn write_table_csv_round_trips() {
        let dir = std::env::temp_dir().join(format!("fbd-bench-test-{}", std::process::id()));
        let rows = vec![
            vec!["a".to_string(), "b".to_string()],
            vec!["1".to_string(), "2".to_string()],
        ];
        let path = write_table_csv(&dir, "fig99", &rows).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_groups_cover_the_paper() {
        let groups = workload_groups();
        let counts: Vec<usize> = groups.iter().map(|(_, ws)| ws.len()).collect();
        assert_eq!(counts, vec![12, 6, 6, 3]);
    }
}

//! Output check: a digest of a run's simulated outputs, the stored
//! reference digests, and the run identities every result must satisfy.
//!
//! The digest covers everything the simulation computes — elapsed
//! time, per-core statistics, `MemStats`, per-channel counters, the
//! energy report, the stage profile and the fault report — and leaves
//! out the host report, which measures the machine, not the model.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;

use fbd_core::RunResult;
use fbd_telemetry::Json;

/// Names of the digested output components, in digest order.
const COMPONENTS: [&str; 7] = [
    "elapsed", "cores", "mem", "channels", "energy", "profile", "faults",
];

/// FNV-1a digests of each output component's full `Debug` rendering
/// (floats print with all their digits, so equal text means equal
/// values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest(pub [u64; 7]);

fn fnv1a(value: &impl Debug) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    format!("{value:?}")
        .bytes()
        .fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

impl Digest {
    /// Digests the simulated outputs of `r` (its host report excluded).
    pub fn of(r: &RunResult) -> Digest {
        Digest([
            fnv1a(&r.elapsed),
            fnv1a(&r.cores),
            fnv1a(&r.mem),
            fnv1a(&r.channels),
            fnv1a(&r.energy),
            fnv1a(&r.profile),
            fnv1a(&r.faults),
        ])
    }

    /// The components on which `self` and `other` differ, by name.
    pub fn diff(&self, other: &Digest) -> Vec<&'static str> {
        COMPONENTS
            .iter()
            .zip(self.0.iter().zip(other.0.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, _)| *name)
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            COMPONENTS
                .iter()
                .zip(self.0)
                .map(|(name, h)| (name.to_string(), Json::from(format!("{h:016x}"))))
                .collect(),
        )
    }

    fn from_json(j: &Json) -> Option<Digest> {
        let mut out = [0u64; 7];
        for (slot, name) in out.iter_mut().zip(COMPONENTS) {
            *slot = u64::from_str_radix(j.get(name)?.as_str()?, 16).ok()?;
        }
        Some(Digest(out))
    }
}

/// Stored reference digests: workload → seed → digest, taken at the
/// workload's own budget with the fault seed equal to the generator
/// seed.
#[derive(Clone, Debug, Default)]
pub struct References(BTreeMap<String, BTreeMap<u64, Digest>>);

impl References {
    /// Loads a reference file written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<References, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = fbd_telemetry::json::parse(&text).map_err(|e| e.to_string())?;
        let bad = || format!("{}: malformed reference file", path.display());
        let Json::Obj(workloads) = doc else {
            return Err(bad());
        };
        let mut out = References::default();
        for (name, seeds) in workloads {
            let Json::Obj(seeds) = seeds else {
                return Err(bad());
            };
            let mut map = BTreeMap::new();
            for (seed, d) in seeds {
                let seed: u64 = seed.parse().map_err(|_| bad())?;
                map.insert(seed, Digest::from_json(&d).ok_or_else(bad)?);
            }
            out.0.insert(name, map);
        }
        Ok(out)
    }

    /// Writes the references as JSON, one seed per line.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\n");
        for (i, (name, seeds)) in self.0.iter().enumerate() {
            let name = Json::from(name.as_str()).to_json();
            out += &format!(" {name}: {{\n");
            for (j, (seed, d)) in seeds.iter().enumerate() {
                let sep = if j + 1 < seeds.len() { "," } else { "" };
                out += &format!("  \"{seed}\": {}{sep}\n", d.to_json().to_json());
            }
            out += if i + 1 < self.0.len() {
                " },\n"
            } else {
                " }\n"
            };
        }
        out += "}\n";
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The reference for `workload` at `seed`, if stored.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&Digest> {
        self.0.get(workload)?.get(&seed)
    }

    /// Stores (or replaces) a reference.
    pub fn insert(&mut self, workload: &str, seed: u64, digest: Digest) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(seed, digest);
    }
}

/// Checks the identities every run must satisfy; returns one message
/// per violation.
///
/// * every read's and every write's stage durations sum to its
///   end-to-end latency (no stage-sum mismatches);
/// * under fault injection, `detected + escaped == injected`;
/// * the per-rank DRAM command counts of the energy report sum to the
///   device counters in `MemStats::dram_ops`.
pub fn identity_failures(r: &RunResult, faults_armed: bool) -> Vec<String> {
    let mut out = Vec::new();
    if r.profile.mismatches() != 0 {
        out.push(format!(
            "{} read stage-sum mismatches",
            r.profile.mismatches()
        ));
    }
    if r.profile.write_mismatches() != 0 {
        out.push(format!(
            "{} write stage-sum mismatches",
            r.profile.write_mismatches()
        ));
    }
    match (&r.faults, faults_armed) {
        (Some(f), _) => {
            let c = &f.counters;
            if c.detected + c.escaped != c.injected {
                out.push(format!(
                    "detected {} + escaped {} != injected {}",
                    c.detected, c.escaped, c.injected
                ));
            }
        }
        (None, true) => out.push("fault injection armed but no fault report".into()),
        (None, false) => {}
    }
    let mut per_rank = fbd_types::stats::DramOpCounts::default();
    for rank in &r.energy.ranks {
        per_rank.merge(&rank.ops);
    }
    if per_rank != r.mem.dram_ops {
        out.push(format!(
            "per-rank DRAM ops {per_rank:?} != device ops {:?}",
            r.mem.dram_ops
        ));
    }
    if r.cores.iter().all(|c| c.instructions == 0) {
        out.push("no instructions committed".into());
    }
    out
}

/// DRAM commands the run issued (ACT/PRE pairs expanded, as the host
/// profiler counts them).
pub fn dram_commands(r: &RunResult) -> u64 {
    let ops = &r.mem.dram_ops;
    ops.act_pre * 2 + ops.col_total() + ops.refreshes
}

//! Host-speed calibration: a fixed mix of standard-library kernels whose
//! time tracks how fast the host runs the simulator at the moment.
//!
//! On a shared host the simulator's speed switches between levels within
//! seconds (up to 1.7× on a 2-core x86-64 sandbox) as other tenants load
//! the machine. The benchmark times this mix just before and just after
//! every trial and divides the trial's host time by the mix's slowdown
//! raised to [`SENSITIVITY`], so the end-to-end metrics are host seconds
//! at the reference speed rather than at whatever speed the host had
//! during the run.
//!
//! The kernels are ordered-map churn, hash-map churn, an unstable sort and
//! an unpredictable-branch loop. Each alone tracked the simulator's
//! speed partly (correlation 0.6–0.7 of log rates); their geometric mean
//! cut the spread of 10 s windows by 2–6× on all four workloads.
//! A pure ALU loop and pointer chases (32 KiB to 32 MiB) tracked it
//! much less, so the levels look like contention for shared core and
//! cache resources rather than clock-frequency changes.
//!
//! The code here is the benchmark's own and uses only `std`, so a change
//! to the simulator cannot change what the mix measures.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host time of each kernel (`btree`, `hashmap`, `sort`, `branch`) at
/// the reference speed: the tenth percentiles of ~300 calibrations on a
/// 2-core x86-64 (Xeon) sandbox, i.e. its faster state. They only fix
/// the unit; a host that runs the mix faster reports proportionally
/// higher calibrated rates.
pub const REFERENCE_S: [f64; 4] = [0.0107, 0.0068, 0.0066, 0.0131];

/// How much more the simulator slows than the mix. Across 40 runs of
/// 20 s on the sandbox above (four workloads, ten seeds each), the log of
/// the simulator's rate moved 1.3–1.8 times as much as the log of the
/// run's median slowdown. With the exponent 1 those runs' rates spread
/// 0.03–0.10 of their median; with 1.5, twenty runs per workload on
/// fresh seeds spread 0.02–0.08.
pub const SENSITIVITY: f64 = 1.5;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// Inserts and removes pseudo-random keys of a ~50k-entry ordered map.
fn btree() -> u64 {
    let mut m = BTreeMap::new();
    let (mut s, mut acc) = (1u64, 0u64);
    for i in 0..80_000 {
        s = mix(s.wrapping_add(i));
        let k = s % 100_000;
        if s & 1 == 0 {
            m.insert(k, i);
        } else if let Some(v) = m.remove(&k) {
            acc ^= v;
        }
    }
    acc.wrapping_add(m.len() as u64)
}

/// Counts pseudo-random keys in a hash map and probes a neighbour. The
/// hasher has fixed keys, so every process does the same probes.
fn hashmap() -> u64 {
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let (mut s, mut acc) = (1u64, 0u64);
    for i in 0..80_000 {
        s = mix(s.wrapping_add(i));
        let k = s % 200_000;
        *m.entry(k).or_insert(0) += 1;
        acc ^= m.get(&(k ^ 5)).copied().unwrap_or(0);
    }
    acc
}

/// Sorts pseudo-random words.
fn sort() -> u64 {
    let mut s = 3u64;
    let mut v: Vec<u64> = (0..250_000u64)
        .map(|i| {
            s = mix(s.wrapping_add(i));
            s
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// A loop whose branch outcome is a pseudo-random draw.
fn branch() -> u64 {
    let mut s = 7u64;
    let (mut a, mut b, mut c) = (0u64, 0u64, 0u64);
    for i in 0..1_000_000u64 {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = s >> 33;
        match r % 5 {
            0 => a = a.wrapping_add(r),
            1 => b ^= r.rotate_left(7),
            2 => c = c.wrapping_sub(r >> 3),
            3 => {
                a ^= b;
                b = b.wrapping_add(i);
            }
            _ => c ^= a,
        }
    }
    a ^ b ^ c
}

/// Host time of each kernel, in [`REFERENCE_S`] order.
pub fn kernel_times() -> [f64; 4] {
    let kernels: [fn() -> u64; 4] = [btree, hashmap, sort, branch];
    kernels.map(|k| {
        let t = Instant::now();
        black_box(k());
        t.elapsed().as_secs_f64()
    })
}

/// How much slower than the reference speed the host runs the mix now:
/// the geometric mean of each kernel's time over its reference time.
pub fn slowdown() -> f64 {
    let times = kernel_times();
    let log_sum: f64 = times
        .iter()
        .zip(REFERENCE_S)
        .map(|(t, r)| (t / r).ln())
        .sum();
    (log_sum / times.len() as f64).exp()
}

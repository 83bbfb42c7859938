//! Ablation studies for the design choices DESIGN.md §7 calls out.
//! These go beyond the paper's figures: each row isolates one design
//! decision of the AMB prefetcher or the surrounding memory system.
//!
//! 1. **FIFO vs LRU** AMB-cache replacement — the paper argues FIFO
//!    (§3.2: a hit block is now cached in the processor and will not be
//!    re-demanded soon, so protecting it is pointless).
//! 2. **VRL on/off** — the paper reports AMB-prefetching gains are
//!    similar with Variable Read Latency (§5, end of intro).
//! 3. **Hit-first vs FCFS** scheduling — the reordering policy the
//!    simulated controller inherits from Rixner et al.
//! 4. **Multi-cacheline/close-page vs page-interleaving/open-page** as
//!    the substrate for AMB prefetching (§3.2 allows both).
//! 5. **Ganged vs unganged** physical channels at equal total pins.

use fbd_bench::*;
use fbd_core::experiment::ExperimentConfig;
use fbd_core::RunSpec;
use fbd_types::config::{Interleaving, MemoryTech, PagePolicy, Replacement, SystemConfig};

fn run_pair(
    title: &str,
    configs: Vec<(String, SystemConfig)>,
    exp: &ExperimentConfig,
    refs: &std::collections::HashMap<String, f64>,
) {
    let specs = configs
        .into_iter()
        .map(|(label, cfg)| (label, RunSpec::new(cfg)))
        .collect();
    run_specs(title, specs, exp, refs);
}

fn run_specs(
    title: &str,
    configs: Vec<(String, RunSpec)>,
    exp: &ExperimentConfig,
    refs: &std::collections::HashMap<String, f64>,
) {
    println!("--- {title} ---");
    let mut rows = vec![{
        let mut h = vec!["config".to_string()];
        h.extend(workload_groups().iter().map(|(g, _)| g.to_string()));
        h
    }];
    let mut table: Vec<Vec<String>> = configs.iter().map(|(l, _)| vec![l.clone()]).collect();
    let grouped = run_grouped_specs(
        |cores| {
            configs
                .iter()
                .map(|(l, spec)| {
                    let mut spec = spec.clone();
                    spec.system_mut().cpu.cores = cores;
                    (l.clone(), spec)
                })
                .collect()
        },
        exp,
    );
    for (_, workloads, results) in grouped {
        for (i, (label, _)) in configs.iter().enumerate() {
            let v: Vec<f64> = workloads
                .iter()
                .map(|w| {
                    results
                        .iter()
                        .find(|((c, n), _)| c == label && n == w.name())
                        .map(|(_, r)| speedup(w, r, refs))
                        .expect("run")
                })
                .collect();
            table[i].push(f3(mean(&v)));
        }
    }
    rows.extend(table.clone());
    emit_table("ablations", &rows);
    println!();
}

fn main() {
    let exp = fbd_bench::experiment();
    banner(
        "Ablations",
        "design-choice studies beyond the paper's figures",
        &exp,
    );
    let refs = references(Variant::Ddr2, &exp);

    // 1. FIFO vs LRU replacement in the AMB cache.
    let fifo = system(Variant::FbdAp, 1);
    let mut lru = fifo;
    lru.mem.amb.replacement = Replacement::Lru;
    run_pair(
        "AMB-cache replacement: FIFO (paper) vs LRU",
        vec![("FIFO".into(), fifo), ("LRU".into(), lru)],
        &exp,
        &refs,
    );

    // 2. Variable Read Latency.
    let mut base_vrl = system(Variant::Fbd, 1);
    base_vrl.mem.tech = MemoryTech::FbDimm { vrl: true };
    let mut ap_vrl = system(Variant::FbdAp, 1);
    ap_vrl.mem.tech = MemoryTech::FbDimm { vrl: true };
    run_pair(
        "Variable Read Latency: fixed (paper default) vs VRL",
        vec![
            ("FBD fixed".into(), system(Variant::Fbd, 1)),
            ("FBD VRL".into(), base_vrl),
            ("FBD-AP fixed".into(), system(Variant::FbdAp, 1)),
            ("FBD-AP VRL".into(), ap_vrl),
        ],
        &exp,
        &refs,
    );

    // 3. Hit-first vs FCFS scheduling (on plain FB-DIMM). Both
    //    policies are registry entries, selected by name.
    let fbd = RunSpec::new(system(Variant::Fbd, 1));
    run_specs(
        "Controller scheduling: hit-first (paper) vs FCFS",
        vec![
            ("hit-first".into(), fbd.clone()),
            ("FCFS".into(), fbd.scheduler("fcfs")),
        ],
        &exp,
        &refs,
    );

    // 4. AMB prefetching substrate: multi-cacheline/close vs
    //    page-interleaving/open-page.
    let mut ap_page = system(Variant::FbdAp, 1);
    ap_page.mem.interleaving = Interleaving::Page;
    ap_page.mem.page_policy = PagePolicy::OpenPage;
    let mut fbd_page = system(Variant::Fbd, 1);
    fbd_page.mem.interleaving = Interleaving::Page;
    fbd_page.mem.page_policy = PagePolicy::OpenPage;
    run_pair(
        "AP substrate: multi-CL/close-page (paper) vs page/open-page",
        vec![
            ("AP multi-CL/close".into(), system(Variant::FbdAp, 1)),
            ("AP page/open".into(), ap_page),
            ("FBD page/open".into(), fbd_page),
        ],
        &exp,
        &refs,
    );

    // 5. Ganged pairs vs independent physical channels (equal pins:
    //    2 logical × 2 phys vs 4 logical × 1 phys).
    let mut unganged = system(Variant::Fbd, 1);
    unganged.mem.logical_channels = 4;
    unganged.mem.phys_per_logical = 1;
    run_pair(
        "Channel organisation: 2 ganged pairs (paper) vs 4 independent",
        vec![
            ("2x ganged".into(), system(Variant::Fbd, 1)),
            ("4x independent".into(), unganged),
        ],
        &exp,
        &refs,
    );

    // 6. Permutation-based bank indexing (Zhang–Zhu–Zhang, the paper's
    //    citation [26]) under open-page page interleaving.
    let mut page = system(Variant::Fbd, 1);
    page.mem.interleaving = Interleaving::Page;
    page.mem.page_policy = PagePolicy::OpenPage;
    let mut page_perm = page;
    page_perm.mem.xor_permutation = true;
    run_pair(
        "Open-page bank indexing: plain vs XOR permutation [26]",
        vec![
            ("page/open".into(), page),
            ("page/open+perm".into(), page_perm),
        ],
        &exp,
        &refs,
    );

    // 6b. Ranks per DIMM: one (paper's Figure 2 example) vs two —
    //     doubles bank-level parallelism behind each AMB at equal
    //     channel bandwidth.
    let mut two_rank = system(Variant::Fbd, 1);
    two_rank.mem.ranks_per_dimm = 2;
    let mut two_rank_ap = system(Variant::FbdAp, 1);
    two_rank_ap.mem.ranks_per_dimm = 2;
    run_pair(
        "Ranks per DIMM: 1 (paper) vs 2",
        vec![
            ("FBD 1 rank".into(), system(Variant::Fbd, 1)),
            ("FBD 2 ranks".into(), two_rank),
            ("FBD-AP 1 rank".into(), system(Variant::FbdAp, 1)),
            ("FBD-AP 2 ranks".into(), two_rank_ap),
        ],
        &exp,
        &refs,
    );

    // 7. DRAM refresh on/off (the paper ignores refresh; a production
    //    controller cannot).
    let mut refresh = system(Variant::FbdAp, 1);
    refresh.mem.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
    run_pair(
        "DRAM refresh: ignored (paper) vs JEDEC tREFI/tRFC",
        vec![
            ("no refresh".into(), system(Variant::FbdAp, 1)),
            ("refresh on".into(), refresh),
        ],
        &exp,
        &refs,
    );
}

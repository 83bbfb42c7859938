//! Criterion microbenchmarks for the simulator's hot paths: address
//! mapping, AMB-cache operations, scheduler picks, DRAM plan/commit, the
//! data-bus gap search, link timeline reservations and a short end-to-end
//! run. These track the *simulator's* performance (simulation
//! throughput), complementing the figure benches that track the
//! *simulated system's* performance.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fbd_core::experiment::ExperimentConfig;
use fbd_core::RunSpec;
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;
use fbd_workloads::Workload;

fn bench_mapping(c: &mut Criterion) {
    let mapper = fbd_ctrl_mapper();
    let mut line = 0u64;
    c.bench_function("mapping/map", |b| {
        b.iter(|| {
            line = line.wrapping_add(977);
            black_box(mapper.map(LineAddr::new(line)))
        })
    });
}

fn fbd_ctrl_mapper() -> fbd_ctrl::InterleavedMapper {
    fbd_ctrl::InterleavedMapper::new(&MemoryConfig::fbdimm_with_prefetch())
}

fn bench_amb_cache(c: &mut Criterion) {
    let cfg = fbd_types::config::AmbPrefetchConfig::paper_default();
    let mut buf = fbd_amb::PrefetchBuffer::new(&cfg);
    let mut line = 0u64;
    c.bench_function("amb_cache/insert_lookup", |b| {
        b.iter(|| {
            line = line.wrapping_add(3);
            buf.insert(LineAddr::new(line % 256));
            black_box(buf.on_hit(LineAddr::new((line + 1) % 256)))
        })
    });
}

/// The controller's AMB tag table at the paper default (64 lines, fully
/// associative, FIFO, 4-line regions), loaded the way group fetches
/// load it: the three prefetched lines of each region, for regions that
/// map to channel 0, DIMM 0 under the default interleaving.
fn bench_amb_tag_table(c: &mut Criterion) {
    let mem = MemoryConfig::fbdimm_with_prefetch();
    let mapper = fbd_ctrl_mapper();
    let k = u64::from(mem.amb.region_lines);
    let regions: Vec<u64> = (0u64..)
        .filter(|&r| {
            let m = mapper.map(LineAddr::new(r * k));
            m.channel == 0 && m.dimm == 0
        })
        .take(256)
        .collect();
    let group = |r: u64| (1..k).map(move |i| LineAddr::new(r * k + i));
    let mut table = fbd_ctrl::PrefetchTable::new(&mem);
    let per_table = mem.amb.cache_lines as usize / (k as usize - 1) + 1;
    for &r in &regions[..per_table] {
        table.fill(0, 0, group(r));
    }
    let resident: Vec<LineAddr> = regions[..per_table]
        .iter()
        .flat_map(|&r| group(r))
        .filter(|&l| table.would_hit(0, 0, l))
        .collect();
    assert_eq!(resident.len(), mem.amb.cache_lines as usize);
    // 72% hits (1C-swim's AMB coverage on fbd-ap); the misses are the
    // demanded lines of resident regions and lines of regions not held.
    let mut seed = 1u64;
    let queries: Vec<LineAddr> = (0..1024)
        .map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (seed >> 33) as usize;
            if pick % 100 < 72 {
                resident[pick % resident.len()]
            } else {
                LineAddr::new(regions[pick % regions.len()] * k)
            }
        })
        .collect();
    let mut i = 0usize;
    c.bench_function("amb_cache/would_hit_full", |b| {
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(table.would_hit(0, 0, black_box(queries[i])))
        })
    });
    let mut next = per_table;
    c.bench_function("amb_cache/fill_group", |b| {
        b.iter(|| {
            next = (next + 1) % regions.len();
            black_box(table.fill(0, 0, group(regions[next])))
        })
    });
}

fn bench_dram_plan_commit(c: &mut Criterion) {
    let timings = fbd_types::config::DramTimings::ddr2_table2();
    c.bench_function("dram/plan_commit_close_page", |b| {
        let mut banks = fbd_dram::BankArray::new(4, timings, Dur::from_ns(3));
        let mut bus = fbd_dram::DataBus::new(Dur::from_ns(3));
        let mut now = Time::ZERO;
        let mut bank = 0usize;
        b.iter(|| {
            bank = (bank + 1) % 4;
            let op = fbd_dram::ColumnOp {
                kind: fbd_dram::ColKind::Read,
                auto_precharge: true,
                burst: Dur::from_ns(6),
            };
            let plan = banks.plan(bank, 7, op, now, &bus);
            banks.commit(&plan, &mut bus);
            now = plan.data_end;
            black_box(plan.cmd_at)
        })
    });
}

/// `DataBus::earliest_fit` at the occupancy a busy DIMM reaches: 6 ns
/// bursts every 12 ns in alternating directions over twice the 5 µs
/// prune window, so the bus holds a full window of history. One search
/// starts at the newest burst, the other in a gap 2.5 µs back.
fn bench_bus_earliest_fit(c: &mut Criterion) {
    use fbd_dram::ColKind;
    let mut bus = fbd_dram::DataBus::new(Dur::from_ns(3));
    let mut newest = Time::ZERO;
    for i in 0..834u64 {
        let dir = if i % 2 == 0 {
            ColKind::Read
        } else {
            ColKind::Write
        };
        newest = Time::from_ns(i * 12);
        bus.commit(dir, newest, newest + Dur::from_ns(6));
    }
    let old_gap = Time::from_ps(newest.as_ps() - 2_500_000);
    c.bench_function("dram/bus_earliest_fit_newest", |b| {
        b.iter(|| black_box(bus.earliest_fit(ColKind::Read, black_box(newest), Dur::from_ns(6))))
    });
    c.bench_function("dram/bus_earliest_fit_old_gap", |b| {
        b.iter(|| black_box(bus.earliest_fit(ColKind::Read, black_box(old_gap), Dur::from_ns(3))))
    });
}

fn bench_timeline(c: &mut Criterion) {
    c.bench_function("link/timeline_reserve", |b| {
        let mut tl = fbd_link::Timeline::new(Dur::from_ns(3));
        let mut t = Time::ZERO;
        b.iter(|| {
            t += Dur::from_ns(9);
            black_box(tl.reserve(t, Dur::from_ns(6)))
        })
    });
}

fn bench_full_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    let exp = ExperimentConfig {
        seed: 42,
        budget: 20_000,
        ..Default::default()
    };
    let w = Workload::new("1C-swim", &["swim"]);
    let mut cfg = SystemConfig::paper_default(1);
    cfg.mem = MemoryConfig::fbdimm_with_prefetch();
    // Telemetry off (the default): the registry/sampler/tracer cost is
    // one pointer test per transaction. Compare the two series to bound
    // the off-path overhead.
    let spec = RunSpec::new(cfg).with_workload(w.clone()).experiment(exp);
    group.bench_function("swim_20k_instructions", |b| {
        b.iter(|| black_box(spec.run().elapsed))
    });
    group.bench_function("swim_20k_instructions_telemetry", |b| {
        let tc = fbd_telemetry::TelemetryConfig {
            sample_interval: Some(cfg.mem.data_rate.clock_period() * 512),
            trace: true,
        };
        // Same automatic L2 warm-up as `RunSpec::run`, so the two
        // series differ only in instrumentation.
        let l2_lines = u64::from(cfg.cpu.l2_bytes) / fbd_types::CACHE_LINE_BYTES;
        let warmup = 2 * l2_lines / u64::from(cfg.cpu.cores);
        b.iter(|| {
            let mut sys = fbd_core::System::new(&cfg, w.traces(exp.seed), exp.budget);
            sys.warm(warmup);
            sys.enable_telemetry(&tc);
            black_box(sys.run().elapsed)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mapping,
    bench_amb_cache,
    bench_amb_tag_table,
    bench_dram_plan_commit,
    bench_bus_earliest_fit,
    bench_timeline,
    bench_full_system
);
criterion_main!(benches);

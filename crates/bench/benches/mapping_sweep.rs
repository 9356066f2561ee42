//! Benchmark for the warm-start sweep engine: one circuit × eight parameter
//! variants, warm (`Job::sweep` reusing one prepared flow) against cold
//! (each variant solo on a cache-disabled service). Results are written to
//! `BENCH_sweep.json` at the workspace root.
//!
//! Every warm variant is byte-compared against its cold solo run at every
//! thread count before any timing happens — determinism is the hard
//! invariant (CI gates on `all_deterministic`); the speedup curve is the
//! payoff: the choice construction, cut enumeration and candidate matching
//! are paid once per sweep instead of once per variant, so warm throughput
//! approaches `1 / (share of per-variant covering work)`.
//!
//! Set `MCH_BENCH_SMOKE=1` for a reduced circuit with fewer samples (used
//! by CI).

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::{adder, multiplier};
use mch_core::service::{Job, JobReport, MappingService};
use mch_core::{CutCost, JobKind, JobOutput, MchConfig};
use mch_io::write_lut_blif;
use mch_techlib::LutLibrary;
use std::fmt::Write as _;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The swept circuit: big enough that choice construction and cut
/// enumeration dominate a single flow.
fn circuit() -> mch_core::Network {
    if std::env::var_os("MCH_BENCH_SMOKE").is_some() {
        adder(16)
    } else {
        multiplier(12)
    }
}

/// Eight LUT parameter variants sharing one choice construction: only
/// mapper-side knobs vary (recovery rounds, exact area, cut ranking), so
/// every variant keys to the same prepared flow.
fn variants(threads: usize) -> Vec<MchConfig> {
    let base = MchConfig::lut_area().with_threads(threads);
    let mut structural = base.clone();
    structural.cut_ranking = CutCost::Structural;
    let mut depth = base.clone().with_area_rounds(2);
    depth.cut_ranking = CutCost::Depth;
    vec![
        base.clone(),
        base.clone().with_area_rounds(0),
        base.clone().with_area_rounds(4),
        base.clone().with_exact_area(true),
        base.clone().with_area_rounds(6).with_exact_area(true),
        structural,
        depth,
        base.with_area_rounds(1),
    ]
}

/// A service with warm starts disabled: the cold reference.
fn cold_service() -> MappingService {
    MappingService::new().with_prepared_capacity(0)
}

fn sweep_job(threads: usize) -> Job {
    Job::sweep(
        "sweep",
        circuit(),
        JobKind::LutMch(LutLibrary::k6()),
        variants(threads),
    )
}

/// Deterministic fingerprint of one variant's report: netlist bytes plus
/// the degradation trace (wall times excluded).
fn fingerprint(report: &JobReport) -> String {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    match out {
        JobOutput::Lut(r) => {
            assert!(r.verified, "{} did not verify", report.name);
            format!("{}\n{:?}", write_lut_blif(&r.netlist), r.degradation)
        }
        _ => panic!("{}: sweep variants are LUT jobs", report.name),
    }
}

/// The hard gate: every variant of a warm sweep at `threads` byte-matches
/// that variant run cold and solo at the same thread count.
fn check_determinism(threads: usize) -> bool {
    let network = circuit();
    let lut = LutLibrary::k6();
    let cold: Vec<String> = variants(threads)
        .into_iter()
        .map(|cfg| fingerprint(&cold_service().run(Job::lut("cold", network.clone(), lut, cfg))))
        .collect();
    let report = MappingService::new().run(sweep_job(threads));
    let out = report.outcome.expect("sweep job failed");
    let sweep = match &out {
        JobOutput::Sweep(reports) => reports,
        _ => panic!("expected a sweep output"),
    };
    sweep.len() == cold.len()
        && sweep
            .iter()
            .zip(&cold)
            .all(|(report, want)| &fingerprint(report) == want)
}

fn main() {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let sample_size = if smoke { 2 } else { 3 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let network = circuit();
    let n_variants = variants(1).len();

    // Determinism first, outside all timing.
    let deterministic: Vec<(usize, bool)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, check_determinism(t)))
        .collect();
    let all_deterministic = deterministic.iter().all(|&(_, ok)| ok);

    let mut c = Criterion::new();
    let mut group = c.benchmark_group("mapping_sweep");
    group.sample_size(sample_size);
    for &t in &THREAD_COUNTS {
        // Cold baseline: each variant as its own job on a cache-disabled
        // service — the pre-warm-start deployment, fresh service per sample.
        group.bench_function(format!("cold/{t}threads"), |b| {
            b.iter(|| {
                let service = cold_service();
                let lut = LutLibrary::k6();
                for cfg in variants(t) {
                    let report = service.run(Job::lut("cold", network.clone(), lut, cfg));
                    assert!(report.outcome.is_ok());
                }
            })
        });
        // Warm sweep: one `Job::sweep`, cold cache per sample — the first
        // variant builds the prepared flow, the other seven reuse it.
        group.bench_function(format!("warm/{t}threads"), |b| {
            b.iter(|| {
                let service = MappingService::new();
                let report = service.run(sweep_job(t));
                assert!(report.outcome.is_ok());
            })
        });
    }
    group.finish();
    let records = c.records();
    let base = records.len() - 2 * THREAD_COUNTS.len();
    let cold_ns: Vec<f64> = (0..THREAD_COUNTS.len())
        .map(|i| records[base + 2 * i].median_ns)
        .collect();
    let warm_ns: Vec<f64> = (0..THREAD_COUNTS.len())
        .map(|i| records[base + 2 * i + 1].median_ns)
        .collect();
    c.final_summary();

    let speedups: Vec<f64> = cold_ns.iter().zip(&warm_ns).map(|(c, w)| c / w).collect();
    let geomean_speedup =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();

    // Cache telemetry from one warm sweep on a fresh service.
    let stats_service = MappingService::new();
    let report = stats_service.run(sweep_job(4));
    assert!(report.outcome.is_ok());
    let stats = stats_service.stats();

    let vps = |ns: f64| n_variants as f64 / (ns / 1e9);

    let mut json = String::from("{\n  \"bench\": \"mapping_sweep\",\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {host_cpus},\n  \"circuit\": {{\"gates\": {}, \"variants\": {n_variants}}},",
        network.gate_count()
    );
    let _ = writeln!(json, "  \"thread_counts\": [1, 2, 4, 8],\n  \"sweep\": [");
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {t}, \"cold_ns\": {:.0}, \"warm_ns\": {:.0}, \"cold_variants_per_sec\": {:.3}, \"warm_variants_per_sec\": {:.3}, \"speedup_warm_vs_cold\": {:.2}}}{}",
            cold_ns[i],
            warm_ns[i],
            vps(cold_ns[i]),
            vps(warm_ns[i]),
            speedups[i],
            if i + 1 < THREAD_COUNTS.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"geomean_speedup\": {geomean_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"prepared_cache\": {{\"entries\": {}, \"bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}},",
        stats.prepared_entries,
        stats.prepared_bytes,
        stats.prepared_hits,
        stats.prepared_misses,
        stats.prepared_evictions
    );
    let _ = writeln!(json, "  \"all_deterministic\": {all_deterministic}\n}}");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    std::fs::write(&out, &json).expect("write BENCH_sweep.json");

    eprintln!(
        "\nwarm-start sweep: {} gates × {n_variants} variants, host has {host_cpus} cpu(s):",
        network.gate_count()
    );
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        let (_, det) = deterministic[i];
        eprintln!(
            "  @{t}t  cold {:>10}  warm {:>10}  ×{:.2} warm vs cold{}",
            format_ns(cold_ns[i]),
            format_ns(warm_ns[i]),
            speedups[i],
            if det { "" } else { "  !! NONDETERMINISTIC" },
        );
    }
    eprintln!(
        "  geomean ×{geomean_speedup:.2} (prepared cache: {} hits / {} misses, {} entries, {} bytes)",
        stats.prepared_hits, stats.prepared_misses, stats.prepared_entries, stats.prepared_bytes
    );
    assert!(
        all_deterministic,
        "a warm sweep variant diverged from its cold solo run"
    );
    eprintln!("wrote {}", out.display());
}

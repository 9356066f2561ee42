//! Benchmark for the zero-allocation priority-cut enumeration rewrite.
//!
//! Times 6-input cut enumeration (`CutParams::new(6, 8)`, the default mapping
//! configuration) over the benchmark suite, comparing the inline
//! implementation against the preserved heap-allocating baseline in
//! `mch_cut::legacy`. Results — per-circuit medians and the aggregate
//! geometric-mean speedup — are written to `BENCH_cuts.json` at the workspace
//! root so the perf trajectory of the cut layer is recorded next to the code.
//!
//! Set `MCH_BENCH_SMOKE=1` to run a reduced circuit list with fewer samples
//! (used by CI); set `MCH_BENCH_FULL=1` to run the entire EPFL-like suite.

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::{benchmark, epfl_suite, epfl_suite_small};
use mch_cut::{enumerate_cuts, legacy_enumerate_cuts, CutParams};
use mch_logic::{convert, Network, NetworkKind};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Row {
    circuit: String,
    gates: usize,
    total_cuts: usize,
    legacy_ns: f64,
    inline_ns: f64,
}

fn gather_circuits() -> Vec<(String, Network)> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    let mut circuits: Vec<(String, Network)> = if smoke {
        ["ctrl", "int2float", "cavlc"]
            .iter()
            .filter_map(|n| benchmark(n).map(|net| (n.to_string(), net)))
            .collect()
    } else if full {
        epfl_suite()
            .into_iter()
            .map(|b| (b.name.to_string(), b.network))
            .collect()
    } else {
        epfl_suite_small()
            .into_iter()
            .map(|b| (b.name.to_string(), b.network))
            .collect()
    };
    // A majority-based view exercises the 3-fanin merge path as well.
    if let Some(net) = benchmark("voter") {
        let mig = convert(&net, NetworkKind::Mig);
        circuits.push(("voter_mig".to_string(), mig));
    }
    circuits
}

fn main() {
    let params = CutParams::new(6, 8);
    let sample_size = if std::env::var_os("MCH_BENCH_SMOKE").is_some() {
        5
    } else {
        10
    };
    let circuits = gather_circuits();
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut c = Criterion::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let total_cuts = enumerate_cuts(net, &params).total_cuts();
        let mut group = c.benchmark_group(format!("cut_enum6/{name}"));
        group.sample_size(sample_size);
        group.bench_function("legacy", |b| b.iter(|| legacy_enumerate_cuts(net, &params)));
        group.bench_function("inline", |b| b.iter(|| enumerate_cuts(net, &params)));
        group.finish();
        let records = c.records();
        let legacy_ns = records[records.len() - 2].median_ns;
        let inline_ns = records[records.len() - 1].median_ns;
        rows.push(Row {
            circuit: name.clone(),
            gates: net.gate_count(),
            total_cuts,
            legacy_ns,
            inline_ns,
        });
    }
    c.final_summary();

    let geomean: f64 = (rows
        .iter()
        .map(|r| (r.legacy_ns / r.inline_ns).ln())
        .sum::<f64>()
        / rows.len() as f64)
        .exp();

    let mut json = format!(
        "{{\n  \"bench\": \"cut_enum6\",\n  \"params\": {{\"cut_size\": 6, \"cut_limit\": 8}},\n  \"host_cpus\": {host_cpus},\n  \"circuits\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"total_cuts\": {}, \"legacy_ns\": {:.0}, \"inline_ns\": {:.0}, \"speedup\": {:.2}}}{}",
            r.circuit,
            r.gates,
            r.total_cuts,
            r.legacy_ns,
            r.inline_ns,
            r.legacy_ns / r.inline_ns,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ],\n  \"geomean_speedup\": {geomean:.2}\n}}\n");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cuts.json");
    std::fs::write(&out, &json).expect("write BENCH_cuts.json");

    eprintln!("\nper-circuit speedups (legacy → inline):");
    for r in &rows {
        eprintln!(
            "  {:<12} {:>6} gates  {:>10} → {:>10}  ×{:.2}",
            r.circuit,
            r.gates,
            format_ns(r.legacy_ns),
            format_ns(r.inline_ns),
            r.legacy_ns / r.inline_ns
        );
    }
    eprintln!("geomean speedup: ×{geomean:.2}");
    eprintln!("wrote {}", out.display());
}

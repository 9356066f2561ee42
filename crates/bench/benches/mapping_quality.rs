//! Benchmark for the delay/area-flow-aware cut ranking.
//!
//! Maps every suite circuit twice at the same `cut_limit` — once with the
//! static `(size, leaves)` structural cut order and once with the hybrid
//! (depth + area-flow) ranking — through both mappers:
//!
//! * **6-LUT mapping** (balanced objective): LUT count and LUT levels;
//! * **ASIC mapping** onto `asap7_lite` (balanced objective): cell area and
//!   critical-path delay.
//!
//! The per-circuit numbers and the aggregate geometric-mean ratios
//! (`hybrid / structural`, lower is better) are written to
//! `BENCH_mapping.json` at the workspace root. The headline claim this file
//! records: at the same cut limit, cost-aware ranking maps **no deeper and no
//! larger** than the static order on geomean.
//!
//! Set `MCH_BENCH_SMOKE=1` for the reduced CI circuit list; set
//! `MCH_BENCH_FULL=1` for the entire EPFL-like suite.

use mch_benchmarks::{benchmark, epfl_suite, epfl_suite_small};
use mch_core::{try_lut_flow_mch, try_lut_flow_mch_with_budget, FlowBudget, MchConfig};
use mch_cut::CutCost;
use mch_logic::Network;
use mch_mapper::{
    map_asic_network, map_lut_network, AsicMapParams, LutMapParams, MappingObjective,
};
use mch_techlib::{asap7_lite, LutLibrary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Row {
    circuit: String,
    gates: usize,
    structural_luts: usize,
    structural_levels: u32,
    hybrid_luts: usize,
    hybrid_levels: u32,
    structural_area: f64,
    structural_delay: f64,
    hybrid_area: f64,
    hybrid_delay: f64,
}

fn gather_circuits() -> Vec<(String, Network)> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    if smoke {
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
    }
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0f64, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (sum / n as f64).exp()
}

fn main() {
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    let objective = MappingObjective::Balanced;
    let circuits = gather_circuits();
    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        eprintln!("mapping {name}…");
        let lut_params = LutMapParams::new(objective);
        let asic_params = AsicMapParams::new(objective);
        let s_lut = map_lut_network(net, &lut, &lut_params.with_ranking(CutCost::Structural));
        let h_lut = map_lut_network(net, &lut, &lut_params.with_ranking(CutCost::Hybrid));
        let s_asic = map_asic_network(net, &lib, &asic_params.with_ranking(CutCost::Structural));
        let h_asic = map_asic_network(net, &lib, &asic_params.with_ranking(CutCost::Hybrid));
        rows.push(Row {
            circuit: name.clone(),
            gates: net.gate_count(),
            structural_luts: s_lut.lut_count(),
            structural_levels: s_lut.level_count(),
            hybrid_luts: h_lut.lut_count(),
            hybrid_levels: h_lut.level_count(),
            structural_area: s_asic.area(&lib),
            structural_delay: s_asic.delay(&lib),
            hybrid_area: h_asic.area(&lib),
            hybrid_delay: h_asic.delay(&lib),
        });
    }

    // Supervision overhead: the same MCH LUT flow once plain and once with a
    // generous (enabled-but-unbreached) `FlowBudget`. The budgeted run pays
    // for preflight validation and the phase-boundary budget checks, but no
    // degradation rung fires — so the mapped result must be metric-identical
    // and the wall-clock ratio within measurement noise. Two interleaved
    // samples per variant, best-of taken, to shave scheduler jitter.
    struct Supervised {
        circuit: String,
        plain_ms: f64,
        budgeted_ms: f64,
    }
    let generous = FlowBudget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_max_cut_arena_slots(usize::MAX)
        .with_max_resynthesis_candidates(usize::MAX);
    let flow_config = MchConfig::lut_area();
    let mut supervised: Vec<Supervised> = Vec::new();
    for (name, net) in &circuits {
        eprintln!("supervising {name}…");
        let (mut plain_ms, mut budgeted_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let t = Instant::now();
            let plain = try_lut_flow_mch(net, &lut, &flow_config).expect("MCH LUT flow failed");
            plain_ms = plain_ms.min(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            let budgeted = try_lut_flow_mch_with_budget(net, &lut, &flow_config, &generous)
                .expect("a generous budget must not fail a valid circuit");
            budgeted_ms = budgeted_ms.min(t.elapsed().as_secs_f64() * 1e3);

            assert!(
                !budgeted.degradation.degraded(),
                "{name}: a generous budget must not trip the degradation ladder"
            );
            assert_eq!(
                (plain.luts, plain.levels),
                (budgeted.luts, budgeted.levels),
                "{name}: an unbreached budget changed the mapped result"
            );
        }
        supervised.push(Supervised {
            circuit: name.clone(),
            plain_ms,
            budgeted_ms,
        });
    }
    let supervision_ratio = geomean(supervised.iter().map(|s| s.budgeted_ms / s.plain_ms));

    let lut_level_ratio = geomean(
        rows.iter()
            .map(|r| r.hybrid_levels as f64 / r.structural_levels as f64),
    );
    let lut_count_ratio = geomean(
        rows.iter()
            .map(|r| r.hybrid_luts as f64 / r.structural_luts as f64),
    );
    let asic_delay_ratio = geomean(rows.iter().map(|r| r.hybrid_delay / r.structural_delay));
    let asic_area_ratio = geomean(rows.iter().map(|r| r.hybrid_area / r.structural_area));

    let mut json = String::from(
        "{\n  \"bench\": \"mapping_quality\",\n  \"params\": {\"cut_limit\": 8, \"objective\": \"balanced\", \"lut_k\": 6, \"library\": \"asap7_lite\"},\n  \"circuits\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"structural\": {{\"luts\": {}, \"levels\": {}, \"area\": {:.3}, \"delay\": {:.3}}}, \"hybrid\": {{\"luts\": {}, \"levels\": {}, \"area\": {:.3}, \"delay\": {:.3}}}}}{}",
            r.circuit,
            r.gates,
            r.structural_luts,
            r.structural_levels,
            r.structural_area,
            r.structural_delay,
            r.hybrid_luts,
            r.hybrid_levels,
            r.hybrid_area,
            r.hybrid_delay,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"geomean_hybrid_over_structural\": {{\"lut_levels\": {lut_level_ratio:.4}, \"lut_count\": {lut_count_ratio:.4}, \"asic_delay\": {asic_delay_ratio:.4}, \"asic_area\": {asic_area_ratio:.4}}},\n  \"supervision_overhead\": {{\n    \"flows\": [\n"
    );
    for (i, s) in supervised.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"circuit\": \"{}\", \"plain_ms\": {:.3}, \"budgeted_ms\": {:.3}}}{}",
            s.circuit,
            s.plain_ms,
            s.budgeted_ms,
            if i + 1 < supervised.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        "    ],\n    \"results_identical\": true,\n    \"geomean_time_ratio\": {supervision_ratio:.4}\n  }}\n}}\n"
    );

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_mapping.json");
    std::fs::write(&out, &json).expect("write BENCH_mapping.json");

    eprintln!(
        "\nper-circuit hybrid vs structural (LUT levels / LUT count / ASIC delay / ASIC area):"
    );
    for r in &rows {
        eprintln!(
            "  {:<12} {:>6} gates  levels {:>2} vs {:>2}   luts {:>5} vs {:>5}   delay {:>8.1} vs {:>8.1}   area {:>9.2} vs {:>9.2}",
            r.circuit,
            r.gates,
            r.hybrid_levels,
            r.structural_levels,
            r.hybrid_luts,
            r.structural_luts,
            r.hybrid_delay,
            r.structural_delay,
            r.hybrid_area,
            r.structural_area,
        );
    }
    eprintln!(
        "geomean ratios (hybrid/structural): LUT levels {lut_level_ratio:.4}, LUT count {lut_count_ratio:.4}, ASIC delay {asic_delay_ratio:.4}, ASIC area {asic_area_ratio:.4}"
    );
    eprintln!("\nsupervision overhead (budgeted-but-unbreached MCH LUT flow vs plain):");
    for s in &supervised {
        eprintln!(
            "  {:<12} plain {:>9.2} ms   budgeted {:>9.2} ms   ratio {:.3}",
            s.circuit,
            s.plain_ms,
            s.budgeted_ms,
            s.budgeted_ms / s.plain_ms,
        );
    }
    eprintln!("geomean supervision time ratio (budgeted/plain): {supervision_ratio:.4}");
    eprintln!("wrote {}", out.display());
}

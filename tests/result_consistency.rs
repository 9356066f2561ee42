//! Consistency of reported flow statistics with the emitted netlists.
//!
//! `AsicFlowResult` / `LutFlowResult` carry both the netlist and headline
//! numbers (area, delay, LUT count, levels). This suite recomputes each
//! statistic **independently** from the emitted netlist — its own summation
//! and longest-path walks, not the netlist methods the flows call — and
//! asserts the reported numbers match exactly. A refactor that changes what
//! the mappers emit without updating what the flows report (or vice versa)
//! fails here.

use mch::benchmarks::benchmark;
use mch::core::{
    try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch, try_lut_flow_baseline,
    try_lut_flow_mch, AsicFlowResult, FlowError, LutFlowResult, MchConfig,
};
use mch::mapper::{MappingObjective, NetRef};
use mch::opt::compress2rs_like;
use mch::techlib::{asap7_lite, Library, LutLibrary};

/// Independent recomputation of total cell area: plain sum over instances.
fn recompute_area(result: &AsicFlowResult, lib: &Library) -> f64 {
    result
        .netlist
        .gates()
        .iter()
        .map(|g| lib.cell(g.cell).area())
        .sum()
}

/// Independent recomputation of the critical path under the per-cell
/// pin-to-output delay model: longest arrival over the outputs.
fn recompute_delay(result: &AsicFlowResult, lib: &Library) -> f64 {
    let gates = result.netlist.gates();
    let mut arrival = vec![0.0f64; gates.len()];
    for (i, g) in gates.iter().enumerate() {
        let worst_in = g
            .fanins
            .iter()
            .map(|f| match f {
                NetRef::Gate(j) => arrival[*j],
                _ => 0.0,
            })
            .fold(0.0, f64::max);
        arrival[i] = worst_in + lib.cell(g.cell).delay();
    }
    result
        .netlist
        .outputs()
        .iter()
        .map(|o| match o {
            NetRef::Gate(i) => arrival[*i],
            _ => 0.0,
        })
        .fold(0.0, f64::max)
}

/// Independent recomputation of LUT levels: longest gate-edge path from any
/// input/constant to an output.
fn recompute_levels(result: &LutFlowResult) -> u32 {
    let luts = result.netlist.luts();
    let mut level = vec![0u32; luts.len()];
    for (i, l) in luts.iter().enumerate() {
        level[i] = 1 + l
            .fanins
            .iter()
            .map(|f| match f {
                NetRef::Gate(j) => level[*j],
                _ => 0,
            })
            .max()
            .unwrap_or(0);
    }
    result
        .netlist
        .outputs()
        .iter()
        .map(|o| match o {
            NetRef::Gate(i) => level[*i],
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn asic_flow_results_match_their_netlists() -> Result<(), FlowError> {
    let lib = asap7_lite();
    for name in ["int2float", "cavlc"] {
        let input = compress2rs_like(&benchmark(name).unwrap(), 1);
        let flows = [
            try_asic_flow_baseline(&input, &lib, MappingObjective::Balanced)?,
            try_asic_flow_baseline(&input, &lib, MappingObjective::Area)?,
            try_asic_flow_dch(&input, &lib, MappingObjective::Balanced)?,
            try_asic_flow_mch(&input, &lib, &MchConfig::balanced())?,
            try_asic_flow_mch(
                &input,
                &lib,
                &MchConfig::area_oriented()
                    .with_area_rounds(5)
                    .with_exact_area(true),
            )?,
        ];
        for f in &flows {
            assert!(f.verified, "{name}/{}: flow did not verify", f.flow);
            let area = recompute_area(f, &lib);
            let delay = recompute_delay(f, &lib);
            assert_eq!(
                f.area.to_bits(),
                area.to_bits(),
                "{name}/{}: reported area {} != netlist area {}",
                f.flow,
                f.area,
                area
            );
            assert_eq!(
                f.delay.to_bits(),
                delay.to_bits(),
                "{name}/{}: reported delay {} != netlist delay {}",
                f.flow,
                f.delay,
                delay
            );
            // And the netlist's own accessors agree with the independent walk.
            assert_eq!(f.netlist.area(&lib).to_bits(), area.to_bits());
            assert_eq!(f.netlist.delay(&lib).to_bits(), delay.to_bits());
        }
    }
    Ok(())
}

#[test]
fn lut_flow_results_match_their_netlists() -> Result<(), FlowError> {
    let lut = LutLibrary::k6();
    for name in ["int2float", "dec"] {
        let input = compress2rs_like(&benchmark(name).unwrap(), 1);
        let flows = [
            try_lut_flow_baseline(&input, &lut, MappingObjective::Area)?,
            try_lut_flow_baseline(&input, &lut, MappingObjective::Delay)?,
            try_lut_flow_mch(&input, &lut, &MchConfig::lut_area())?,
            try_lut_flow_mch(
                &input,
                &lut,
                &MchConfig::lut_area()
                    .with_area_rounds(6)
                    .with_exact_area(true),
            )?,
        ];
        for f in &flows {
            assert!(f.verified, "{name}/{}: flow did not verify", f.flow);
            assert_eq!(
                f.luts,
                f.netlist.luts().len(),
                "{name}/{}: reported LUT count disagrees with the netlist",
                f.flow
            );
            assert_eq!(
                f.levels,
                recompute_levels(f),
                "{name}/{}: reported level count disagrees with the netlist",
                f.flow
            );
            assert_eq!(f.netlist.level_count(), recompute_levels(f));
        }
    }
    Ok(())
}

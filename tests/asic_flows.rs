//! Integration tests of the end-to-end ASIC flows (Table-I shape checks).

use mch::benchmarks::benchmark;
use mch::core::{
    prepare_input, try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch, FlowError,
    MchConfig,
};
use mch::mapper::MappingObjective;
use mch::techlib::asap7_lite;

#[test]
fn all_flows_verify_on_control_benchmarks() -> Result<(), FlowError> {
    let library = asap7_lite();
    for name in ["int2float", "ctrl", "dec"] {
        let input = prepare_input(&benchmark(name).unwrap(), 1);
        let flows = [
            try_asic_flow_baseline(&input, &library, MappingObjective::Balanced)?,
            try_asic_flow_dch(&input, &library, MappingObjective::Balanced)?,
            try_asic_flow_mch(&input, &library, &MchConfig::balanced())?,
            try_asic_flow_mch(&input, &library, &MchConfig::delay_oriented())?,
            try_asic_flow_mch(&input, &library, &MchConfig::area_oriented())?,
        ];
        for f in &flows {
            assert!(f.verified, "{name}: {} failed verification", f.flow);
            assert!(f.area > 0.0 && f.delay > 0.0, "{name}: {}", f.flow);
        }
    }
    Ok(())
}

#[test]
fn mch_area_flow_beats_or_matches_baseline_area_on_arithmetic() -> Result<(), FlowError> {
    let library = asap7_lite();
    let input = prepare_input(&benchmark("max").unwrap(), 2);
    let baseline = try_asic_flow_baseline(&input, &library, MappingObjective::Area)?;
    let mch = try_asic_flow_mch(&input, &library, &MchConfig::area_oriented())?;
    assert!(mch.verified);
    assert!(
        mch.area <= baseline.area * 1.02 + 1e-9,
        "MCH area {} should not exceed baseline area {} by more than 2%",
        mch.area,
        baseline.area
    );
    Ok(())
}

#[test]
fn mch_delay_flow_beats_or_matches_baseline_delay_on_arithmetic() -> Result<(), FlowError> {
    let library = asap7_lite();
    let input = prepare_input(&benchmark("max").unwrap(), 2);
    let baseline = try_asic_flow_baseline(&input, &library, MappingObjective::Delay)?;
    let mch = try_asic_flow_mch(&input, &library, &MchConfig::delay_oriented())?;
    assert!(mch.verified);
    assert!(
        mch.delay <= baseline.delay * 1.02 + 1e-9,
        "MCH delay {} should not exceed baseline delay {} by more than 2%",
        mch.delay,
        baseline.delay
    );
    Ok(())
}

#[test]
fn objectives_trade_area_for_delay() -> Result<(), FlowError> {
    let library = asap7_lite();
    let input = prepare_input(&benchmark("adder").unwrap(), 1);
    let delay = try_asic_flow_mch(&input, &library, &MchConfig::delay_oriented())?;
    let area = try_asic_flow_mch(&input, &library, &MchConfig::area_oriented())?;
    assert!(delay.verified && area.verified);
    // The delay-oriented result must be at least as fast as the area-oriented
    // one; the area-oriented result at least as small as the delay-oriented.
    assert!(delay.delay <= area.delay + 1e-9);
    assert!(area.area <= delay.area + 1e-9);
    Ok(())
}

//! Integration tests of the FPGA (6-LUT) flows (Table-II shape checks).

use mch::benchmarks::benchmark;
use mch::core::{
    try_lut_flow_baseline, try_lut_flow_mch, try_lut_flow_mch_fused_with_budget,
    try_lut_flow_mch_with_budget, DegradationStep, FlowBudget, FlowError, Job, MappingService,
    MchConfig,
};
use mch::mapper::MappingObjective;
use mch::opt::compress2rs_like;
use mch::techlib::{asap7_lite, LutLibrary};

#[test]
fn lut_flows_verify_on_a_mix_of_circuits() -> Result<(), FlowError> {
    let lut = LutLibrary::k6();
    for name in ["int2float", "priority", "dec"] {
        let input = compress2rs_like(&benchmark(name).unwrap(), 1);
        let base = try_lut_flow_baseline(&input, &lut, MappingObjective::Area)?;
        let mch = try_lut_flow_mch(&input, &lut, &MchConfig::lut_area())?;
        assert!(base.verified, "{name}: baseline failed verification");
        assert!(mch.verified, "{name}: MCH failed verification");
        assert!(base.luts > 0 && mch.luts > 0);
    }
    Ok(())
}

#[test]
fn mch_lut_mapping_never_much_worse_than_baseline() -> Result<(), FlowError> {
    let lut = LutLibrary::k6();
    for name in ["sin", "int2float", "max"] {
        let input = compress2rs_like(&benchmark(name).unwrap(), 2);
        let base = try_lut_flow_baseline(&input, &lut, MappingObjective::Area)?;
        let mch = try_lut_flow_mch(&input, &lut, &MchConfig::lut_area())?;
        assert!(
            mch.luts as f64 <= base.luts as f64 * 1.05 + 1.0,
            "{name}: MCH {} LUTs vs baseline {} LUTs",
            mch.luts,
            base.luts
        );
    }
    Ok(())
}

#[test]
fn smaller_k_increases_lut_count() -> Result<(), FlowError> {
    let input = compress2rs_like(&benchmark("int2float").unwrap(), 1);
    let k6 = try_lut_flow_baseline(&input, &LutLibrary::k6(), MappingObjective::Area)?;
    let k4 = try_lut_flow_baseline(&input, &LutLibrary::k4(), MappingObjective::Area)?;
    assert!(k4.luts >= k6.luts);
    Ok(())
}

#[test]
fn delay_objective_gives_fewer_levels() -> Result<(), FlowError> {
    let input = compress2rs_like(&benchmark("priority").unwrap(), 1);
    let lut = LutLibrary::k6();
    let delay = try_lut_flow_baseline(&input, &lut, MappingObjective::Delay)?;
    let area = try_lut_flow_baseline(&input, &lut, MappingObjective::Area)?;
    assert!(delay.levels <= area.levels);
    Ok(())
}

#[test]
fn plain_lut_entry_points_ignore_config_fusion() -> Result<(), FlowError> {
    // Fusion needs the guide's cell library, which only the fused entry
    // points carry: the plain LUT flow and `Job::lut` run a fusion config
    // exactly as fusion off — same netlist, and no fusion budget rung.
    let input = benchmark("ctrl").unwrap();
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    let area = try_lut_flow_mch(&input, &lut, &MchConfig::lut_area())?;
    let fusion = try_lut_flow_mch(&input, &lut, &MchConfig::lut_fusion())?;
    assert_eq!(area.netlist, fusion.netlist);

    let service = MappingService::new();
    for config in [MchConfig::lut_area(), MchConfig::lut_fusion()] {
        let out = service
            .run(Job::lut("plain", input.clone(), lut, config))
            .outcome?;
        assert_eq!(out.as_lut().expect("a LUT job").netlist, area.netlist);
    }

    // A slot cap that cannot hold the guide's second cut arena: the fused
    // flow sheds fusion, the plain flows never had it.
    let budget = FlowBudget::unlimited().with_max_cut_arena_slots(400);
    let fused =
        try_lut_flow_mch_fused_with_budget(&input, &lut, &lib, &MchConfig::lut_fusion(), &budget)?;
    assert!(
        fused
            .degradation
            .steps
            .contains(&DegradationStep::FusionDropped),
        "the cap must make the fused flow shed fusion: {:?}",
        fused.degradation.steps
    );
    let plain = try_lut_flow_mch_with_budget(&input, &lut, &MchConfig::lut_fusion(), &budget)?;
    let job = Job::lut("plain", input.clone(), lut, MchConfig::lut_fusion()).with_budget(budget);
    let served = service.run(job).outcome?;
    for report in [&plain.degradation, served.degradation()] {
        assert!(
            !report.steps.contains(&DegradationStep::FusionDropped),
            "a plain LUT flow has no fusion to drop: {:?}",
            report.steps
        );
    }
    assert_eq!(plain.netlist, fused.netlist);
    Ok(())
}

//! Structured-error behaviour of the fallible flow entry points.
//!
//! Malformed networks and libraries must surface as `FlowError` values from
//! every `try_*` flow — never as an internal assertion ten frames deep.

use mch::benchmarks::demo_adder_gt;
use mch::core::{FlowError, Job, MappingService, MchConfig};
use mch::logic::{Network, NetworkKind, TruthTable};
use mch::mapper::MappingObjective;
use mch::techlib::{asap7_lite, Cell, Library, LutLibrary};

fn outputless() -> Network {
    let mut n = Network::new(NetworkKind::Aig);
    let a = n.add_input();
    let b = n.add_input();
    let _ = n.and2(a, b);
    n
}

fn constant_only() -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "constant-only");
    n.add_output(n.constant(true));
    n.add_output(n.constant(false));
    n
}

fn zero_gate() -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "zero-gate");
    let a = n.add_input();
    let b = n.add_input();
    n.add_output(a);
    n.add_output(!b);
    n
}

#[test]
fn outputless_networks_are_rejected_by_every_flow() {
    let n = outputless();
    let lib = asap7_lite();
    let lut = LutLibrary::k6();
    let cfg = MchConfig::balanced();
    let expect_invalid = |e: FlowError| {
        assert!(
            matches!(e, FlowError::InvalidNetwork { .. }),
            "expected InvalidNetwork, got {e}"
        );
    };
    expect_invalid(
        mch::core::try_asic_flow_baseline(&n, &lib, MappingObjective::Balanced).unwrap_err(),
    );
    expect_invalid(mch::core::try_asic_flow_dch(&n, &lib, MappingObjective::Balanced).unwrap_err());
    expect_invalid(mch::core::try_asic_flow_mch(&n, &lib, &cfg).unwrap_err());
    expect_invalid(mch::core::try_lut_flow_baseline(&n, &lut, MappingObjective::Area).unwrap_err());
    expect_invalid(mch::core::try_lut_flow_mch(&n, &lut, &MchConfig::lut_area()).unwrap_err());
    expect_invalid(mch::core::try_build_mch(&n, &cfg.mch).unwrap_err());
}

#[test]
fn defective_libraries_are_rejected_with_context() {
    let net = demo_adder_gt();

    let empty = Library::new("empty");
    let err = mch::core::try_asic_flow_mch(&net, &empty, &MchConfig::balanced()).unwrap_err();
    assert!(matches!(err, FlowError::InvalidLibrary { .. }));
    assert!(err.to_string().contains("no cells"), "got: {err}");

    let mut no_inverter = Library::new("no-inverter");
    let a = TruthTable::var(2, 0);
    let b = TruthTable::var(2, 1);
    no_inverter.add_cell(Cell::new("AND2", a.and(&b), 1.0, 10.0));
    let err =
        mch::core::try_asic_flow_baseline(&net, &no_inverter, MappingObjective::Area).unwrap_err();
    assert!(err.to_string().contains("inverter"), "got: {err}");

    // An inverted cost model: a wide cell strictly cheaper AND faster than
    // the best narrow cell breaks the monotonicity the rankings assume.
    let mut inverted = Library::new("inverted");
    inverted.add_cell(Cell::new("INV", TruthTable::var(1, 0).not(), 5.0, 50.0));
    let x = TruthTable::var(3, 0);
    let y = TruthTable::var(3, 1);
    let z = TruthTable::var(3, 2);
    inverted.add_cell(Cell::new("AND3", x.and(&y).and(&z), 1.0, 10.0));
    let err =
        mch::core::try_asic_flow_dch(&net, &inverted, MappingObjective::Balanced).unwrap_err();
    assert!(err.to_string().contains("monotone"), "got: {err}");
}

#[test]
fn degenerate_networks_survive_the_fusion_path_without_panics() {
    // Constant-only and zero-gate networks have no gates for the ASIC guide
    // cover to harvest; both the plain fused entry point and the service job
    // must still return a verified trivial netlist (or a structured error),
    // never panic.
    for net in [constant_only(), zero_gate()] {
        for cfg in [
            MchConfig::lut_area(),
            MchConfig::lut_fusion(),
            MchConfig::lut_fusion().with_fusion(mch::core::FusionMode::Bias),
            MchConfig::lut_fusion().with_fusion(mch::core::FusionMode::Inject),
        ] {
            let label = format!("{}/{}", net.name(), cfg.name);
            let result =
                mch::core::try_lut_flow_mch_fused(&net, &LutLibrary::k6(), &asap7_lite(), &cfg)
                    .unwrap_or_else(|e| panic!("{label}: unexpected flow error: {e}"));
            assert!(result.verified, "{label}: trivial netlist not equivalent");
            // A complemented passthrough output may legitimately cost one
            // inverter LUT; anything beyond that is not a trivial netlist.
            assert!(
                result.luts <= net.output_count(),
                "{label}: gate-free input produced {} LUTs",
                result.luts
            );

            let service = MappingService::new();
            let reports = service.run_batch(vec![Job::lut_fused(
                label.clone(),
                net.clone(),
                LutLibrary::k6(),
                asap7_lite(),
                cfg.clone(),
            )]);
            let output = reports[0]
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{label}: service job failed: {e}"));
            assert!(output.verified(), "{label}: service netlist not equivalent");
        }
    }

    // Outputless networks still hit the validate_network preflight on the
    // fused entry points, same as every other flow.
    let err = mch::core::try_lut_flow_mch_fused(
        &outputless(),
        &LutLibrary::k6(),
        &asap7_lite(),
        &MchConfig::lut_fusion(),
    )
    .unwrap_err();
    assert!(
        matches!(err, FlowError::InvalidNetwork { .. }),
        "expected InvalidNetwork, got {err}"
    );
    let service = MappingService::new();
    let reports = service.run_batch(vec![Job::lut_fused(
        "outputless",
        outputless(),
        LutLibrary::k6(),
        asap7_lite(),
        MchConfig::lut_fusion(),
    )]);
    assert!(
        matches!(reports[0].outcome, Err(FlowError::InvalidNetwork { .. })),
        "service must surface the structured preflight error"
    );
}

#[test]
fn valid_inputs_flow_through_the_fallible_api() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let result = mch::core::try_lut_flow_mch(&net, &lut, &MchConfig::lut_area())
        .expect("a valid circuit must map");
    assert!(result.verified);
    assert!(!result.degradation.degraded());
    let choices = mch::core::try_build_mch(&net, &MchConfig::balanced().mch)
        .expect("a valid circuit must build choices");
    assert!(choices.network().len() >= net.len());
}

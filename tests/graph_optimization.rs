//! Integration tests of the MCH-based logic optimization (Fig. 6 shape
//! checks).

use mch::benchmarks::benchmark;
use mch::choice::MchParams;
use mch::logic::{cec, NetworkKind};
use mch::mapper::MappingObjective;
use mch::opt::{compress2rs_like, graph_map, iterate_graph_map, iterate_graph_map_mch};

#[test]
fn graph_mapping_between_all_representations_preserves_function() {
    let net = benchmark("int2float").unwrap();
    for target in NetworkKind::homogeneous() {
        let mapped = graph_map(&net, target, MappingObjective::Area);
        assert_eq!(mapped.kind(), target);
        assert!(
            cec(&net, &mapped).holds(),
            "{target} graph map broke equivalence"
        );
    }
}

#[test]
fn mch_graph_optimization_is_equivalent_and_competitive() {
    let net = benchmark("adder").unwrap();
    let objective = MappingObjective::Area;
    let baseline = iterate_graph_map(&net, NetworkKind::Xmg, objective, 3);
    let params = MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]);
    let with_mch = iterate_graph_map_mch(&net, NetworkKind::Xmg, &params, objective, 3);
    assert!(cec(&net, &baseline.network).holds());
    assert!(cec(&net, &with_mch.network).holds());
    assert!(
        with_mch.gate_count() as f64 <= baseline.gate_count() as f64 * 1.05 + 1.0,
        "MCH optimization should stay competitive: {} vs {}",
        with_mch.gate_count(),
        baseline.gate_count()
    );
}

#[test]
fn compress_then_graph_map_pipeline() {
    let net = benchmark("ctrl").unwrap();
    let optimized = compress2rs_like(&net, 2);
    assert!(cec(&net, &optimized).holds());
    assert!(optimized.gate_count() <= net.gate_count());
    let mig = graph_map(&optimized, NetworkKind::Mig, MappingObjective::Area);
    assert!(cec(&net, &mig).holds());
    let (and, xor, _) = mig.gate_profile();
    assert_eq!(and + xor, 0, "a MIG must contain only majority gates");
}

//! MCH-based logic optimization (the Fig. 5 / Fig. 6 application): iterated
//! graph mapping of a circuit into an XMG, with MIG+XMG mixed choices helping
//! the optimization escape its local optimum.
//!
//! Run with `cargo run --example logic_optimization --release -- adder`.

use mch::benchmarks::benchmark;
use mch::choice::MchParams;
use mch::logic::{cec, NetworkKind, NetworkStats};
use mch::mapper::MappingObjective;
use mch::opt::{iterate_graph_map, iterate_graph_map_mch};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "adder".to_string());
    let Some(circuit) = benchmark(&name) else {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    };
    println!("input: {}", NetworkStats::of(&circuit));

    let objective = MappingObjective::Area;
    let baseline = iterate_graph_map(&circuit, NetworkKind::Xmg, objective, 4);
    println!(
        "graph mapping (XMG only)  : {} nodes, {} levels after {} iterations",
        baseline.gate_count(),
        baseline.depth(),
        baseline.iterations
    );

    let params = MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]);
    let with_mch = iterate_graph_map_mch(&circuit, NetworkKind::Xmg, &params, objective, 4);
    println!(
        "graph mapping with MCH    : {} nodes, {} levels after {} iterations",
        with_mch.gate_count(),
        with_mch.depth(),
        with_mch.iterations
    );

    assert!(cec(&circuit, &baseline.network).holds());
    assert!(cec(&circuit, &with_mch.network).holds());
    println!("both optimized networks verified equivalent to the input.");
}

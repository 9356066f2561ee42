//! ASIC mapping of an EPFL-like benchmark through all Table-I flows.
//!
//! This is the workload the paper's introduction motivates: the same circuit
//! mapped with a single representation versus with mixed structural choices.
//!
//! Run with `cargo run --example asic_mapping --release -- max`
//! (any benchmark name from the suite works; `max` is the default).

use mch::benchmarks::benchmark;
use mch::core::{
    prepare_input, try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch, FlowError,
    MchConfig,
};
use mch::mapper::MappingObjective;
use mch::techlib::asap7_lite;

fn main() -> Result<(), FlowError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "max".to_string());
    let Some(circuit) = benchmark(&name) else {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    };
    let library = asap7_lite();
    let input = prepare_input(&circuit, 2);
    println!(
        "benchmark '{}': {} gates, depth {} after pre-optimization",
        name,
        input.gate_count(),
        input.depth()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>8}",
        "flow", "area um^2", "delay ps", "time s"
    );

    let rows = [
        try_asic_flow_baseline(&input, &library, MappingObjective::Balanced)?,
        try_asic_flow_dch(&input, &library, MappingObjective::Balanced)?,
        try_asic_flow_mch(&input, &library, &MchConfig::balanced())?,
        try_asic_flow_mch(&input, &library, &MchConfig::delay_oriented())?,
        try_asic_flow_mch(&input, &library, &MchConfig::area_oriented())?,
    ];
    for r in &rows {
        assert!(r.verified, "{} failed equivalence checking", r.flow);
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>8.2}",
            r.flow, r.area, r.delay, r.seconds
        );
    }
    Ok(())
}

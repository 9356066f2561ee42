//! FPGA 6-LUT mapping in the style of the EPFL best-results challenge
//! (Table II): area-focused LUT mapping with and without AIG+XMG mixed
//! structural choices.
//!
//! Run with `cargo run --example fpga_lut_mapping --release -- sin`.

use mch::benchmarks::benchmark;
use mch::core::{try_lut_flow_baseline, try_lut_flow_mch, FlowError, MchConfig};
use mch::mapper::MappingObjective;
use mch::opt::compress2rs_like;
use mch::techlib::LutLibrary;

fn main() -> Result<(), FlowError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sin".to_string());
    let Some(circuit) = benchmark(&name) else {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    };
    // The challenge input: an optimized AIG of the circuit.
    let input = compress2rs_like(&circuit, 2);
    let lut6 = LutLibrary::k6();

    let incumbent = try_lut_flow_baseline(&input, &lut6, MappingObjective::Area)?;
    let challenger = try_lut_flow_mch(&input, &lut6, &MchConfig::lut_area())?;

    println!("benchmark '{}': {} AIG nodes", name, input.gate_count());
    println!(
        "single-representation mapping : {:4} LUTs, {:3} levels (verified = {})",
        incumbent.luts, incumbent.levels, incumbent.verified
    );
    println!(
        "MCH (AIG + XMG) mapping       : {:4} LUTs, {:3} levels (verified = {})",
        challenger.luts, challenger.levels, challenger.verified
    );
    if challenger.luts < incumbent.luts {
        println!("MCH sets a new best result for this circuit.");
    }
    Ok(())
}

//! Quickstart: build a small circuit, create mixed structural choices and map
//! it to standard cells, comparing against the choice-free baseline.
//!
//! Run with `cargo run --example quickstart --release`.

use mch::core::{try_asic_flow_baseline, try_asic_flow_mch, FlowError, MchConfig};
use mch::logic::{Network, NetworkKind, NetworkStats};
use mch::mapper::MappingObjective;
use mch::techlib::asap7_lite;

fn main() -> Result<(), FlowError> {
    // 1. Build a 4-bit adder-comparator as an AIG.
    let mut circuit = Network::with_name(NetworkKind::Aig, "quickstart");
    let a = circuit.add_inputs(4);
    let b = circuit.add_inputs(4);
    let mut carry = circuit.constant(false);
    let mut sum = Vec::new();
    for i in 0..4 {
        let (s, c) = circuit.full_adder(a[i], b[i], carry);
        sum.push(s);
        carry = c;
    }
    let any = circuit.or_reduce(&sum);
    circuit.add_output(any);
    circuit.add_output(carry);
    println!("input circuit: {}", NetworkStats::of(&circuit));

    // 2. Map it with and without mixed structural choices.
    let library = asap7_lite();
    let baseline = try_asic_flow_baseline(&circuit, &library, MappingObjective::Balanced)?;
    let mch = try_asic_flow_mch(&circuit, &library, &MchConfig::balanced())?;

    println!(
        "baseline  : area {:8.3} um^2, delay {:7.2} ps, verified = {}",
        baseline.area, baseline.delay, baseline.verified
    );
    println!(
        "MCH       : area {:8.3} um^2, delay {:7.2} ps, verified = {}",
        mch.area, mch.delay, mch.verified
    );
    println!(
        "gain      : area {:+.2}%, delay {:+.2}%",
        (baseline.area - mch.area) / baseline.area * 100.0,
        (baseline.delay - mch.delay) / baseline.delay * 100.0
    );
    Ok(())
}

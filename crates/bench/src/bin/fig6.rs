//! Regenerates Figure 6: MCH-based graph-mapping optimization versus the
//! iterated single-representation baseline.
//!
//! Run with `cargo run -p mch_bench --bin fig6 --release`.
//! Pass `--quick` to restrict the run to the smaller circuits.

use mch_bench::printing::print_fig6;
use mch_bench::run_fig6;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let names: Vec<&str> = if quick {
        vec!["int2float", "ctrl", "router", "max", "priority"]
    } else {
        vec![
            "adder",
            "bar",
            "max",
            "sin",
            "square",
            "arbiter",
            "cavlc",
            "ctrl",
            "int2float",
            "priority",
            "router",
            "voter",
        ]
    };
    let rows = run_fig6(&names);
    print!("{}", print_fig6(&rows));
}

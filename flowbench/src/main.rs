//! One cold pass of a flow benchmark workload.
//!
//! ```text
//! flowbench --workload <epfl_suite|scaled|service_mix> --seed <n> --trace <0|1> [--spans <file>]
//! ```
//!
//! Prints one JSON object: the pass's metrics (end-to-end ones untraced,
//! except the latency percentiles, which `run.py` estimates over all its
//! passes; per-layer ones traced), the attempted and failed operation
//! counts, the failures, and the run record with every operation's latency. `run.py` builds this binary, starts one
//! process per pass and aggregates the passes.

mod check;
mod flows;
mod json;
mod trace;
mod workloads;

use json::Json;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: flowbench --workload <epfl_suite|scaled|service_mix> --seed <n> --trace <0|1> [--spans <file>]");
    std::process::exit(2)
}

fn main() {
    let process_start = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut trace = None;
    let mut spans_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans_path = Some(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(trace)) = (workload, seed, trace) else {
        usage()
    };
    // The thread count is part of the workload, so an inherited
    // `MCH_THREADS` must not change it. Set before any thread starts.
    let threads = if workload == "epfl_suite" {
        1
    } else {
        host_cpus()
    };
    std::env::set_var("MCH_THREADS", threads.to_string());
    let pass = match workload.as_str() {
        "epfl_suite" => workloads::epfl_suite_pass(seed, trace, process_start),
        "scaled" => workloads::scaled_pass(seed, trace, threads, process_start),
        "service_mix" => workloads::service_mix_pass(seed, trace, threads, process_start),
        _ => usage(),
    };
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, &pass.spans) {
            eprintln!("cannot write spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    let metrics = pass.metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let mut record = vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("trace".to_string(), Json::Bool(trace)),
        ("host_cpus".to_string(), Json::Num(host_cpus() as f64)),
    ];
    record.extend(pass.record);
    let out = Json::obj([
        ("attempted", Json::Num(pass.ledger.attempted as f64)),
        ("failed", Json::Num(pass.ledger.failures.len() as f64)),
        (
            "failures",
            Json::Arr(
                pass.ledger
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics.collect())),
        ("record", Json::Obj(record)),
    ]);
    println!("{}", out.render());
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

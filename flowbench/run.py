#!/usr/bin/env python3
"""End-to-end flow benchmark.

    python3 flowbench/run.py --workload <epfl_suite|scaled|service_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `flowbench` binary (release), then
runs cold passes of the workload, each in a fresh process, for about
`--seconds` seconds (at least one pass). Every pass checks its own outputs.
Prints the run record as one JSON line, then the result as the last line:
`{"correct", "attempted", "failed", "metrics"}`, where each metric is the
median over the passes, except the latency percentiles, which are estimated
over the operations of all passes together. With `--trace 0` the metrics are
the end-to-end ones, with `--trace 1` the per-layer ones from the traced
replay. The record and the trace spans are also written to `.flowbench_out/`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("epfl_suite", "scaled", "service_mix")
# A pass that runs longer than this is a hung benchmark, not a slow one.
PASS_TIMEOUT_S = 170
# Quality metrics are deterministic: every pass of a run must agree exactly.
DETERMINISTIC = ("lut_count_geomean", "lut_levels_geomean", "asic_area_geomean", "asic_delay_geomean")


def harrell_davis(values, q):
    """Harrell-Davis estimate of the `q` quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
    ranks. One operation's latency is noisy on a shared host, and a single
    order statistic jumps whenever two operations trade ranks; the weighted
    mean moves smoothly. The weights come from the midpoint rule, 64 steps
    per rank."""
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in xs))
    return sum(w * x for w, x in zip(weights, v)) / sum(weights)


def fail(message):
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark and returns the binary's path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "flowbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(binary, args, spans_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pass exceeded {PASS_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"pass exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("pass printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    out_dir = os.path.abspath(".flowbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    # One pass per process, so every pass starts cold. Another pass starts
    # only if it is expected to end within the measuring window.
    deadline = time.monotonic() + args.seconds
    passes, durations = [], []
    while True:
        start = time.monotonic()
        passes.append(run_pass(binary, args, f"{stem}-pass{len(passes)}.spans.jsonl"))
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > deadline:
            break

    names = list(passes[0]["metrics"])
    if any(list(p["metrics"]) != names for p in passes):
        fail("passes reported different metrics")
    metrics = {
        name: {
            "value": statistics.median(p["metrics"][name]["value"] for p in passes),
            "unit": passes[0]["metrics"][name]["unit"],
        }
        for name in names
    }
    # One pass's percentile rests on the few operations near it, and the host
    # runs at a speed that changes from one second to the next. Estimating
    # the percentiles over the operations of every pass spreads that noise
    # over all of them.
    latencies = [ms for p in passes for ms in p["record"]["latencies_ms"]]
    if not args.trace:
        for name, q in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
            metrics[name] = {"value": harrell_davis(latencies, q), "unit": "ms"}

    attempted = sum(int(p["attempted"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for name in DETERMINISTIC:
        if name in metrics and len({p["metrics"][name]["value"] for p in passes}) > 1:
            failures.append(f"{name} differs between passes")
    correct = failed == 0 and not failures

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "pass_seconds": durations,
        "failed_frac": failed / attempted if attempted else 0.0,
        "latency_samples": len(latencies),
        "failures": failures[:20],
        "passes": [dict(p["record"], metrics=p["metrics"]) for p in passes],
    }
    with open(f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

//! Criterion bench for the Figure-2 experiment: the full demo comparison
//! (traditional vs DCH vs MCH) on the `(a+b) > 0` circuit.

use mch_bench::harness::Criterion;
use mch_bench::run_fig2;
use mch_bench::{criterion_group, criterion_main};

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_demo");
    group.sample_size(10);
    group.bench_function("three_flows", |b| b.iter(run_fig2));
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);

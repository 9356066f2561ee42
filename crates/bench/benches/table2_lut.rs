//! Criterion bench for the Table-II experiment: baseline vs MCH 6-LUT mapping.

use mch_bench::harness::Criterion;
use mch_bench::{criterion_group, criterion_main};
use mch_core::{try_lut_flow_baseline, try_lut_flow_mch, MchConfig};
use mch_mapper::MappingObjective;
use mch_opt::compress2rs_like;
use mch_techlib::LutLibrary;

fn bench_table2(c: &mut Criterion) {
    let lut = LutLibrary::k6();
    let net = compress2rs_like(&mch_benchmarks::benchmark("int2float").unwrap(), 2);
    let mut group = c.benchmark_group("table2_lut_int2float");
    group.sample_size(10);
    group.bench_function("baseline_if", |b| {
        b.iter(|| {
            try_lut_flow_baseline(&net, &lut, MappingObjective::Area)
                .expect("baseline LUT flow failed")
        })
    });
    group.bench_function("mch_lut_area", |b| {
        b.iter(|| {
            try_lut_flow_mch(&net, &lut, &MchConfig::lut_area()).expect("MCH LUT flow failed")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);

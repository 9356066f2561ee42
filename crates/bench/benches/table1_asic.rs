//! Criterion bench for the Table-I experiment: the six ASIC flows on a
//! representative control circuit.

use mch_bench::harness::Criterion;
use mch_bench::{criterion_group, criterion_main};
use mch_core::{
    prepare_input, try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch, MchConfig,
};
use mch_mapper::MappingObjective;
use mch_techlib::asap7_lite;

fn bench_table1(c: &mut Criterion) {
    let library = asap7_lite();
    let input = prepare_input(&mch_benchmarks::benchmark("int2float").unwrap(), 2);
    let mut group = c.benchmark_group("table1_asic_int2float");
    group.sample_size(10);
    group.bench_function("baseline_nf", |b| {
        b.iter(|| {
            try_asic_flow_baseline(&input, &library, MappingObjective::Balanced)
                .expect("baseline ASIC flow failed")
        })
    });
    group.bench_function("dch_balanced", |b| {
        b.iter(|| {
            try_asic_flow_dch(&input, &library, MappingObjective::Balanced)
                .expect("DCH ASIC flow failed")
        })
    });
    group.bench_function("mch_balanced", |b| {
        b.iter(|| {
            try_asic_flow_mch(&input, &library, &MchConfig::balanced())
                .expect("MCH ASIC flow failed")
        })
    });
    group.bench_function("mch_area", |b| {
        b.iter(|| {
            try_asic_flow_mch(&input, &library, &MchConfig::area_oriented())
                .expect("MCH ASIC flow failed")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);

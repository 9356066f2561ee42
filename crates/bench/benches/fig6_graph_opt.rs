//! Criterion bench for the Figure-6 experiment: iterated graph mapping with
//! and without MCH.

use mch_bench::harness::Criterion;
use mch_bench::{criterion_group, criterion_main};
use mch_choice::MchParams;
use mch_logic::NetworkKind;
use mch_mapper::MappingObjective;
use mch_opt::{iterate_graph_map, iterate_graph_map_mch};

fn bench_fig6(c: &mut Criterion) {
    let net = mch_benchmarks::benchmark("int2float").unwrap();
    let params = MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]);
    let mut group = c.benchmark_group("fig6_graph_opt_int2float");
    group.sample_size(10);
    group.bench_function("baseline_graph_map", |b| {
        b.iter(|| iterate_graph_map(&net, NetworkKind::Xmg, MappingObjective::Area, 3))
    });
    group.bench_function("mch_graph_map", |b| {
        b.iter(|| iterate_graph_map_mch(&net, NetworkKind::Xmg, &params, MappingObjective::Area, 3))
    });
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
